#include "orch/campaign_spec.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "srv/arrival.hh"
#include "srv/server_stats.hh"
#include "system/presets.hh"
#include "util/json.hh"
#include "workload/app_catalog.hh"

namespace misar {
namespace orch {

/** Shortest exact decimal for a rate (matches CLI echo: "%g"). */
std::string
formatRate(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", rate);
    return buf;
}

std::string
serverAxesKey(double arrivalRate, const std::string &retryPolicy,
              const std::string &tenantMix)
{
    std::string key;
    if (arrivalRate > 0)
        key += "|a" + formatRate(arrivalRate);
    if (!retryPolicy.empty())
        key += "|p" + retryPolicy;
    if (!tenantMix.empty())
        key += "|t" + tenantMix;
    return key;
}

std::string
JobSpec::key() const
{
    std::ostringstream os;
    os << preset.name << "|" << app << "|c" << cores << "|s" << seed
       << "|r" << rep
       << serverAxesKey(arrivalRate, retryPolicy, tenantMix);
    return os.str();
}

namespace {

/**
 * Reject a member of object @p o that @p known does not list; @p what
 * names the object in the message. A typo'd key would otherwise
 * silently run the whole grid at the default.
 */
bool
knownKeys(const util::Json &o, const char *what,
          std::initializer_list<const char *> known, std::string &err)
{
    for (const auto &kv : o.obj) {
        if (std::find(known.begin(), known.end(), kv.first) != known.end())
            continue;
        err = std::string("unknown ") + what + " key '" + kv.first +
              "' (expected ";
        const char *sep = "";
        for (const char *k : known) {
            err += sep;
            err += k;
            sep = ", ";
        }
        err += ")";
        return false;
    }
    return true;
}

// Typed member reads. An absent member leaves @p out at its default;
// a present one of the wrong JSON type is an error naming the member
// as @p ctx + @p key, never a silent fallback to the default.

bool
typeError(const std::string &ctx, const char *key, const char *type,
          std::string &err)
{
    err = "\"" + ctx + key + "\" must be " + type;
    return false;
}

/** @p v as a T, if it is an integer in T's range. */
template <typename T>
bool
asUint(const util::Json &v, T &out)
{
    if (!v.isNum() || v.num < 0 || v.num != std::floor(v.num) ||
        v.num >= std::ldexp(1.0, std::numeric_limits<T>::digits))
        return false;
    out = static_cast<T>(v.num);
    return true;
}

template <typename T>
bool
readUint(const util::Json &o, const std::string &ctx, const char *key, T &out,
         std::string &err)
{
    if (o.has(key) && !asUint(o.at(key), out))
        return typeError(ctx, key, "a non-negative integer", err);
    return true;
}

template <typename T>
bool
readUintList(const util::Json &o, const std::string &ctx, const char *key,
             std::vector<T> &out, std::string &err)
{
    if (!o.has(key))
        return true;
    const util::Json &v = o.at(key);
    std::vector<T> list(v.arr.size());
    bool ok = v.isArr();
    for (std::size_t i = 0; ok && i < list.size(); ++i)
        ok = asUint(v.arr[i], list[i]);
    if (!ok)
        return typeError(ctx, key, "an array of non-negative integers",
                         err);
    out = std::move(list);
    return true;
}

bool
readString(const util::Json &o, const std::string &ctx, const char *key,
           std::string &out, std::string &err)
{
    if (!o.has(key))
        return true;
    if (!o.at(key).isStr())
        return typeError(ctx, key, "a string", err);
    out = o.at(key).str;
    return true;
}

bool
readStringList(const util::Json &o, const std::string &ctx, const char *key,
               std::vector<std::string> &out, std::string &err)
{
    if (!o.has(key))
        return true;
    const util::Json &v = o.at(key);
    std::vector<std::string> list;
    bool ok = v.isArr();
    for (const util::Json &e : v.arr) {
        ok = ok && e.isStr();
        list.push_back(e.str);
    }
    if (!ok)
        return typeError(ctx, key, "an array of strings", err);
    out = std::move(list);
    return true;
}

bool
readBool(const util::Json &o, const std::string &ctx, const char *key,
         bool &out, std::string &err)
{
    if (!o.has(key))
        return true;
    if (o.at(key).kind != util::Json::Bool)
        return typeError(ctx, key, "true or false", err);
    out = o.at(key).boolean;
    return true;
}

bool
readNumber(const util::Json &o, const std::string &ctx, const char *key,
           double &out, std::string &err)
{
    if (!o.has(key))
        return true;
    if (!o.at(key).isNum())
        return typeError(ctx, key, "a number", err);
    out = o.at(key).num;
    return true;
}

bool
parsePreset(const util::Json &j, const std::string &ctx, PresetSpec &p,
            std::string &err)
{
    if (j.isStr()) {
        p.name = p.config = j.str;
        return true;
    }
    if (!j.isObj()) {
        err = "presets entries must be strings or objects";
        return false;
    }
    std::string name, config;
    if (!knownKeys(j, "preset",
                   {"name", "config", "entries", "hwsync", "omu", "smt",
                    "seeds"},
                   err) ||
        !readString(j, ctx, "name", name, err) ||
        !readString(j, ctx, "config", config, err) ||
        !readUint(j, ctx, "entries", p.entries, err) ||
        !readBool(j, ctx, "hwsync", p.hwsync, err) ||
        !readBool(j, ctx, "omu", p.omu, err) ||
        !readUint(j, ctx, "smt", p.smt, err) ||
        !readUintList(j, ctx, "seeds", p.seeds, err))
        return false;
    p.config = j.has("config") ? config : name;
    p.name = j.has("name") ? name : p.config;
    if (p.config.empty()) {
        err = "preset object needs a \"config\" (or \"name\") member";
        return false;
    }
    return true;
}

bool
parseServer(const util::Json &o, CampaignSpec::ServerSweep &sv,
            std::string &err)
{
    if (!o.isObj()) {
        err = "\"server\" must be an object";
        return false;
    }
    const std::string ctx = "server.";
    if (!knownKeys(o, "\"server\"",
                   {"arrivalRates", "serviceDist", "queueCap", "slo",
                    "retryPolicies", "retryBudget", "tenantMixes"},
                   err) ||
        !readString(o, ctx, "serviceDist", sv.serviceDist, err) ||
        !readUint(o, ctx, "queueCap", sv.queueCap, err) ||
        !readUint(o, ctx, "slo", sv.slo, err) ||
        !readNumber(o, ctx, "retryBudget", sv.retryBudget, err) ||
        !readStringList(o, ctx, "retryPolicies", sv.retryPolicies, err) ||
        !readStringList(o, ctx, "tenantMixes", sv.tenantMixes, err))
        return false;
    sv.present = true;
    if (o.has("arrivalRates")) {
        if (!o.at("arrivalRates").isArr() ||
            o.at("arrivalRates").arr.empty()) {
            err = "\"server.arrivalRates\" must be a non-empty "
                  "array of rates";
            return false;
        }
        for (const util::Json &j : o.at("arrivalRates").arr) {
            if (!j.isNum() || j.num <= 0) {
                err = "\"server.arrivalRates\" entries must be "
                      "positive numbers";
                return false;
            }
            sv.arrivalRates.push_back(j.num);
        }
    }
    if (o.has("slo") && sv.slo == 0) {
        err = "\"server.slo\" must be a positive tick count";
        return false;
    }
    if (o.has("retryPolicies") && sv.retryPolicies.empty()) {
        err = "\"server.retryPolicies\" must be a non-empty "
              "array of policy names";
        return false;
    }
    for (const std::string &name : sv.retryPolicies) {
        srv::RetryPolicy p;
        if (!srv::parseRetryPolicy(name, p)) {
            err = "unknown server.retryPolicies entry '" + name +
                  "' (expected one of: " + srv::retryPolicyNames() + ")";
            return false;
        }
    }
    if (o.has("retryBudget") && sv.retryBudget <= 0) {
        err = "\"server.retryBudget\" must be a positive ratio";
        return false;
    }
    if (o.has("tenantMixes") && sv.tenantMixes.empty()) {
        err = "\"server.tenantMixes\" must be a non-empty "
              "array of \"HI:LO\" rate strings";
        return false;
    }
    for (const std::string &mix : sv.tenantMixes) {
        double hi = 0, lo = 0;
        if (!srv::parseTenantMix(mix, hi, lo)) {
            err = "bad server.tenantMixes entry '" + mix +
                  "' (expected \"HI:LO\" positive rates)";
            return false;
        }
    }
    if (!sv.tenantMixes.empty() && !sv.arrivalRates.empty()) {
        err = "server.tenantMixes and server.arrivalRates are "
              "mutually exclusive (each mix fixes its own total "
              "rate)";
        return false;
    }
    if (sv.retryBudget > 0 &&
        std::find(sv.retryPolicies.begin(), sv.retryPolicies.end(),
                  "budgeted") == sv.retryPolicies.end()) {
        err = "server.retryBudget needs \"budgeted\" in "
              "server.retryPolicies";
        return false;
    }
    return true;
}

} // namespace

bool
CampaignSpec::parse(const std::string &text, CampaignSpec &out,
                    std::string &err)
{
    util::Json root = util::parseJson(text, &err);
    if (root.isNull() && !err.empty())
        return false;
    if (!root.isObj()) {
        err = "campaign spec must be a JSON object";
        return false;
    }

    CampaignSpec s;
    if (!knownKeys(root, "spec",
                   {"name", "presets", "apps", "cores", "seeds", "reps",
                    "tickLimit", "timeoutSec", "maxRetries", "baseline",
                    "stats", "obs", "server"},
                   err) ||
        !readString(root, "", "name", s.name, err) ||
        !readUintList(root, "", "cores", s.cores, err) ||
        !readUintList(root, "", "seeds", s.seeds, err) ||
        !readUint(root, "", "reps", s.reps, err) ||
        !readUint(root, "", "tickLimit", s.tickLimit, err) ||
        !readNumber(root, "", "timeoutSec", s.timeoutSec, err) ||
        !readUint(root, "", "maxRetries", s.maxRetries, err) ||
        !readString(root, "", "baseline", s.baseline, err) ||
        !readStringList(root, "", "stats", s.stats, err))
        return false;

    if (!root.at("presets").isArr() || root.at("presets").arr.empty()) {
        err = "spec needs a non-empty \"presets\" array";
        return false;
    }
    for (const util::Json &j : root.at("presets").arr) {
        PresetSpec p;
        const std::string ctx =
            "presets[" + std::to_string(s.presets.size()) + "].";
        if (!parsePreset(j, ctx, p, err))
            return false;
        s.presets.push_back(std::move(p));
    }

    const util::Json &apps = root.at("apps");
    if (apps.isStr()) {
        s.apps = {apps.str}; // "all" / "headline" shorthands
    } else if (!apps.isArr() || apps.arr.empty()) {
        err = "spec needs an \"apps\" array (or \"all\"/\"headline\")";
        return false;
    } else if (!readStringList(root, "", "apps", s.apps, err)) {
        return false;
    }

    if (root.has("obs")) {
        const util::Json &o = root.at("obs");
        if (!o.isObj()) {
            err = "\"obs\" must be an object";
            return false;
        }
        if (!knownKeys(o, "\"obs\"", {"sampleInterval", "heatmap"}, err) ||
            !readUint(o, "obs.", "sampleInterval", s.obs.sampleInterval,
                      err) ||
            !readBool(o, "obs.", "heatmap", s.obs.heatmap, err))
            return false;
    }
    if (root.has("server") && !parseServer(root.at("server"), s.server, err))
        return false;

    out = std::move(s);
    return true;
}

bool
CampaignSpec::parseFile(const std::string &path, CampaignSpec &out,
                        std::string &err)
{
    std::ifstream f(path);
    if (!f) {
        err = "cannot open " + path;
        return false;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    return parse(ss.str(), out, err);
}

std::string
CampaignSpec::validate()
{
    // Expand the app shorthands first so expand() sees real names.
    // "all" deliberately stays the paper's 26 benchmarks — server
    // workloads have their own "server" shorthand so historical grid
    // hashes never change.
    if (apps.size() == 1 &&
        (apps[0] == "all" || apps[0] == "headline" ||
         apps[0] == "server")) {
        std::vector<std::string> expanded;
        if (apps[0] == "headline") {
            expanded = workload::headlineApps();
        } else if (apps[0] == "server") {
            for (const workload::AppSpec &a : workload::serverCatalog())
                expanded.push_back(a.name);
        } else {
            for (const workload::AppSpec &a : workload::appCatalog())
                expanded.push_back(a.name);
        }
        apps = std::move(expanded);
    }
    for (const std::string &a : apps)
        if (!workload::findApp(a))
            return "unknown app '" + a + "'";

    if (server.present) {
        if (!server.serviceDist.empty()) {
            srv::ServiceDist d;
            if (!srv::parseServiceDist(server.serviceDist, d))
                return "unknown server.serviceDist '" +
                       server.serviceDist + "' (expected one of: " +
                       srv::serviceDistNames() + ")";
        }
        for (const std::string &a : apps) {
            const workload::AppSpec *spec = workload::findApp(a);
            if (!spec->server.enabled)
                return "\"server\" sweep includes non-server app '" +
                       a + "'";
            const bool open_only_axes =
                !server.arrivalRates.empty() || server.slo > 0 ||
                !server.retryPolicies.empty() ||
                !server.tenantMixes.empty();
            if (open_only_axes &&
                spec->server.mode == srv::ArrivalMode::Closed)
                return "server arrivalRates/slo/retryPolicies/"
                       "tenantMixes do not apply to closed-loop app '" +
                       a + "'";
        }
    }

    if (presets.empty())
        return "no presets";
    SystemConfig cfg;
    sync::SyncLib::Flavor fl;
    for (const PresetSpec &p : presets) {
        if (!sys::cliPresetFor(p.config, 16, p.entries, cfg, fl))
            return "unknown preset config '" + p.config + "'";
        if (p.name.empty())
            return "preset with empty name";
    }
    for (std::size_t i = 0; i < presets.size(); ++i)
        for (std::size_t j = i + 1; j < presets.size(); ++j)
            if (presets[i].name == presets[j].name)
                return "duplicate preset name '" + presets[i].name + "'";

    if (cores.empty())
        return "no core counts";
    for (unsigned c : cores) {
        unsigned dim = static_cast<unsigned>(std::lround(std::sqrt(c)));
        if (c == 0 || dim * dim != c)
            return "core count " + std::to_string(c) +
                   " is not a perfect square";
    }
    if (seeds.empty())
        return "no seeds";
    if (reps == 0)
        return "reps must be >= 1";

    if (!baseline.empty()) {
        bool found = false;
        for (const PresetSpec &p : presets)
            found |= p.name == baseline;
        if (!found)
            return "baseline '" + baseline + "' is not a preset name";
    }
    for (std::size_t i = 0; i < stats.size(); ++i)
        for (std::size_t j = i + 1; j < stats.size(); ++j)
            if (stats[i] == stats[j])
                return "duplicate stats name '" + stats[i] + "'";

    // Heatmap timelines are driven by the stat sampler; give it a
    // sensible cadence when the spec asks for heatmaps but no rate.
    if (obs.heatmap && obs.sampleInterval == 0)
        obs.sampleInterval = 10000;
    return "";
}

std::vector<JobSpec>
CampaignSpec::expand() const
{
    std::vector<JobSpec> jobs;
    unsigned id = 0;
    // Unused axes collapse to a single inert value, keeping job keys
    // in their historical form (no "|a"/"|p"/"|t" suffixes).
    const std::vector<double> rates =
        server.arrivalRates.empty() ? std::vector<double>{0.0}
                                    : server.arrivalRates;
    const std::vector<std::string> policies =
        server.retryPolicies.empty() ? std::vector<std::string>{""}
                                     : server.retryPolicies;
    const std::vector<std::string> mixes =
        server.tenantMixes.empty() ? std::vector<std::string>{""}
                                   : server.tenantMixes;
    for (const PresetSpec &p : presets) {
        const std::vector<std::uint64_t> &ss =
            p.seeds.empty() ? seeds : p.seeds;
        for (const std::string &a : apps) {
            for (unsigned c : cores) {
                for (double rate : rates) {
                    for (const std::string &policy : policies) {
                        for (const std::string &mix : mixes) {
                            for (std::uint64_t seed : ss) {
                                for (unsigned r = 0; r < reps; ++r) {
                                    JobSpec j;
                                    j.id = id++;
                                    j.preset = p;
                                    j.app = a;
                                    j.cores = c;
                                    j.seed = seed;
                                    j.rep = r;
                                    j.arrivalRate = rate;
                                    j.retryPolicy = policy;
                                    j.tenantMix = mix;
                                    jobs.push_back(std::move(j));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

std::uint64_t
CampaignSpec::gridHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= ';';
        h *= 0x100000001b3ULL;
    };
    for (const JobSpec &j : expand())
        mix(j.key());
    mix(std::to_string(tickLimit));
    return h;
}

} // namespace orch
} // namespace misar
