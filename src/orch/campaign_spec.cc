#include "orch/campaign_spec.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "orch/json.hh"
#include "srv/arrival.hh"
#include "srv/server_stats.hh"
#include "system/presets.hh"
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

bool
parsePreset(const Json &j, PresetSpec &p, std::string &err)
{
    if (j.isStr()) {
        p.name = p.config = j.str;
        return true;
    }
    if (!j.isObj()) {
        err = "presets entries must be strings or objects";
        return false;
    }
    p.config = j.at("config").stringOr(j.at("name").stringOr(""));
    p.name = j.at("name").stringOr(p.config);
    if (p.config.empty()) {
        err = "preset object needs a \"config\" (or \"name\") member";
        return false;
    }
    p.entries = static_cast<unsigned>(j.at("entries").uintOr(p.entries));
    p.hwsync = j.at("hwsync").boolOr(p.hwsync);
    p.omu = j.at("omu").boolOr(p.omu);
    p.smt = static_cast<unsigned>(j.at("smt").uintOr(p.smt));
    p.threads = static_cast<unsigned>(j.at("threads").uintOr(p.threads));
    if (j.has("seeds")) {
        const Json &s = j.at("seeds");
        if (!s.isArr()) {
            err = "preset \"seeds\" must be an array";
            return false;
        }
        for (const Json &e : s.arr)
            p.seeds.push_back(e.uintOr(1));
    }
    return true;
}

} // namespace

bool
CampaignSpec::parse(const std::string &text, CampaignSpec &out,
                    std::string &err)
{
    Json root = parseJson(text, &err);
    if (root.isNull() && !err.empty())
        return false;
    if (!root.isObj()) {
        err = "campaign spec must be a JSON object";
        return false;
    }

    CampaignSpec s;
    s.name = root.at("name").stringOr(s.name);

    if (!root.at("presets").isArr() || root.at("presets").arr.empty()) {
        err = "spec needs a non-empty \"presets\" array";
        return false;
    }
    for (const Json &j : root.at("presets").arr) {
        PresetSpec p;
        if (!parsePreset(j, p, err))
            return false;
        s.presets.push_back(std::move(p));
    }

    const Json &apps = root.at("apps");
    if (apps.isStr()) {
        s.apps = {apps.str}; // "all" / "headline" shorthands
    } else if (apps.isArr() && !apps.arr.empty()) {
        for (const Json &j : apps.arr)
            s.apps.push_back(j.stringOr(""));
    } else {
        err = "spec needs an \"apps\" array (or \"all\"/\"headline\")";
        return false;
    }

    if (root.has("cores")) {
        if (!root.at("cores").isArr()) {
            err = "\"cores\" must be an array of core counts";
            return false;
        }
        s.cores.clear();
        for (const Json &j : root.at("cores").arr)
            s.cores.push_back(static_cast<unsigned>(j.uintOr(0)));
    }
    if (root.has("seeds")) {
        if (!root.at("seeds").isArr()) {
            err = "\"seeds\" must be an array";
            return false;
        }
        s.seeds.clear();
        for (const Json &j : root.at("seeds").arr)
            s.seeds.push_back(j.uintOr(1));
    }
    s.reps = static_cast<unsigned>(root.at("reps").uintOr(s.reps));
    s.tickLimit = root.at("tickLimit").uintOr(s.tickLimit);
    s.timeoutSec = root.at("timeoutSec").numberOr(s.timeoutSec);
    s.maxRetries =
        static_cast<unsigned>(root.at("maxRetries").uintOr(s.maxRetries));
    s.baseline = root.at("baseline").stringOr(s.baseline);
    if (root.has("stats")) {
        if (!root.at("stats").isArr()) {
            err = "\"stats\" must be an array of counter names";
            return false;
        }
        for (const Json &j : root.at("stats").arr)
            s.stats.push_back(j.stringOr(""));
    }
    if (root.has("obs")) {
        const Json &o = root.at("obs");
        if (!o.isObj()) {
            err = "\"obs\" must be an object";
            return false;
        }
        s.obs.sampleInterval = o.at("sampleInterval").uintOr(0);
        s.obs.heatmap = o.at("heatmap").boolOr(false);
    }
    if (root.has("server")) {
        const Json &o = root.at("server");
        if (!o.isObj()) {
            err = "\"server\" must be an object";
            return false;
        }
        // Unknown keys are rejected loudly: a typo'd "arrivalRate"
        // would otherwise silently run the whole sweep at defaults.
        for (const auto &kv : o.obj)
            if (kv.first != "arrivalRates" && kv.first != "serviceDist" &&
                kv.first != "queueCap" && kv.first != "slo" &&
                kv.first != "retryPolicies" &&
                kv.first != "retryBudget" &&
                kv.first != "tenantMixes") {
                err = "unknown \"server\" key '" + kv.first +
                      "' (expected arrivalRates, serviceDist, "
                      "queueCap, slo, retryPolicies, retryBudget, "
                      "tenantMixes)";
                return false;
            }
        s.server.present = true;
        if (o.has("arrivalRates")) {
            if (!o.at("arrivalRates").isArr() ||
                o.at("arrivalRates").arr.empty()) {
                err = "\"server.arrivalRates\" must be a non-empty "
                      "array of rates";
                return false;
            }
            for (const Json &j : o.at("arrivalRates").arr) {
                if (!j.isNum() || j.num <= 0) {
                    err = "\"server.arrivalRates\" entries must be "
                          "positive numbers";
                    return false;
                }
                s.server.arrivalRates.push_back(j.num);
            }
        }
        s.server.serviceDist = o.at("serviceDist").stringOr("");
        s.server.queueCap = o.at("queueCap").uintOr(0);
        if (o.has("slo")) {
            const Json &v = o.at("slo");
            if (!v.isNum() || v.uintOr(0) == 0) {
                err = "\"server.slo\" must be a positive tick count";
                return false;
            }
            s.server.slo = v.uintOr(0);
        }
        if (o.has("retryPolicies")) {
            if (!o.at("retryPolicies").isArr() ||
                o.at("retryPolicies").arr.empty()) {
                err = "\"server.retryPolicies\" must be a non-empty "
                      "array of policy names";
                return false;
            }
            for (const Json &j : o.at("retryPolicies").arr) {
                srv::RetryPolicy p;
                if (!srv::parseRetryPolicy(j.stringOr(""), p)) {
                    err = "unknown server.retryPolicies entry '" +
                          j.stringOr("") + "' (expected one of: " +
                          srv::retryPolicyNames() + ")";
                    return false;
                }
                s.server.retryPolicies.push_back(j.stringOr(""));
            }
        }
        if (o.has("retryBudget")) {
            const Json &v = o.at("retryBudget");
            if (!v.isNum() || v.num <= 0) {
                err = "\"server.retryBudget\" must be a positive "
                      "ratio";
                return false;
            }
            s.server.retryBudget = v.num;
        }
        if (o.has("tenantMixes")) {
            if (!o.at("tenantMixes").isArr() ||
                o.at("tenantMixes").arr.empty()) {
                err = "\"server.tenantMixes\" must be a non-empty "
                      "array of \"HI:LO\" rate strings";
                return false;
            }
            for (const Json &j : o.at("tenantMixes").arr) {
                double hi = 0, lo = 0;
                if (!srv::parseTenantMix(j.stringOr(""), hi, lo)) {
                    err = "bad server.tenantMixes entry '" +
                          j.stringOr("") +
                          "' (expected \"HI:LO\" positive rates)";
                    return false;
                }
                s.server.tenantMixes.push_back(j.stringOr(""));
            }
        }
        if (!s.server.tenantMixes.empty() &&
            !s.server.arrivalRates.empty()) {
            err = "server.tenantMixes and server.arrivalRates are "
                  "mutually exclusive (each mix fixes its own total "
                  "rate)";
            return false;
        }
        if (s.server.retryBudget > 0) {
            bool budgeted = false;
            for (const std::string &p : s.server.retryPolicies)
                budgeted |= p == "budgeted";
            if (!budgeted) {
                err = "server.retryBudget needs \"budgeted\" in "
                      "server.retryPolicies";
                return false;
            }
        }
    }

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
