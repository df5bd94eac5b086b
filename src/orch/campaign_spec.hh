/**
 * @file
 * Campaign specification: the declarative description of one
 * experiment sweep.
 *
 * A spec is a cartesian grid — presets x apps x core counts x seeds
 * x repetitions — plus per-job execution policy (tick limit,
 * wall-clock timeout, retry budget) and aggregation directives
 * (baseline preset for speedups, extra stat counters to collect per
 * cell). Specs are written as JSON (schema in EXPERIMENTS.md,
 * examples under bench/campaigns/) and expand into a deterministic,
 * stably-numbered job list: job ids depend only on the spec, never
 * on execution order, so a resumed campaign and a fresh one agree on
 * what job 17 is.
 */

#ifndef MISAR_ORCH_CAMPAIGN_SPEC_HH
#define MISAR_ORCH_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace misar {
namespace orch {

/** One column of the sweep: a simulator configuration to run. */
struct PresetSpec
{
    /** Cell label in reports; defaults to the config name. */
    std::string name;
    /** misar_sim --config value (see sys::cliPresetNames()). */
    std::string config;
    unsigned entries = 2; ///< MSA entries per tile
    bool hwsync = true;   ///< HWSync-bit optimization
    bool omu = true;      ///< overflow management unit
    unsigned smt = 1;     ///< hardware threads per core
    /** Host worker threads for the simulation kernel (misar_sim
     *  --threads). Any value produces identical statistics; > 1
     *  trades determinism-preserving PDES overhead for wall clock. */
    unsigned threads = 1;
    /** Seed override for this preset (empty = the spec's seeds). */
    std::vector<std::uint64_t> seeds;
};

/** Shortest exact decimal rendering of an arrival rate ("%g") —
 *  shared by job keys, CLI argv, and aggregation cell keys so every
 *  layer spells the same rate identically. */
std::string formatRate(double rate);

/** The key suffix of a job's or cell's server sweep axes: "|a<rate>"
 *  "|p<policy>" "|t<mix>", each only on a swept axis, so grids
 *  without those axes keep their historical keys and gridHash. */
std::string serverAxesKey(double arrivalRate, const std::string &retryPolicy,
                          const std::string &tenantMix);

/** One fully-resolved job of the expanded grid. */
struct JobSpec
{
    unsigned id = 0; ///< position in the expansion (stable)
    PresetSpec preset;
    std::string app;
    unsigned cores = 16;
    std::uint64_t seed = 1;
    unsigned rep = 0;
    /**
     * Offered load for server workloads, requests per kilotick
     * (0 = no arrival-rate axis; the app default applies). Only
     * non-zero when the spec has a "server" sweep, so grids without
     * one keep their historical keys and gridHash.
     */
    double arrivalRate = 0.0;

    /**
     * Retry-policy axis value ("none"/"naive"/"budgeted"; "" = no
     * axis). Like arrivalRate, empty keeps historical keys intact.
     */
    std::string retryPolicy;

    /**
     * Tenant-mix axis value ("HI:LO" rates; "" = single tenant).
     * A mix implies its own total arrival rate, so specs use either
     * arrivalRates or tenantMixes, never both.
     */
    std::string tenantMix;

    /** Stable identity string (manifest cross-checking). */
    std::string key() const;
};

/** A parsed campaign specification. */
struct CampaignSpec
{
    std::string name = "campaign";
    std::vector<PresetSpec> presets;
    /** Workload names; "all" / "headline" expand the catalog. */
    std::vector<std::string> apps;
    std::vector<unsigned> cores = {16};
    std::vector<std::uint64_t> seeds = {1};
    unsigned reps = 1;

    /** Per-job simulated-tick budget (runDetailed limit). */
    std::uint64_t tickLimit = 2000000000ULL;
    /** Per-job wall-clock timeout in seconds (0 = none). */
    double timeoutSec = 300.0;
    /** Retries after a crash/timeout before a job is abandoned. */
    unsigned maxRetries = 2;

    /** Preset name speedups are computed against ("" = none). */
    std::string baseline;
    /** Extra StatRegistry counters aggregated per cell. */
    std::vector<std::string> stats;

    /**
     * Per-job observability directives (spec "obs" object). These
     * add output artifacts without changing simulated behaviour, so
     * they are deliberately NOT part of gridHash(): a resumed
     * campaign may turn heatmaps on or off without invalidating the
     * manifest.
     */
    struct ObsSpec
    {
        /** Stat-sampler tick interval for each job (0 = off). */
        std::uint64_t sampleInterval = 0;
        /** Write per-job heatmap.json resource-pressure matrices. */
        bool heatmap = false;
    };
    ObsSpec obs;

    /**
     * Server-workload sweep directives (spec "server" object). The
     * arrival rates become a grid axis between cores and seeds; the
     * distribution / queue-capacity overrides apply to every job.
     * Only meaningful when every app is an open-loop server-* app
     * (validate() enforces this).
     */
    struct ServerSweep
    {
        bool present = false;
        /** Offered loads in requests per kilotick (the sweep axis). */
        std::vector<double> arrivalRates;
        /** Service-distribution override ("" = app default). */
        std::string serviceDist;
        /** Dispatch-queue capacity override (0 = app default). */
        std::uint64_t queueCap = 0;
        /** Latency SLO in ticks for every job (0 = no SLO). */
        std::uint64_t slo = 0;
        /** Retry-policy axis ("none"/"naive"/"budgeted"). */
        std::vector<std::string> retryPolicies;
        /** Budget ratio for budgeted-policy jobs (0 = app default). */
        double retryBudget = 0.0;
        /**
         * Tenant-mix axis ("HI:LO" rate strings). Each mix fixes its
         * own total arrival rate, so this axis and arrivalRates are
         * mutually exclusive.
         */
        std::vector<std::string> tenantMixes;
    };
    ServerSweep server;

    /**
     * Parse the JSON text of a spec file. Returns false and sets
     * @p err on malformed JSON or structurally invalid fields;
     * semantic checks (names exist, cores square) live in
     * validate().
     */
    static bool parse(const std::string &text, CampaignSpec &out,
                      std::string &err);

    /** parse() applied to a file's contents. */
    static bool parseFile(const std::string &path, CampaignSpec &out,
                          std::string &err);

    /**
     * Semantic validation: expands "all"/"headline" app shorthands
     * against the catalog and checks every preset config, app name,
     * core count and the baseline reference. Returns "" when valid,
     * else a one-line error.
     */
    std::string validate();

    /** Expand the grid in deterministic order, ids 0..N-1. */
    std::vector<JobSpec> expand() const;

    /**
     * FNV-1a hash over the expanded job identities and the tick
     * limit. Stored in the manifest header so --resume refuses to
     * mix jobs from a different grid.
     */
    std::uint64_t gridHash() const;
};

} // namespace orch
} // namespace misar

#endif // MISAR_ORCH_CAMPAIGN_SPEC_HH
