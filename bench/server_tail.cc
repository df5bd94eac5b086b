/**
 * @file
 * Tail-latency study of the open-loop server workload: offered-load
 * sweep on 16 cores with 16 MSA entries per tile (MSA/OMU) versus
 * the software fallback (msa0), emitting achieved throughput, latency
 * percentiles, shed counts and the saturation knee per point.
 *
 * The point of the experiment: request dispatch and work stealing
 * funnel every hand-off through a handful of hot locks/condvars, so
 * sync-op latency lands directly on the request path. The MSA
 * configurations should carry a given offered load with a lower p99
 * and hit their saturation knee at a higher rate than the software
 * fallback.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/repro.hh"
#include "sim/logging.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"

using namespace misar;

namespace {

/** A column: the hybrid library on an MSA, or on none (msa0). */
struct PresetRow
{
    const char *label; ///< report column
    AccelMode mode;
    unsigned entries; ///< MSA entries per tile
};

constexpr PresetRow presets[] = {
    {"msa-16c-16e", AccelMode::MsaOmu, 16},
    {"sw-fallback", AccelMode::None, 2},
};

} // namespace

int
bench::serverTail()
{
    banner("Server tail latency",
           "open-loop dispatch + stealing under offered load");

    const unsigned cores = 16;
    const std::vector<double> rates = {1, 2, 4, 8};

    const workload::AppSpec app = workload::appByName("server-poisson");

    std::printf("%-12s %7s %9s %8s %8s %8s %7s %5s\n", "Preset",
                "Offered", "Achieved", "p50", "p99", "p999", "Rej",
                "Knee");

    // knee rate per preset: lowest swept rate past the knee.
    std::vector<double> knee_rate(std::size(presets), 0.0);
    // p99 per (preset, rate) for the cross-preset comparison.
    std::vector<std::vector<std::uint64_t>> p99s(std::size(presets));

    for (std::size_t pi = 0; pi < std::size(presets); ++pi) {
        const PresetRow &p = presets[pi];
        for (double rate : rates) {
            workload::AppSpec spec = app;
            spec.server.arrivalRate = rate;
            workload::RunResult r = workload::runAppWithConfig(
                spec, makeConfig(cores, p.mode, p.entries),
                sync::SyncLib::Flavor::Hw, /*seed=*/1, p.label);
            if (!r.finished)
                fatal("%s at rate %g did not finish", p.label, rate);
            const srv::ServerStats &s = r.server;
            std::printf("%-12s %7g %9.4f %8llu %8llu %8llu %7llu %5s\n",
                        p.label, rate, s.throughput,
                        static_cast<unsigned long long>(s.latency.p50()),
                        static_cast<unsigned long long>(s.latency.p99()),
                        static_cast<unsigned long long>(s.latency.p999()),
                        static_cast<unsigned long long>(s.rejected),
                        s.knee ? "yes" : "no");
            if (s.knee && knee_rate[pi] == 0.0)
                knee_rate[pi] = rate;
            p99s[pi].push_back(s.latency.p99());
        }
    }

    std::printf("\nsaturation knee (lowest swept rate shedding > 1%%):\n");
    for (std::size_t pi = 0; pi < std::size(presets); ++pi) {
        if (knee_rate[pi] > 0.0)
            std::printf("  %-12s at rate %g\n", presets[pi].label,
                        knee_rate[pi]);
        else
            std::printf("  %-12s beyond rate %g\n", presets[pi].label,
                        rates.back());
    }

    // The claim under test: at every offered load the MSA preset
    // either carries a lower p99 than the software fallback or has
    // not yet knee'd where it has.
    const std::size_t sw = std::size(presets) - 1;
    bool msa_wins = true;
    for (std::size_t pi = 0; pi + 1 < std::size(presets); ++pi) {
        bool later_knee =
            knee_rate[sw] > 0.0 &&
            (knee_rate[pi] == 0.0 || knee_rate[pi] > knee_rate[sw]);
        bool lower_p99 = true;
        for (std::size_t ri = 0; ri < rates.size(); ++ri)
            lower_p99 &= p99s[pi][ri] <= p99s[sw][ri];
        if (!(later_knee || lower_p99)) {
            msa_wins = false;
            std::printf("\n%s: neither a later knee nor uniformly "
                        "lower p99 than sw-fallback\n",
                        presets[pi].label);
        }
    }
    std::printf("\nMSA vs sw-fallback (later knee or lower p99): %s\n",
                msa_wins ? "PASS" : "FAIL");
    return msa_wins ? 0 : 1;
}
