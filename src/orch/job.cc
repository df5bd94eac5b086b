#include "orch/job.hh"

#include "sim/logging.hh"
#include "srv/arrival.hh"
#include "system/presets.hh"
#include "workload/app_catalog.hh"

namespace misar {
namespace orch {

JobRun
resolveJob(const JobSpec &j, const CampaignSpec::ServerSweep &server)
{
    JobRun run;
    if (!sys::cliPresetFor(j.preset.config, j.cores, j.preset.entries,
                           run.cfg, run.flavor))
        fatal("unknown preset config '%s'", j.preset.config.c_str());
    run.cfg.smtWays = j.preset.smt;
    run.cfg.msa.hwSyncBitOpt = j.preset.hwsync;
    run.cfg.msa.omuEnabled = j.preset.omu;
    run.cfg.seed = j.seed;

    run.app = workload::appByName(j.app);
    srv::ServerSpec &sv = run.app.server;
    if (j.arrivalRate > 0)
        sv.arrivalRate = j.arrivalRate;
    if (!server.serviceDist.empty() &&
        !srv::parseServiceDist(server.serviceDist, sv.serviceDist))
        fatal("unknown service distribution '%s'",
              server.serviceDist.c_str());
    if (server.queueCap)
        sv.queueCap = server.queueCap;
    if (server.slo)
        sv.sloTicks = server.slo;
    if (!j.retryPolicy.empty() &&
        !srv::parseRetryPolicy(j.retryPolicy, sv.retryPolicy))
        fatal("unknown retry policy '%s'", j.retryPolicy.c_str());
    // The budget only means something to the budgeted policy.
    if (server.retryBudget > 0 &&
        sv.retryPolicy == srv::RetryPolicy::Budgeted)
        sv.retryBudgetRatio = server.retryBudget;
    if (!j.tenantMix.empty()) {
        double hi = 0, lo = 0;
        if (!srv::parseTenantMix(j.tenantMix, hi, lo))
            fatal("bad tenant mix '%s'", j.tenantMix.c_str());
        sv.tenantHiRate = hi;
        sv.tenantLoRate = lo;
        sv.arrivalRate = hi + lo; // a mix fixes its own total rate
    }
    return run;
}

const char *
jobOutcomeName(JobOutcome o)
{
    switch (o) {
      case JobOutcome::Finished:
        return "finished";
      case JobOutcome::Deadlock:
        return "deadlock";
      case JobOutcome::TickLimit:
        return "tick-limit";
      case JobOutcome::Error:
        return "error";
      case JobOutcome::Crash:
        return "crash";
      case JobOutcome::Timeout:
        return "timeout";
      case JobOutcome::SpawnError:
        return "spawn-error";
      case JobOutcome::Missing:
        return "missing";
    }
    return "?";
}

JobOutcome
jobOutcomeFromName(const std::string &name)
{
    for (JobOutcome o :
         {JobOutcome::Finished, JobOutcome::Deadlock, JobOutcome::TickLimit,
          JobOutcome::Error, JobOutcome::Crash, JobOutcome::Timeout,
          JobOutcome::SpawnError})
        if (name == jobOutcomeName(o))
            return o;
    return JobOutcome::Missing;
}

} // namespace orch
} // namespace misar
