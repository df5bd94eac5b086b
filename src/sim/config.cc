#include "sim/config.hh"

#include <cmath>

#include "sim/logging.hh"

namespace misar {

unsigned
SystemConfig::meshDim() const
{
    unsigned d = static_cast<unsigned>(std::lround(std::sqrt(numCores)));
    return d;
}

void
SystemConfig::validate() const
{
    unsigned d = meshDim();
    if (d * d != numCores)
        fatal("numCores (%u) must be a perfect square for a 2D mesh",
              numCores);
    if (numCores == 0 || numCores > 1024)
        fatal("numCores (%u) out of supported range [1, 1024]", numCores);
    if (smtWays == 0 || smtWays > 4)
        fatal("smtWays (%u) out of supported range [1, 4]", smtWays);
    if (numThreads() > 1024)
        fatal("numCores*smtWays (%u) exceeds the 1024 HWQueue bits",
              numThreads());
    if (simThreads != 1)
        fatal("simThreads (%u) must be 1: the simulation kernel is "
              "serial", simThreads);
    if (msa.mode == AccelMode::MsaOmu && msa.omuCounters == 0)
        fatal("MSA/OMU mode requires at least one OMU counter");
    if ((mem.l1Sets & (mem.l1Sets - 1)) != 0)
        fatal("l1Sets must be a power of two");
    if ((mem.llcSliceSets & (mem.llcSliceSets - 1)) != 0)
        fatal("llcSliceSets must be a power of two");
    auto prob_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
    if (!prob_ok(resil.dropProb) || !prob_ok(resil.dupProb) ||
        !prob_ok(resil.delayProb))
        fatal("fault probabilities must lie in [0, 1]");
    if (resil.dropProb + resil.dupProb + resil.delayProb > 1.0)
        fatal("fault probabilities must sum to at most 1");
    if (resil.dropProb > 0.0 && resil.timeoutTicks == 0)
        fatal("dropProb > 0 requires timeoutTicks > 0, or dropped "
              "requests would hang their issuing thread forever");
    if (resil.offlineTile >= static_cast<int>(numCores))
        fatal("offlineTile (%d) out of range for %u cores",
              resil.offlineTile, numCores);
    if (resil.offlineTile >= 0 && msa.mode != AccelMode::MsaOmu &&
        msa.mode != AccelMode::MsaInfinite)
        fatal("offlineTile requires an MSA mode (there is no slice to "
              "take offline under %s)", accelName().c_str());
    if (resil.offlineTile >= 0 && !msa.omuEnabled)
        fatal("offlineTile requires the OMU: graceful shedding moves "
              "waiters to software, which needs activity accounting");
    for (const LinkKill &lk : resil.linkKills)
        if (lk.a >= numCores || lk.b >= numCores)
            fatal("linkKill %u-%u out of range for %u tiles", lk.a, lk.b,
                  numCores);
    for (const RouterKill &rk : resil.routerKills)
        if (rk.router >= numCores)
            fatal("routerKill %u out of range for %u tiles", rk.router,
                  numCores);
    for (const CoreKill &ck : resil.coreKills)
        if (ck.core >= numCores)
            fatal("coreKill %u out of range for %u cores", ck.core,
                  numCores);
    if (resil.coreFaultsEnabled() && resil.leaseTicks == 0 &&
        msa.mode != AccelMode::None)
        fatal("coreKills under an MSA mode require leaseTicks > 0, or "
              "a lock held by the corpse is orphaned forever");
    if (resil.failoverBuddy >= static_cast<int>(numCores))
        fatal("failoverBuddy (%d) out of range for %u cores",
              resil.failoverBuddy, numCores);
    if (resil.failoverBuddy >= 0 && resil.failoverBuddy == resil.offlineTile)
        fatal("failoverBuddy must differ from the tile going offline");
}

std::string
SystemConfig::accelName() const
{
    switch (msa.mode) {
      case AccelMode::None:
        return "MSA-0";
      case AccelMode::MsaOmu:
        return "MSA/OMU-" + std::to_string(msa.msaEntries);
      case AccelMode::MsaInfinite:
        return "MSA-inf";
      case AccelMode::Ideal:
        return "Ideal";
    }
    return "?";
}

SystemConfig
makeConfig(unsigned cores, AccelMode mode, unsigned msa_entries)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.msa.mode = mode;
    cfg.msa.msaEntries = msa_entries;
    cfg.validate();
    return cfg;
}

} // namespace misar
