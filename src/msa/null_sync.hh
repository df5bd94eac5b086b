/**
 * @file
 * MSA-0: the trivial implementation of the synchronization ISA.
 *
 * Every instruction returns FAIL locally, with no message to the
 * home node (paper §6: "trivially implements our instructions by
 * always returning FAIL"). A processor without MSA/OMU hardware can
 * ship this and stay compatible with hardware-capable libraries.
 */

#ifndef MISAR_MSA_NULL_SYNC_HH
#define MISAR_MSA_NULL_SYNC_HH

#include "cpu/core.hh"
#include "sim/stats.hh"

namespace misar {
namespace msa {

/** Always-FAIL SyncUnit (MSA-0). */
class NullSyncUnit : public cpu::SyncUnit
{
  public:
    explicit NullSyncUnit(StatRegistry &stats) : swOps(stats, "sync.swOps") {}

    void
    execute(CoreId, const cpu::Op &op, Cb cb) override
    {
        if (op.instr != cpu::SyncInstr::Finish)
            swOps.inc();
        cb(cpu::SyncResult::Fail);
    }

  private:
    StatHandle swOps;
};

} // namespace msa
} // namespace misar

#endif // MISAR_MSA_NULL_SYNC_HH
