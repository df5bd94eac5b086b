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

#include <vector>

#include "cpu/core.hh"
#include "sim/stats.hh"
#include "sim/tile_runtime.hh"

namespace misar {
namespace msa {

/** Always-FAIL SyncUnit (MSA-0). */
class NullSyncUnit : public cpu::SyncUnit
{
  public:
    /** @p rt (optional) routes counts to the calling tile's shard;
     *  @p smtWays maps hardware thread ids onto tiles. */
    explicit NullSyncUnit(StatRegistry &stats,
                          const TileRuntime *rt = nullptr,
                          unsigned smtWays = 1)
        : smtWays(smtWays ? smtWays : 1)
    {
        if (rt && !rt->shards.empty()) {
            for (StatRegistry *shard : rt->shards)
                swOps.emplace_back(*shard, "sync.swOps");
        } else {
            swOps.emplace_back(stats, "sync.swOps");
        }
    }

    void
    execute(CoreId core, const cpu::Op &op, Cb cb) override
    {
        if (op.instr != cpu::SyncInstr::Finish)
            swOps[swOps.size() == 1 ? 0 : core / smtWays].inc();
        cb(cpu::SyncResult::Fail);
    }

  private:
    /** sync.swOps of each tile's shard, or of the one shared
     *  registry. */
    std::vector<StatHandle> swOps;
    const unsigned smtWays;
};

} // namespace msa
} // namespace misar

#endif // MISAR_MSA_NULL_SYNC_HH
