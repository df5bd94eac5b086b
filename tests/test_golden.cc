/**
 * @file
 * Cross-commit golden digests.
 *
 * The determinism suite compares two runs of the same build, so it
 * cannot notice a change that is deterministic but different — a
 * switch allocator that grants the same flits in another order, say.
 * These tests fold whole observable behaviours into FNV-1a digests
 * and compare them against constants recorded from a reference
 * build. A deliberate behaviour change must re-record them and say
 * why; a performance change must leave them alone.
 *
 *  - NocTraceDigest: seeded ctrl and data packets on vnets 0 and 1,
 *    plus a hotspot destination, through an 8x8 mesh with two-flit
 *    input buffers (heavy wormhole and credit contention). Every
 *    delivery's (destination, tag, tick), in delivery order.
 *  - FaultedRegistryDigest: the full StatRegistry dump of 16-core
 *    fft on msa-omu2-nocfaults, seed 1. The run drops flits,
 *    corrupts packets and reconfigures the routing tables, so it
 *    drives the router's discard and corrupted-worm paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "noc/mesh.hh"
#include "orch/job.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "workload/runner.hh"

namespace misar {
namespace {

/** @name Recorded digests; re-record only with a stated reason. @{ */
constexpr std::uint64_t nocTraceDigest = 0x0ab5cf903513d8bcULL;
constexpr std::uint64_t faultedRegistryDigest = 0x66e7b55d6da2d48cULL;
/** @} */

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

void
fnvByte(std::uint64_t &h, unsigned char b)
{
    h ^= b;
    h *= fnvPrime;
}

/** Fold @p v into @p h as eight little-endian bytes. */
void
fnvWord(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        fnvByte(h, static_cast<unsigned char>(v >> (8 * i)));
}

std::uint64_t
fnvString(const std::string &s)
{
    std::uint64_t h = fnvBasis;
    for (char c : s)
        fnvByte(h, static_cast<unsigned char>(c));
    return h;
}

/** Test payload carrying an identifying tag. */
class TagPacket : public noc::Packet
{
  public:
    TagPacket(CoreId src, CoreId dst, unsigned size, std::uint64_t tag)
        : Packet(src, dst, size), tag(tag)
    {}
    std::uint64_t tag;
};

TEST(Golden, NocTraceDigest)
{
    constexpr unsigned dim = 8;
    constexpr unsigned tiles = dim * dim;
    constexpr unsigned packets = 4000;
    constexpr CoreId hotspot = 27;

    EventQueue eq;
    NocConfig cfg;
    cfg.bufferDepth = 2;
    StatRegistry stats;
    noc::Mesh mesh(eq, cfg, dim, stats);

    std::uint64_t h = fnvBasis;
    unsigned delivered = 0;
    for (CoreId t = 0; t < tiles; ++t) {
        mesh.setSink(t, [&, t](std::shared_ptr<noc::Packet> p) {
            fnvWord(h, t);
            fnvWord(h, static_cast<const TagPacket &>(*p).tag);
            fnvWord(h, eq.now());
            ++delivered;
        });
    }

    // Injection times, endpoints, sizes and vnets all come from one
    // seeded stream, drawn up front so the schedule is fixed.
    Rng rng(0x601de7ULL);
    for (std::uint64_t tag = 0; tag < packets; ++tag) {
        const Tick at = rng.range(3000);
        const CoreId src = static_cast<CoreId>(rng.range(tiles));
        CoreId dst = rng.range(4) == 0
                         ? hotspot
                         : static_cast<CoreId>(rng.range(tiles));
        if (dst == src)
            dst = (dst + 1) % tiles;
        const unsigned size =
            rng.range(2) ? noc::dataBytes : noc::ctrlBytes;
        const unsigned vnet = static_cast<unsigned>(rng.range(2));
        eq.schedule(at, [&mesh, src, dst, size, vnet, tag] {
            auto p = std::make_shared<TagPacket>(src, dst, size, tag);
            p->vnet = vnet;
            mesh.send(std::move(p));
        });
    }
    ASSERT_TRUE(eq.run());
    ASSERT_EQ(delivered, packets);
    EXPECT_EQ(h, nocTraceDigest) << std::hex << "digest 0x" << h;
}

TEST(Golden, FaultedRegistryDigest)
{
    orch::JobSpec job;
    job.preset.config = "msa-omu2-nocfaults";
    job.app = "fft";
    job.cores = 16;
    job.seed = 1;
    const orch::JobRun run =
        orch::resolveJob(job, orch::CampaignSpec::ServerSweep{});

    std::unique_ptr<sys::System> system;
    workload::RunOptions opts;
    opts.system = &system;
    const workload::RunResult r = workload::runAppWithConfig(
        run.app, run.cfg, run.flavor, job.seed, job.preset.config, opts);
    ASSERT_TRUE(r.finished);

    const StatRegistry &stats = system->stats();
    // The run must keep exercising the fault paths it pins.
    EXPECT_EQ(stats.counterValue("noc.flitsDropped"), 16u);
    EXPECT_EQ(stats.counterValue("noc.pktsCorrupted"), 3u);
    EXPECT_EQ(stats.counterValue("noc.reconfigs"), 1u);

    std::ostringstream os;
    stats.dump(os);
    const std::uint64_t h = fnvString(os.str());
    EXPECT_EQ(h, faultedRegistryDigest) << std::hex << "digest 0x" << h;
}

} // namespace
} // namespace misar
