/**
 * @file
 * Overflow Management Unit (paper §3.2).
 *
 * A small set of per-tile counters, indexed (without tags) by the
 * synchronization address. A non-zero counter means the address has
 * software-active synchronization (waiting or lock-owning threads),
 * so the MSA must not allocate an entry for it. Aliasing between
 * addresses can only steer an operation to software unnecessarily —
 * never break correctness.
 */

#ifndef MISAR_MSA_OMU_HH
#define MISAR_MSA_OMU_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace misar {
namespace msa {

/** The per-tile overflow management unit. */
class Omu
{
  public:
    /**
     * Counter ceiling: a counter reaching this value saturates
     * stickily (its addresses are treated as software-active forever)
     * because the true population can no longer be reconstructed.
     * Safe by the OMU's one-sided contract: aliasing/saturation may
     * only steer operations toward software, never toward hardware.
     */
    static constexpr std::uint32_t saturatedValue = 0xffffffffu;

    Omu(unsigned num_counters, StatRegistry &stats,
        const std::string &stat_prefix);

    /** True if the address has active software synchronization. */
    bool
    active(Addr a) const
    {
        return counters[index(a)] > 0;
    }

    /** A synchronization operation on @p a fell back to software. */
    void increment(Addr a, std::uint32_t n = 1);

    /** A software synchronization operation on @p a completed. */
    void decrement(Addr a, std::uint32_t n = 1);

    std::uint32_t
    count(Addr a) const
    {
        return counters[index(a)];
    }

    unsigned numCounters() const
    {
        return static_cast<unsigned>(counters.size());
    }

    /** Raw counter value by index (invariant checker / tests). */
    std::uint32_t countAt(unsigned i) const { return counters[i]; }

    /** Number of non-zero counters (resource-monitor episodes). */
    unsigned
    activeCounters() const
    {
        unsigned n = 0;
        for (std::uint32_t c : counters)
            n += c > 0;
        return n;
    }

    /**
     * Slice failover: merge @p n software episodes into slot @p i of
     * the buddy's OMU (slot-level, since both slices hash addresses
     * identically). Saturates stickily like increment().
     */
    void
    addAt(unsigned i, std::uint32_t n)
    {
        std::uint32_t &c = counters[i];
        if (c >= saturatedValue - n)
            c = saturatedValue;
        else
            c += n;
    }

    /** Slice failover: zero slot @p i after its transfer. */
    void clearAt(unsigned i) { counters[i] = 0; }

  private:
    unsigned
    index(Addr a) const
    {
        // Untagged index by sync-address hash (word granularity).
        std::uint64_t h = a >> 3;
        h ^= h >> 17;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<unsigned>(h % counters.size());
    }

    std::vector<std::uint32_t> counters;
    std::string statPrefix;
    StatHandle saturations;
    StatHandle increments;
    StatHandle decrements;
};

} // namespace msa
} // namespace misar

#endif // MISAR_MSA_OMU_HH
