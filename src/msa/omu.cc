#include "msa/omu.hh"

#include "sim/logging.hh"

namespace misar {
namespace msa {

Omu::Omu(unsigned num_counters, StatRegistry &stats,
         const std::string &stat_prefix)
    : counters(num_counters, 0), statPrefix(stat_prefix),
      saturations(stats, statPrefix, "omuSaturations"),
      increments(stats, statPrefix, "omuIncrements"),
      decrements(stats, statPrefix, "omuDecrements")
{
    if (num_counters == 0)
        fatal("OMU requires at least one counter");
}

void
Omu::increment(Addr a, std::uint32_t n)
{
    std::uint32_t &c = counters[index(a)];
    if (c >= saturatedValue - n) {
        // Sticky saturation: the true software-active population can
        // no longer be tracked, so the bucket pins at the ceiling and
        // its addresses stay in software forever (safe: the OMU may
        // only ever steer operations *toward* software).
        if (c != saturatedValue)
            saturations.inc();
        c = saturatedValue;
    } else {
        c += n;
    }
    increments.inc(n);
}

void
Omu::decrement(Addr a, std::uint32_t n)
{
    std::uint32_t &c = counters[index(a)];
    if (c == saturatedValue) {
        // The counter overflowed in the past; decrements cannot be
        // applied meaningfully, so the bucket stays saturated.
        decrements.inc(n);
        return;
    }
    if (c < n)
        panic("OMU counter underflow for addr %llx (have %u, dec %u)",
              static_cast<unsigned long long>(a), c, n);
    c -= n;
    decrements.inc(n);
}

} // namespace msa
} // namespace misar
