/**
 * @file
 * Functional backing store and atomic-operation semantics.
 *
 * Timing is modeled by the coherence protocol; data lives here, in a
 * single global word-addressed store. Operations are applied at the
 * point a transaction completes, which the blocking directory
 * serializes per block, so values are always coherent.
 */

#ifndef MISAR_MEM_FUNCTIONAL_MEM_HH
#define MISAR_MEM_FUNCTIONAL_MEM_HH

#include <cstdint>
#include <unordered_map>

#include "sim/types.hh"

namespace misar {
namespace mem {

/** Read-modify-write operations supported by the cores. */
enum class AtomicOp
{
    TestAndSet,  ///< old = M[a]; M[a] = 1; return old
    Swap,        ///< old = M[a]; M[a] = operand; return old
    FetchAdd,    ///< old = M[a]; M[a] = old + operand; return old
    CompareSwap, ///< old = M[a]; if (old == operand) M[a] = operand2
};

/** Global functional memory, 8-byte word granularity, zero-filled. */
class FunctionalMem
{
  public:
    std::uint64_t
    read(Addr a) const
    {
        auto it = words.find(wordAlign(a));
        return it == words.end() ? 0 : it->second;
    }

    void write(Addr a, std::uint64_t v) { words[wordAlign(a)] = v; }

    /** Apply @p op atomically; @return the old value. */
    std::uint64_t
    atomic(Addr a, AtomicOp op, std::uint64_t operand,
           std::uint64_t operand2 = 0)
    {
        std::uint64_t &w = words[wordAlign(a)];
        std::uint64_t old = w;
        switch (op) {
          case AtomicOp::TestAndSet:
            w = 1;
            break;
          case AtomicOp::Swap:
            w = operand;
            break;
          case AtomicOp::FetchAdd:
            w = old + operand;
            break;
          case AtomicOp::CompareSwap:
            if (old == operand)
                w = operand2;
            break;
        }
        return old;
    }

  private:
    static Addr wordAlign(Addr a) { return a & ~static_cast<Addr>(7); }

    std::unordered_map<Addr, std::uint64_t> words;
};

} // namespace mem
} // namespace misar

#endif // MISAR_MEM_FUNCTIONAL_MEM_HH
