/**
 * @file
 * Lightweight statistics package.
 *
 * Components register named scalar counters and averages in a
 * StatRegistry; harnesses query and dump them after simulation.
 * Per-event counters go through a StatHandle / AverageHandle, which
 * looks its name up once and counts through a cached pointer after.
 */

#ifndef MISAR_SIM_STATS_HH
#define MISAR_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>

namespace misar {

/** A monotonically increasing scalar statistic. */
class StatCounter
{
  public:
    void inc(std::uint64_t n = 1) { _value += n; }
    void dec(std::uint64_t n = 1) { _value -= n; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running sample mean / min / max. */
class StatAverage
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        if (v < _min || _count == 1)
            _min = v;
        if (v > _max || _count == 1)
            _max = v;
    }

    double mean() const { return _count ? _sum / _count : 0.0; }
    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    /** Fold another average's samples in (exact for sum/count/min/max). */
    void
    merge(const StatAverage &o)
    {
        if (!o._count)
            return;
        if (!_count) {
            _min = o._min;
            _max = o._max;
        } else {
            if (o._min < _min)
                _min = o._min;
            if (o._max > _max)
                _max = o._max;
        }
        _sum += o._sum;
        _count += o._count;
    }

    void
    reset()
    {
        _sum = 0.0;
        _count = 0;
        _min = 0.0;
        _max = 0.0;
    }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Registry of named statistics.
 *
 * Names are hierarchical by convention ("tile3.l1.misses"). Accessors
 * create-on-first-use so components need no registration phase.
 */
class StatRegistry
{
  public:
    StatCounter &
    counter(const std::string &name)
    {
        ++_lookups;
        return counters[name];
    }

    StatAverage &
    average(const std::string &name)
    {
        ++_lookups;
        return averages[name];
    }

    /** Calls of counter() and average() so far (a name search each). */
    std::uint64_t lookups() const { return _lookups; }

    /** Value of counter @p name, or 0 if it was never touched. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Sum of all counters whose name matches "prefix*". */
    std::uint64_t sumCounters(const std::string &prefix) const;

    /**
     * Sum of all counters whose name ends in @p suffix (e.g.
     * ".msa.allocations" pools one stat across every tile).
     */
    std::uint64_t sumCountersSuffix(const std::string &suffix) const;

    /** Mean over all averages whose name matches "prefix*" (by sample). */
    double pooledMean(const std::string &prefix) const;

    /** @name Read-only visitors (sorted by name), for exporters. @{ */
    void forEachCounter(
        const std::function<void(const std::string &,
                                 const StatCounter &)> &fn) const;
    void forEachAverage(
        const std::function<void(const std::string &,
                                 const StatAverage &)> &fn) const;
    /** @} */

    /** Dump everything, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Accumulate every stat from @p o into this registry (counters
     * add, averages fold sample moments).
     * Used to collapse per-tile shards into the global registry after
     * a threaded run; the result is independent of merge order.
     */
    void mergeFrom(const StatRegistry &o);

    /**
     * Zero every stat. Entries are kept (none is ever erased), so a
     * bound handle keeps counting into the same entry afterwards.
     */
    void reset();

  private:
    std::map<std::string, StatCounter> counters;
    std::map<std::string, StatAverage> averages;
    std::uint64_t _lookups = 0;
};

/**
 * A stat of a registry, named by a prefix string and a literal
 * suffix, and looked up on its first use only.
 *
 * The prefix string, usually the owning component's statPrefix, is
 * held by pointer: it must stay at its address until the first use.
 * Construction reads neither name part and allocates nothing, and the
 * registry entry is created exactly when the stat is first counted,
 * as a counter(name) call at that point would create it, so dumps do
 * not change. Map entries never move and are never erased, so the
 * cached pointer stays valid for the registry's lifetime.
 */
template <typename Stat>
class BoundStat
{
  public:
    BoundStat(StatRegistry &reg, const std::string &prefix,
              const char *suffix)
        : reg(&reg), prefix(&prefix), suffix(suffix)
    {}

    /** Stat @p name (a string literal) of @p reg, without a prefix. */
    BoundStat(StatRegistry &reg, const char *name)
        : BoundStat(reg, noPrefix, name)
    {}

  protected:
    Stat &
    get()
    {
        if (!bound) [[unlikely]]
            bind();
        return *bound;
    }

  private:
    /** Look the stat up (first use only). */
    void bind();

    static inline const std::string noPrefix;

    StatRegistry *reg;
    const std::string *prefix;
    const char *suffix;
    Stat *bound = nullptr;
};

template <>
void BoundStat<StatCounter>::bind();
template <>
void BoundStat<StatAverage>::bind();

/** A counter bound on its first inc(). */
class StatHandle : public BoundStat<StatCounter>
{
  public:
    using BoundStat::BoundStat;
    void inc(std::uint64_t n = 1) { get().inc(n); }
};

/** An average bound on its first sample(). */
class AverageHandle : public BoundStat<StatAverage>
{
  public:
    using BoundStat::BoundStat;
    void sample(double v) { get().sample(v); }
};

} // namespace misar

#endif // MISAR_SIM_STATS_HH
