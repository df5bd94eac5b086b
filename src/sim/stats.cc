#include "sim/stats.hh"

#include <iomanip>

namespace misar {

std::uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

std::uint64_t
StatRegistry::sumCounters(const std::string &prefix) const
{
    std::uint64_t sum = 0;
    for (auto it = counters.lower_bound(prefix); it != counters.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        sum += it->second.value();
    }
    return sum;
}

std::uint64_t
StatRegistry::sumCountersSuffix(const std::string &suffix) const
{
    std::uint64_t sum = 0;
    for (const auto &[name, c] : counters) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += c.value();
    }
    return sum;
}

double
StatRegistry::pooledMean(const std::string &prefix) const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (auto it = averages.lower_bound(prefix); it != averages.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        sum += it->second.sum();
        n += it->second.count();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

void
StatRegistry::forEachCounter(
    const std::function<void(const std::string &, const StatCounter &)> &fn)
    const
{
    for (const auto &[name, c] : counters)
        fn(name, c);
}

void
StatRegistry::forEachAverage(
    const std::function<void(const std::string &, const StatAverage &)> &fn)
    const
{
    for (const auto &[name, a] : averages)
        fn(name, a);
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : counters)
        os << name << " " << c.value() << "\n";
    for (const auto &[name, a] : averages) {
        os << name << " mean=" << std::fixed << std::setprecision(2)
           << a.mean() << " count=" << a.count() << " min=" << a.min()
           << " max=" << a.max() << "\n";
    }
}

void
StatRegistry::mergeFrom(const StatRegistry &o)
{
    for (const auto &[name, c] : o.counters)
        counters[name].inc(c.value());
    for (const auto &[name, a] : o.averages)
        averages[name].merge(a);
}

template <>
void
BoundStat<StatCounter>::bind()
{
    bound = &reg->counter(*prefix + suffix);
}

template <>
void
BoundStat<StatAverage>::bind()
{
    bound = &reg->average(*prefix + suffix);
}

void
StatRegistry::reset()
{
    for (auto &[name, c] : counters)
        c.reset();
    for (auto &[name, a] : averages)
        a.reset();
}

} // namespace misar
