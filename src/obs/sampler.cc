#include "obs/sampler.hh"

#include "sim/logging.hh"

namespace misar {
namespace obs {

StatSampler::StatSampler(EventQueue &eq, Tick interval)
    : eq(eq), _interval(interval)
{
    if (interval == 0)
        fatal("StatSampler requires a non-zero interval");
}

void
StatSampler::addProbe(std::string label, std::function<double()> fn)
{
    _labels.push_back(std::move(label));
    probes.push_back(std::move(fn));
}

void
StatSampler::addObserver(std::function<void(Tick)> fn)
{
    observers.push_back(std::move(fn));
}

void
StatSampler::sampleNow()
{
    if (_rows.size() >= maxRows) {
        ++_droppedRows;
        return;
    }
    Row r;
    r.tick = eq.now();
    r.values.reserve(probes.size());
    for (const auto &p : probes)
        r.values.push_back(p());
    _rows.push_back(std::move(r));
    for (const auto &o : observers)
        o(eq.now());
}

void
StatSampler::start()
{
    sampleNow();
    armed = true;
    eq.schedule(_interval, [this] { tick(); });
}

void
StatSampler::tick()
{
    armed = false;
    if (doneFn && doneFn())
        return;
    sampleNow();
    armed = true;
    eq.schedule(_interval, [this] { tick(); });
}

void
StatSampler::writeCsv(std::ostream &os) const
{
    os << "tick";
    for (const std::string &l : _labels) {
        // CSV-safe: labels are simple identifiers by convention, but
        // quote anything containing a comma just in case.
        if (l.find(',') != std::string::npos || l.find('"') != std::string::npos) {
            std::string q = l;
            std::string esc;
            for (char c : q) {
                if (c == '"')
                    esc += '"';
                esc += c;
            }
            os << ",\"" << esc << "\"";
        } else {
            os << "," << l;
        }
    }
    os << "\n";
    for (const Row &r : _rows) {
        os << r.tick;
        for (double v : r.values)
            os << "," << v;
        os << "\n";
    }
}

} // namespace obs
} // namespace misar
