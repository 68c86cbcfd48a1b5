#include "base/stats.h"

#include <cmath>
#include <memory>

#include "base/json.h"

namespace beethoven
{

void
StatHistogram::configure(std::size_t nbuckets, double bucket_width)
{
    _buckets.assign(nbuckets + 1, 0); // +1 overflow bucket
    _bucketWidth = bucket_width;
}

void
StatHistogram::sample(double v)
{
    if (_buckets.empty())
        configure(16, 1.0);
    if (_samples == 0) {
        _min = v;
        _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    ++_samples;
    _sum += v;
    // Negative samples land in bucket 0: the double->size_t cast below
    // is UB for negative values, and min()/mean() already carry the
    // signed information.
    std::size_t idx = v < 0.0
        ? 0
        : static_cast<std::size_t>(v / _bucketWidth);
    if (idx >= _buckets.size())
        idx = _buckets.size() - 1;
    ++_buckets[idx];
}

double
StatHistogram::percentile(double p) const
{
    if (_samples == 0 || _buckets.empty())
        return 0.0;
    if (p > 100.0)
        p = 100.0;
    // Rank of the target sample, 1-based (ceiling, so p99 of two
    // samples is the second); p <= 0 degenerates to the first sample.
    std::size_t target = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(_samples)));
    if (target < 1)
        target = 1;
    if (target > _samples)
        target = _samples;
    std::size_t cumulative = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        cumulative += _buckets[i];
        if (cumulative >= target) {
            if (i + 1 == _buckets.size())
                return _max; // overflow bucket has no upper edge
            const double edge = static_cast<double>(i + 1) * _bucketWidth;
            return edge < _max ? edge : _max;
        }
    }
    return _max;
}

StatGroup &
StatGroup::group(const std::string &name)
{
    auto it = _children.find(name);
    if (it == _children.end())
        it = _children.emplace(name, std::make_unique<StatGroup>(name)).first;
    return *it->second;
}

StatGroup &
StatGroup::groupByPath(const std::string &dotted_path)
{
    const auto dot = dotted_path.find('.');
    if (dot == std::string::npos)
        return group(dotted_path);
    return group(dotted_path.substr(0, dot))
        .groupByPath(dotted_path.substr(dot + 1));
}

StatScalar &
StatGroup::scalar(const std::string &name)
{
    return _scalars[name];
}

StatHistogram &
StatGroup::histogram(const std::string &name)
{
    return _histograms[name];
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string base = prefix.empty() ? _name : prefix + "." + _name;
    for (const auto &[name, s] : _scalars)
        os << base << "." << name << " = " << s.value() << "\n";
    for (const auto &[name, h] : _histograms) {
        os << base << "." << name << ".samples = " << h.samples() << "\n";
        os << base << "." << name << ".mean = " << h.mean() << "\n";
        os << base << "." << name << ".max = " << h.max() << "\n";
    }
    for (const auto &[name, child] : _children)
        child->dump(os, base);
}

const StatScalar *
StatGroup::findScalar(const std::string &dotted_path) const
{
    const auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        auto it = _scalars.find(dotted_path);
        return it == _scalars.end() ? nullptr : &it->second;
    }
    auto it = _children.find(dotted_path.substr(0, dot));
    if (it == _children.end())
        return nullptr;
    return it->second->findScalar(dotted_path.substr(dot + 1));
}

const StatHistogram *
StatGroup::findHistogram(const std::string &dotted_path) const
{
    const auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        auto it = _histograms.find(dotted_path);
        return it == _histograms.end() ? nullptr : &it->second;
    }
    auto it = _children.find(dotted_path.substr(0, dot));
    if (it == _children.end())
        return nullptr;
    return it->second->findHistogram(dotted_path.substr(dot + 1));
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    auto section = [&](const char *key) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << key << "\":{";
    };
    if (!_scalars.empty()) {
        section("scalars");
        bool f = true;
        for (const auto &[name, s] : _scalars) {
            if (!f)
                os << ",";
            f = false;
            os << jsonString(name) << ":" << s.value();
        }
        os << "}";
    }
    if (!_histograms.empty()) {
        section("histograms");
        bool f = true;
        for (const auto &[name, h] : _histograms) {
            if (!f)
                os << ",";
            f = false;
            os << jsonString(name) << ":{\"samples\":" << h.samples()
               << ",\"mean\":" << h.mean()
               << ",\"min\":" << h.min()
               << ",\"max\":" << h.max()
               << ",\"p50\":" << h.percentile(50.0)
               << ",\"p95\":" << h.percentile(95.0)
               << ",\"p99\":" << h.percentile(99.0)
               << ",\"bucketWidth\":" << h.bucketWidth()
               << ",\"buckets\":[";
            bool bf = true;
            for (u64 b : h.buckets()) {
                if (!bf)
                    os << ",";
                bf = false;
                os << b;
            }
            os << "]}";
        }
        os << "}";
    }
    if (!_children.empty()) {
        section("groups");
        bool f = true;
        for (const auto &[name, child] : _children) {
            if (!f)
                os << ",";
            f = false;
            os << jsonString(name) << ":";
            child->dumpJson(os);
        }
        os << "}";
    }
    os << "}";
}

} // namespace beethoven
