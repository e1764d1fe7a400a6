#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "common/logging.hh"

namespace zmt::stats
{

namespace
{

void
printRow(std::ostream &os, const std::string &name, double value,
         const std::string &desc)
{
    os << std::left << std::setw(44) << name << " "
       << std::right << std::setw(16);
    // Print integers without a decimal point for readability.
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        os << static_cast<long long>(value);
    } else {
        os << std::fixed << std::setprecision(4) << value
           << std::defaultfloat;
    }
    if (!desc.empty())
        os << "  # " << desc;
    os << "\n";
}

} // anonymous namespace

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    panic_if(!parent, "stat '%s' constructed without a parent group",
             _name.c_str());
    parent->addStat(this);
}

void
Scalar::appendRows(std::vector<Row> &rows, const std::string &prefix) const
{
    rows.emplace_back(prefix + name(), _value);
}

void
Average::appendRows(std::vector<Row> &rows, const std::string &prefix) const
{
    rows.emplace_back(prefix + name() + "::mean", mean());
    rows.emplace_back(prefix + name() + "::samples", double(count));
}

Distribution::Distribution(StatGroup *parent, std::string name,
                           std::string desc, double min, double max,
                           unsigned num_buckets)
    : StatBase(parent, std::move(name), std::move(desc)),
      lo(min), hi(max),
      bucketWidth(num_buckets ? (max - min) / num_buckets : 0),
      buckets(num_buckets, 0)
{
    panic_if(num_buckets == 0, "Distribution with zero buckets");
    panic_if(max <= min, "Distribution with max <= min");
}

void
Distribution::sample(double v)
{
    if (count == 0) {
        minSeen = maxSeen = v;
    } else {
        minSeen = std::min(minSeen, v);
        maxSeen = std::max(maxSeen, v);
    }
    ++count;
    sum += v;

    if (v < lo) {
        ++underflow;
    } else if (v >= hi) {
        ++overflow;
    } else {
        auto idx = unsigned((v - lo) / bucketWidth);
        if (idx >= buckets.size())
            idx = unsigned(buckets.size()) - 1;
        ++buckets[idx];
    }
}

void
Distribution::appendRows(std::vector<Row> &rows,
                         const std::string &prefix) const
{
    // Empty buckets are omitted; the range counters always print.
    const std::string base = prefix + name();
    rows.emplace_back(base + "::samples", double(count));
    rows.emplace_back(base + "::mean", mean());
    rows.emplace_back(base + "::min", minSeen);
    rows.emplace_back(base + "::max", maxSeen);
    rows.emplace_back(base + "::underflows", double(underflow));
    for (unsigned i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        double b_lo = lo + i * bucketWidth;
        rows.emplace_back(base + "::[" + std::to_string(long(b_lo)) + "]",
                          double(buckets[i]));
    }
    rows.emplace_back(base + "::overflows", double(overflow));
}

void
Distribution::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    underflow = overflow = count = 0;
    sum = 0.0;
    minSeen = maxSeen = std::numeric_limits<double>::quiet_NaN();
}

void
Formula::appendRows(std::vector<Row> &rows, const std::string &prefix) const
{
    rows.emplace_back(prefix + name(), value());
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : _name(std::move(name)), _parent(parent)
{
    if (_parent)
        _parent->addChild(this);
}

StatGroup::~StatGroup()
{
    if (_parent)
        _parent->removeChild(this);
}

void
StatGroup::addStat(StatBase *stat)
{
    stats.push_back(stat);
}

void
StatGroup::addChild(StatGroup *child)
{
    children.push_back(child);
}

void
StatGroup::removeChild(StatGroup *child)
{
    children.erase(std::remove(children.begin(), children.end(), child),
                   children.end());
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string my_prefix =
        _name.empty() ? prefix : prefix + _name + ".";
    std::vector<Row> rows;
    for (const auto *stat : stats) {
        rows.clear();
        stat->appendRows(rows, my_prefix);
        for (size_t i = 0; i < rows.size(); ++i)
            printRow(os, rows[i].first, rows[i].second,
                     i == 0 ? stat->desc() : std::string());
    }
    for (const auto *child : children)
        child->dump(os, my_prefix);
}

void
StatGroup::dumpCsv(std::ostream &os, const std::string &prefix) const
{
    std::vector<Row> rows;
    collect(rows, prefix);
    for (const auto &[name, value] : rows)
        os << name << "," << value << "\n";
}

void
StatGroup::collect(std::vector<Row> &rows, const std::string &prefix) const
{
    const std::string my_prefix =
        _name.empty() ? prefix : prefix + _name + ".";
    for (const auto *stat : stats)
        stat->appendRows(rows, my_prefix);
    for (const auto *child : children)
        child->collect(rows, my_prefix);
}

const StatBase *
StatGroup::find(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto *stat : stats)
            if (stat->name() == path)
                return stat;
        return nullptr;
    }
    const std::string head = path.substr(0, dot);
    const std::string rest = path.substr(dot + 1);
    for (const auto *child : children)
        if (child->name() == head)
            return child->find(rest);
    return nullptr;
}

void
StatGroup::resetAll()
{
    for (auto *stat : stats)
        stat->reset();
    for (auto *child : children)
        child->resetAll();
}

} // namespace zmt::stats
