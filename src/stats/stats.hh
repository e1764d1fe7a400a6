/**
 * @file
 * A small statistics package in the spirit of gem5's stats framework.
 *
 * Stats are registered with a StatGroup at construction time; the group
 * can dump all its stats as aligned text or CSV. Supported kinds:
 *
 *  - Scalar:       a named counter (also usable as a gauge)
 *  - Average:      running mean of samples
 *  - Distribution: bucketed histogram with min/max/mean
 *  - Formula:      lazily evaluated expression over other stats
 */

#ifndef ZMT_STATS_STATS_HH
#define ZMT_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace zmt::stats
{

class StatGroup;

/** One (name, value) output row; text and CSV dumps both format these. */
using Row = std::pair<std::string, double>;

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /**
     * Append this stat's rows, names prefixed by @p prefix. The one
     * emitter: the text dump prints these rows (the description on the
     * first), CSV and collect() copy them.
     */
    virtual void appendRows(std::vector<Row> &rows,
                            const std::string &prefix) const = 0;

    /** Reset to the freshly constructed state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** Simple counter / gauge. */
class Scalar : public StatBase
{
  public:
    Scalar(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    Scalar &operator++() { _value += 1.0; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void appendRows(std::vector<Row> &rows,
                    const std::string &prefix) const override;
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** Running mean of samples. */
class Average : public StatBase
{
  public:
    Average(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    void
    sample(double v)
    {
        sum += v;
        ++count;
    }

    double mean() const { return count ? sum / double(count) : 0.0; }
    uint64_t samples() const { return count; }

    void appendRows(std::vector<Row> &rows,
                    const std::string &prefix) const override;
    void reset() override { sum = 0.0; count = 0; }

  private:
    double sum = 0.0;
    uint64_t count = 0;
};

/** Bucketed histogram over [min, max) with fixed-width buckets. */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup *parent, std::string name, std::string desc,
                 double min, double max, unsigned num_buckets);

    void sample(double v);

    uint64_t samples() const { return count; }
    double mean() const { return count ? sum / double(count) : 0.0; }
    /** Smallest/largest sampled value; NaN before the first sample
     *  (0.0 would be indistinguishable from a real extremum). */
    double minSample() const { return minSeen; }
    double maxSample() const { return maxSeen; }
    uint64_t bucketCount(unsigned i) const { return buckets.at(i); }
    uint64_t underflows() const { return underflow; }
    uint64_t overflows() const { return overflow; }

    void appendRows(std::vector<Row> &rows,
                    const std::string &prefix) const override;
    void reset() override;

  private:
    double lo;
    double hi;
    double bucketWidth;
    std::vector<uint64_t> buckets;
    uint64_t underflow = 0;
    uint64_t overflow = 0;
    uint64_t count = 0;
    double sum = 0.0;
    double minSeen = std::numeric_limits<double>::quiet_NaN();
    double maxSeen = std::numeric_limits<double>::quiet_NaN();
};

/** Lazily evaluated expression over other stats. */
class Formula : public StatBase
{
  public:
    Formula(StatGroup *parent, std::string name, std::string desc,
            std::function<double()> fn)
        : StatBase(parent, std::move(name), std::move(desc)),
          func(std::move(fn))
    {}

    double value() const { return func ? func() : 0.0; }

    void appendRows(std::vector<Row> &rows,
                    const std::string &prefix) const override;
    void reset() override {}

  private:
    std::function<double()> func;
};

/**
 * A named collection of stats; groups can nest. Non-owning: stats and
 * child groups must outlive the parent (the usual member-of-the-same-
 * object pattern guarantees this).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /** Called by StatBase's constructor. */
    void addStat(StatBase *stat);
    void addChild(StatGroup *child);
    void removeChild(StatGroup *child);

    /** Dump all stats (recursively) as aligned "name value # desc". */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Dump as "name,value" CSV lines. */
    void dumpCsv(std::ostream &os, const std::string &prefix = "") const;

    /** Collect flat (name,value) rows. */
    void collect(std::vector<Row> &rows,
                 const std::string &prefix = "") const;

    /** Find a stat by dotted path relative to this group, or nullptr. */
    const StatBase *find(const std::string &path) const;

    /** Reset all stats recursively. */
    void resetAll();

  private:
    std::string _name;
    StatGroup *_parent;
    std::vector<StatBase *> stats;
    std::vector<StatGroup *> children;
};

} // namespace zmt::stats

#endif // ZMT_STATS_STATS_HH
