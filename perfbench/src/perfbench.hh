/**
 * @file
 * Shared declarations of the repository benchmark program: the span
 * recorder used by the traced run, the workload job runners, and the
 * component probes. Everything here calls only the public zmt API.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Metric name -> value; units live in BENCHMARK.json. */
using Metrics = std::map<std::string, double>;

/**
 * In-memory span recorder for the traced run. A span is one public
 * call the benchmark makes (name, start, end, parent, cell id); spans
 * are kept in memory and written out once, at exit. When disabled,
 * open() returns -1 and nothing is recorded, so the timed runs pay
 * only a branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled), origin(Clock::now()) {}

    /** Open a span; @p parent < 0 means the calling thread's innermost
     *  open span. Returns the span id (or -1 when disabled). */
    int open(const char *name, int cell, int parent = -1);
    void close(int id);

    /** Summed self time (duration minus the union of its children's
     *  intervals) per span name, in seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** Summed duration per span name, and span count per name. */
    std::map<std::string, double> totalSeconds() const;
    std::map<std::string, uint64_t> counts() const;

    /** Longest single span of @p name, in seconds (0 if none). */
    double longest(const std::string &name) const;

    /** (cell id, duration in seconds) of every span named @p name. */
    std::vector<std::pair<int, double>> spansOf(const std::string &name) const;

    /** Drop every recorded span (between repetitions). */
    void clear();

    /** Write the spans as a Chrome trace-event JSON file. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        int cell;
        int parent;
        double start;
        double end;
        unsigned tid;
    };

    bool on;
    Clock::time_point origin;
    mutable std::mutex mutex; //!< guards spans
    std::vector<Span> spans;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, int cell, int parent = -1)
        : t(tracer), id(tracer.open(name, cell, parent))
    {}
    ~Scope() { t.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int spanId() const { return id; }

  private:
    Tracer &t;
    int id;
};

/** What a workload run needs to know. */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 4; //!< sweep workers: min(4, nproc)
    std::string outDir = "."; //!< checkpoints and span output
};

/** Outcome of one workload run (all repetitions and checks). */
struct Report
{
    Metrics endToEnd;
    Metrics perLayer;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; //!< one line per failed check
    std::vector<std::string> notes;    //!< human-readable report lines
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload end to end; fills @p report. */
void runWorkload(const Options &opts, Tracer &tracer, Report &report);

/** The workload's preset benchmarks with the benchmark seed folded in
 *  (the only way the seed reaches the simulator). */
std::vector<zmt::WorkloadParams>
seededWorkloads(const std::vector<std::string> &names, uint64_t seed);

/**
 * Component probes: replay a stream derived from @p seed and the
 * workload's benchmarks through Tlb::lookup, Cache::access,
 * BranchPredictor::predict/snapshot, DecodeCache::lookup,
 * PhysMem::read and AddressSpace::translate, warmed up before timing.
 * Adds the *_ns metrics and wload.build_ms to @p out.
 */
void runComponentProbes(const std::vector<zmt::WorkloadParams> &wls,
                        uint64_t seed, Metrics &out);

/**
 * Fast-forward prefix check: FuncMachine::runFast and step() over the
 * same prefix of every workload must reach the same architectural
 * state and store hash. Adds ffwd.mips / ffwd.step_mips (when @p out
 * is non-null) and appends any mismatch to @p report.
 */
void runFfwdPrefixCheck(const std::vector<zmt::WorkloadParams> &wls,
                        Tracer &tracer, Metrics *out, Report &report);

/** FNV-1a style mixing for result digests. */
inline uint64_t
mixDigest(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
