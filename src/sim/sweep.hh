/**
 * @file
 * Sweep cells and the thread pool that runs them.
 *
 * The paper's evaluation is a large grid — 8 workloads x 4 mechanisms
 * x pipeline/width/latency axes plus the multiprogrammed mixes — and
 * every cell is an independent deterministic simulation (its own
 * seeded Rng, its own StatGroup tree). A SweepJob names one cell;
 * CampaignRunner (sim/campaign.hh) runs a job list on a SweepRunner
 * pool and keeps results in submission order, so a parallel sweep's
 * output is byte-identical to a serial one. Perfect-TLB baselines are
 * memoized process-wide behind the thread-safe cache in
 * sim/experiment.cc, keyed by the canonical full serialization of
 * SimParams (see SimParams::canonicalKey), so concurrent jobs that
 * share a baseline run it exactly once.
 *
 * emitSweepCell writes one cell of the machine-readable results
 * document (results/bench_<name>.json): penalty, speedup inputs, miss
 * counts, cycles, wall-clock and the exact parameters — a perf
 * trajectory CI archives and diffs.
 */

#ifndef ZMT_SIM_SWEEP_HH
#define ZMT_SIM_SWEEP_HH

#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "common/decimal.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"

namespace zmt
{

/** One cell of a sweep: a configuration on a workload set. */
struct SweepJob
{
    SimParams params;
    std::vector<std::string> benchmarks; //!< named benchmarks, or
    std::vector<WorkloadParams> workloads; //!< explicit workloads
    std::string label;                   //!< e.g. "fig5/traditional/gcc"
    bool skipBaseline = false;           //!< no perfect-TLB companion run

    SweepJob() = default;
    SweepJob(SimParams p, std::vector<std::string> benches,
             std::string l)
        : params(std::move(p)), benchmarks(std::move(benches)),
          label(std::move(l))
    {}
    SweepJob(SimParams p, std::vector<WorkloadParams> wls, std::string l,
             bool skip_baseline = false)
        : params(std::move(p)), workloads(std::move(wls)),
          label(std::move(l)), skipBaseline(skip_baseline)
    {}
};

/** A job's measurement plus its host-side cost. */
struct SweepOutcome
{
    PenaltyResult result;
    double wallSeconds = 0.0; //!< host wall-clock for this cell
};

/**
 * Write / parse a SweepOutcome as the JSON object
 * {"wall_seconds", "mech", "perfect"}, whose CoreResult members are
 * exactly a results cell's. An isolated child's result and a journal
 * record carry it; the round trip is bit-exact, so a resumed
 * campaign's JSON is byte-identical to an uninterrupted run's.
 */
void writeSweepOutcome(std::ostream &os, const SweepOutcome &outcome);
bool parseSweepOutcome(const std::string &text, SweepOutcome *outcome);

/**
 * A pool of worker threads. Determinism contract for its callers: each
 * job's result depends only on its own (params, workloads), never on
 * scheduling, so any thread count gives the same results.
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = hardware_concurrency. */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned threads() const { return numThreads; }

    /**
     * Generic building block: invoke @p fn(i) for i in [0, count) on
     * the pool. Each index runs exactly once; no ordering guarantee
     * between indices, so @p fn must only touch per-index state.
     */
    void parallelFor(size_t count,
                     const std::function<void(size_t)> &fn) const;

  private:
    unsigned numThreads;
};

/**
 * Parse a "--jobs N" / "--jobs=N" flag out of argv (compacting argc),
 * returning @p fallback when absent. Shared by the bench binaries and
 * standalone tools so every sweep consumer spells parallelism the
 * same way.
 */
unsigned parseJobsFlag(int &argc, char **argv, unsigned fallback = 0);

/**
 * The value of numeric flag @p flag as a @p T: decimal digits only
 * (common/decimal.hh). A sign, a suffix, another base, an empty value
 * or a value @p T cannot hold is fatal, naming the flag, so a typo
 * never runs as some other number.
 */
template <typename T = uint64_t>
T
parseUnsigned(const char *flag, const char *value)
{
    std::optional<uint64_t> v =
        parseDecimal(value, std::numeric_limits<T>::max());
    fatal_if(!v, "bad %s value '%s'", flag, value);
    return T(*v);
}

/**
 * Emit one result cell, an element of the "cells" array of the
 * zmt-sweep-results-v1 document (see campaignResultsJson):
 *
 *   { "index", "label", "benchmarks", "penalty_per_miss",
 *     "tlb_fraction", "ipc", "misses_per_kinst",
 *     "mech": {status,cycles,user_insts,tlb_misses,emulations,
 *              measured_cycles,measured_insts,measured_misses,ipc,...},
 *     "perfect": {...} | null, "wall_seconds", "failure",
 *     "params": {dotted-name: value} }
 *
 * "mech" and "perfect" print CoreResult's field list, the one
 * writeSweepOutcome uses.
 *
 * "params" carries the exact configuration via SimParams::forEachParam,
 * so a cell of named benchmarks re-runs bit-identically as
 * `zmt_sim <params as key=value> <benchmarks>` (the CI debug leg checks
 * every fig5 cell); custom workloads are recorded by name only. Every
 * cell carries its submission "index" so shard/resume outputs merge
 * back into submission order (tools/sweep_merge), and a "failure"
 * member — @p failureJson is "null" for a clean run or a structured
 * object from the campaign layer for a cell whose isolated child
 * crashed or timed out. @p nullPerfect forces "perfect":null (used for
 * failed cells, where no baseline exists, in addition to the
 * skipBaseline case).
 */
void emitSweepCell(std::ostream &os, size_t index, const SweepJob &job,
                   const SweepOutcome &outcome,
                   const std::string &failureJson = "null",
                   bool nullPerfect = false);

} // namespace zmt

#endif // ZMT_SIM_SWEEP_HH
