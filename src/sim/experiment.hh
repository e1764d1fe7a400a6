/**
 * @file
 * Experiment harness implementing the paper's metrics (Section 3):
 *
 *  - "penalty cycles per TLB miss": run a configuration and the same
 *    machine with a perfect TLB; the cycle difference divided by the
 *    number of completed TLB miss handlings.
 *  - "relative TLB execution percentage" (Figure 3): the fraction of
 *    execution time attributable to TLB miss handling.
 *  - speedup over the traditional mechanism (Table 4).
 *
 * A cell is one (SimParams, workloads) pair, and cellKey() is its one
 * identity. A cell's perfect-TLB baseline is the cell of
 * baselineParams(params) on the same workloads; baselines are memoized
 * by that cell's key, so sweeps that share a baseline don't re-run it.
 * The key serializes *every* simulation-relevant field, so cells that
 * differ in any way (memory latencies, cache geometry, predictor
 * shape, ...) can never alias to a stale baseline. The cache is
 * thread-safe: the sweep runner (sim/sweep.hh) calls measurePenalty
 * from worker threads, and concurrent requests for the same baseline
 * run it exactly once (later requesters block on the first run's
 * future).
 */

#ifndef ZMT_SIM_EXPERIMENT_HH
#define ZMT_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace zmt
{

/** Penalty measurement for one configuration on one workload set. */
struct PenaltyResult
{
    CoreResult mech;    //!< the configuration under test
    CoreResult perfect; //!< matching perfect-TLB baseline

    /**
     * Penalty cycles per TLB miss (paper Section 3), over the
     * post-warm-up measurement window.
     */
    double
    penaltyPerMiss() const
    {
        if (mech.measuredMisses == 0)
            return 0.0;
        double diff =
            double(mech.measuredCycles) - double(perfect.measuredCycles);
        return diff / double(mech.measuredMisses);
    }

    /** Fraction of execution time spent on TLB handling (Figure 3). */
    double
    tlbFraction() const
    {
        if (mech.measuredCycles == 0)
            return 0.0;
        double diff =
            double(mech.measuredCycles) - double(perfect.measuredCycles);
        return diff / double(mech.measuredCycles);
    }

    /** TLB misses per 1000 retired instructions. */
    double
    missesPerKilo() const
    {
        return mech.measuredInsts
                   ? 1000.0 * double(mech.measuredMisses) /
                         double(mech.measuredInsts)
                   : 0.0;
    }

    /** Speedup of this configuration over another (e.g. traditional). */
    double
    speedupOver(const CoreResult &other) const
    {
        return mech.measuredCycles
                   ? double(other.measuredCycles) /
                         double(mech.measuredCycles)
                   : 0.0;
    }
};

/**
 * The identity of the cell @p params on @p workloads: the canonical
 * key of the configuration and of each workload. Two cells with equal
 * keys simulate identically; the baseline memo, the bench grid and
 * sweepJobKey all key on it.
 */
std::string cellKey(const SimParams &params,
                    const std::vector<WorkloadParams> &workloads);

/**
 * The configuration of @p params' perfect-TLB baseline: mech perfect,
 * obs and ffwd.save cleared (a baseline writes no trace or checkpoint
 * file) and idleThreads 0 (only the handler-thread mechanisms read
 * it); every other field as given.
 */
SimParams baselineParams(const SimParams &params);

/**
 * Run @p params on @p workloads and pair it with the (memoized)
 * perfect-TLB baseline, runSimulation(baselineParams(params),
 * workloads). @p skipBaseline skips the baseline and leaves
 * PenaltyResult::perfect zeroed for studies that only need the
 * mechanism-under-test counters.
 */
PenaltyResult measurePenalty(const SimParams &params,
                             const std::vector<WorkloadParams> &workloads,
                             bool skipBaseline = false);

/** Drop all memoized baselines (tests). */
void clearBaselineCache();

/** Number of distinct memoized baselines (tests). */
size_t baselineCacheSize();

/** The Figure 7 multiprogrammed mixes, in the paper's order. */
const std::vector<std::vector<std::string>> &figure7Mixes();

} // namespace zmt

#endif // ZMT_SIM_EXPERIMENT_HH
