/**
 * @file
 * Run-ahead prefetcher micro-service (helper.prefetch.*): a helper
 * thread in a borrowed idle SMT context slices the main thread's
 * upcoming load stream and warms the shared L1 data cache through the
 * memory hierarchy, the two-threads-coupled-through-a-shared-cache
 * design of the speculative-precomputation literature.
 *
 * Two slicers feed a bounded probe queue:
 *
 *  - a PC-indexed stride table: a load whose address advances by a
 *    stable stride enqueues the next strided addresses;
 *  - a content-directed pointer chaser: an 8-byte-aligned load whose
 *    loaded value translates to a mapped address is treated as a
 *    linked-list node, and the chain is followed up to
 *    helper.prefetchDistance hops (the deltablue chase pattern).
 *
 * Probes issue in the core's schedule stage with *leftover* load/store
 * ports only (like the hardware page walker), up to
 * helper.prefetchDegree per cycle. Effectiveness is reported as
 * coverage (prefetched share of would-be demand misses), accuracy
 * (useful share of issued probes) and timeliness (share of useful
 * prefetches fully arrived before the demand access).
 */

#ifndef ZMT_HELPERS_PREFETCH_HH
#define ZMT_HELPERS_PREFETCH_HH

#include <deque>
#include <vector>

#include "config/params.hh"
#include "kernel/pagetable.hh"
#include "mem/hierarchy.hh"
#include "stats/stats.hh"

namespace zmt
{

class PrefetchHelper : public stats::StatGroup
{
  public:
    PrefetchHelper(const HelperParams &params, MemHierarchy &hier,
                   stats::StatGroup *parent);

    /**
     * Observe an application load at dispatch (program order): train
     * the stride table and chase pointers from the loaded cell,
     * enqueueing probe candidates.
     */
    void train(Addr pc, Addr va, const AddressSpace &space);

    /** Classify a demand load about to access the hierarchy. */
    void onDemandLoad(Addr pa, Cycle now);

    /** Issue queued probes with @p ports_free leftover ports.
     *  @return ports consumed (bounded by helper.prefetchDegree). */
    unsigned issueProbes(Cycle now, unsigned ports_free);

    // --- Statistics (core.helper.prefetch.*) -------------------------
    stats::Scalar trained;      //!< training loads observed
    stats::Scalar probes;       //!< probes issued into the hierarchy
    stats::Scalar redundant;    //!< candidates dropped: already resident
    stats::Scalar dropped;      //!< candidates dropped: queue full
    stats::Scalar demandLoads;  //!< demand loads classified
    stats::Scalar usefulReady;  //!< demand hits on arrived prefetches
    stats::Scalar usefulLate;   //!< demand hits on in-flight prefetches
    stats::Scalar demandMisses; //!< demand loads that still missed L1d
    stats::Formula coverage;    //!< useful / (useful + demandMisses)
    stats::Formula accuracy;    //!< useful / probes
    stats::Formula timeliness;  //!< usefulReady / useful

  private:
    struct StrideEntry
    {
        Addr pc = 0;
        Addr lastVa = 0;
        int64_t stride = 0;
        uint8_t confidence = 0;
    };

    /** Translate and enqueue a candidate VA (drops unmapped/resident). */
    void enqueue(Addr va, const AddressSpace &space);

    const HelperParams &params;
    MemHierarchy &hier;
    std::vector<StrideEntry> table;
    std::deque<Addr> queue; //!< pending probe PAs
};

} // namespace zmt

#endif // ZMT_HELPERS_PREFETCH_HH
