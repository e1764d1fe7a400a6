/**
 * @file
 * The hardware TLB-miss handler: a finite-state machine that walks the
 * (linear) page table (paper Section 5.1). It needs no instruction
 * fetch, but its PTE load goes through a regular load/store port and
 * the data-cache hierarchy, competing with program loads. It walks
 * multiple misses in parallel and fills the TLB speculatively when the
 * translation returns, unless the faulting instruction has been
 * squashed by then.
 */

#ifndef ZMT_TLB_WALKER_HH
#define ZMT_TLB_WALKER_HH

#include <deque>
#include <vector>

#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "stats/stats.hh"

namespace zmt
{

/** One finished page-table walk, to be consumed by the core. */
struct WalkResult
{
    Asn asn = 0;
    Addr va = 0;
    Addr pteAddr = 0;
    SeqNum faultSeq = InvalidSeqNum;
    bool squashed = false; //!< faulting instruction died mid-walk
};

/** Hardware page-table walker FSM. */
class HwWalker : public stats::StatGroup
{
  public:
    explicit HwWalker(stats::StatGroup *parent);

    /**
     * Begin a walk for (asn, va). Walks already in flight for the same
     * page absorb the request (no duplicate PTE load).
     * @param fault_seq sequence number of the (oldest) faulting inst
     */
    void startWalk(Asn asn, Addr va, Addr pte_addr, SeqNum fault_seq);

    /** Is a walk in flight for this page? */
    bool walking(Asn asn, Addr va) const;

    /**
     * Issue pending PTE loads through free load/store ports.
     * @param ports_free number of LS ports unclaimed this cycle
     * @return number of ports consumed
     */
    unsigned issue(Cycle now, unsigned ports_free, MemHierarchy &mem);

    /** Pop walks whose data arrived by @p now. */
    std::vector<WalkResult> collectFinished(Cycle now);

    /**
     * The faulting instruction was squashed. The walk continues (its
     * PTE load still goes out and pollutes the cache) but is marked so
     * the core skips the TLB install, per the paper.
     */
    void squashWalksAfter(Asn asn, SeqNum first_squashed_seq);

    /** Re-anchor an in-flight walk to an older faulting instruction. */
    void relink(Asn asn, Addr va, SeqNum older_seq);

    bool anyInFlight() const { return !walks.empty(); }

    stats::Scalar walksStarted;
    stats::Scalar walksMerged;
    stats::Scalar walksSquashed;

  private:
    struct Walk
    {
        Asn asn;
        Addr vpn;
        Addr va;
        Addr pteAddr;
        SeqNum faultSeq;
        bool issued = false;
        bool squashed = false;
        Cycle dataReady = MaxCycle;
    };

    std::deque<Walk> walks;
};

} // namespace zmt

#endif // ZMT_TLB_WALKER_HH
