/**
 * @file
 * Seeded fault injector: forces the exception mechanisms' rarely-taken
 * corner paths on demand so tests and the torture harness can exercise
 * them deterministically (paper Sections 4.3-4.5):
 *
 *  - invalid PTEs seen by a multithreaded handler's PTE load (a
 *    one-shot shadow override — simulated memory is never modified),
 *    driving the HARDEXC reversion-to-traditional path
 *  - hiding idle contexts from spawnMtHandler, driving the
 *    no-idle-context traditional fallback
 *  - turning selected TLB hits into misses for instructions older than
 *    an in-flight record's excepting instruction, driving the
 *    secondary-miss relink path
 *  - periodically shrinking the effective instruction window, driving
 *    the deadlock-avoidance tail squash
 *  - periodically squashing a record's master from its excepting
 *    instruction, driving mid-flight handler reclaim
 *
 * All randomness comes from one xorshift64* Rng seeded from the
 * configuration, so any observed behaviour is reproducible from the
 * printed seed. Each injection has a counter stat for coverage
 * reporting.
 */

#ifndef ZMT_VERIFY_FAULTINJECT_HH
#define ZMT_VERIFY_FAULTINJECT_HH

#include <unordered_set>

#include "common/random.hh"
#include "common/types.hh"
#include "config/params.hh"
#include "stats/stats.hh"

namespace zmt
{

/** Drives rare exception paths under a seeded schedule. */
class FaultInjector : public stats::StatGroup
{
  public:
    FaultInjector(const VerifyParams &params, stats::StatGroup *parent);

    /** spawnMtHandler: pretend no idle context exists this time? */
    bool stealIdleContext();

    /**
     * A multithreaded TLB-miss handler was spawned whose PTE lives at
     * @p pte_addr: roll for a one-shot invalid-PTE override on it.
     */
    void maybeArmBadPte(Addr pte_addr);

    /**
     * A handler-context PAL load read @p value from @p pte_addr:
     * return the (possibly invalidated) value the handler should see,
     * consuming any armed override.
     */
    uint64_t filterPteRead(Addr pte_addr, uint64_t value);

    /** The handling for @p pte_addr died: drop an unconsumed override. */
    void disarmBadPte(Addr pte_addr);

    /** Issue stage: turn this (otherwise hitting) lookup by an
     *  instruction older than a record's excepting one into a miss? */
    bool forceSecondaryMiss();

    /** Effective window size at @p cycle (periodic squeeze). */
    unsigned effectiveWindow(Cycle cycle, unsigned window_size) const;

    /** Per-cycle bookkeeping (counts squeeze activations). */
    void onCycle(Cycle cycle);

    /** Fire the mid-flight handler squash this cycle? */
    bool shouldSquashHandler(Cycle cycle) const;

    /** The core actually performed an injected handler squash. */
    void noteHandlerSquash() { ++injectedHandlerSquashes; }

    // --- Coverage stats -------------------------------------------------
    stats::Scalar injectedBadPtes;    //!< invalid-PTE overrides consumed
    stats::Scalar injectedCtxSteals;  //!< idle contexts hidden
    stats::Scalar injectedForcedMisses;
    stats::Scalar injectedHandlerSquashes;
    stats::Scalar squeezeActivations; //!< window-squeeze phases entered

  private:
    bool squeezed(Cycle cycle) const;

    VerifyParams params;
    Rng rng;
    std::unordered_set<Addr> armedPtes; //!< pending one-shot overrides
};

} // namespace zmt

#endif // ZMT_VERIFY_FAULTINJECT_HH
