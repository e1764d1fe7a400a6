/**
 * @file
 * Pipeline invariant checker: an optional every-N-cycle audit of
 * structural legality plus an event hook on every retirement, so a
 * timing bug fails loudly at the cycle it happens instead of
 * corrupting architectural state silently. Checked invariants:
 *
 *  - the in-flight lists (whose dispatched part is the window) hold
 *    only live instructions in program order; the occupancy counter
 *    matches them and never exceeds the window size (under the
 *    instant-fetch limit study, only handler entries may pass it); the
 *    ready list holds exactly the operand-ready unissued instructions
 *  - per-context accounting (icount vs. in-flight list, idle contexts
 *    are empty)
 *  - context state machine takes only legal transitions
 *    (app stays app; idle <-> handler)
 *  - every exception record points at a live excepting instruction and
 *    an actual handler context; reservations never exceed handler size
 *  - no parked instruction outlives its handler (every live parked
 *    instruction is covered by a record or an active hardware walk)
 *  - per-thread retirement stays in program order
 *  - retirement splice ordering: a handler instruction retires only
 *    while the splice is open with the master halted at the excepting
 *    instruction (pre-exception < handler < excepting instruction)
 *
 * Violations are collected (capped) rather than thrown so SmtCore::run
 * can return a structured error status with diagnostics.
 */

#ifndef ZMT_VERIFY_INVARIANT_HH
#define ZMT_VERIFY_INVARIANT_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace zmt
{

class SmtCore;
class DynInst;

/** Audits SmtCore's internal structures for legality. */
class InvariantChecker
{
  public:
    explicit InvariantChecker(const SmtCore &core);

    /** Full structural audit (called every verify.invariantPeriod
     *  cycles and once at end of run). */
    void audit();

    /** Event hook: @p inst of context @p tid is about to retire. */
    void noteRetire(ThreadID tid, const DynInst &inst);

    /** The window audit alone (first violation, or empty); the core
     *  also runs it every 1024 cycles. */
    static std::string windowViolation(const SmtCore &core);

    bool failed() const { return total > 0; }
    uint64_t violationCount() const { return total; }
    const std::vector<std::string> &violations() const { return viols; }
    std::string firstViolation() const;

  private:
    void fail(std::string msg);
    void auditWindow();
    void auditContexts();
    void auditRecords();
    void auditParked();

    const SmtCore &core;
    std::vector<std::string> viols; //!< first few, for diagnostics
    uint64_t total = 0;             //!< all violations, uncapped
    std::vector<SeqNum> lastRetiredSeq; //!< per-context program order
    std::vector<uint8_t> prevState;     //!< per-context CtxState
    bool statesSeeded = false;
};

} // namespace zmt

#endif // ZMT_VERIFY_INVARIANT_HH
