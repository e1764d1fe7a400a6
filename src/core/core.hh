/**
 * @file
 * The SMT dynamically scheduled superscalar core (paper Table 1),
 * including all five TLB-miss exception architectures:
 *
 *  - perfect TLB (baseline for the penalty metric)
 *  - traditional software trap: squash at detect, fetch the PAL
 *    handler inline, refetch from the faulting instruction after RFE
 *  - multithreaded: the handler runs in an idle thread context with
 *    retirement splicing, window reservation, deadlock-avoidance
 *    squash, secondary-miss relinking and reversion-to-traditional
 *  - quick-start: multithreaded + the handler pre-loaded into the idle
 *    thread's fetch buffer
 *  - hardware: an FSM page walker competing for load/store ports
 *
 * Structure: a stage-based cycle loop (retire, complete, issue,
 * dispatch, fetch). Functional execution happens at dispatch in
 * per-thread fetch order against speculative architectural state with
 * an undo log, so wrong paths execute real instructions and pollute
 * real caches — the mechanism behind the paper's gcc anomaly.
 */

#ifndef ZMT_CORE_CORE_HH
#define ZMT_CORE_CORE_HH

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "config/params.hh"
#include "core/completionq.hh"
#include "core/dyninst.hh"
#include "isa/decodecache.hh"
#include "kernel/pal.hh"
#include "kernel/process.hh"
#include "mem/hierarchy.hh"
#include "obs/eventlog.hh"
#include "obs/texttrace.hh"
#include "obs/timeline.hh"
#include "tlb/tlb.hh"
#include "tlb/walker.hh"
#include "verify/faultinject.hh"
#include "verify/invariant.hh"

namespace zmt
{

class HelperManager;

/** How a simulation run ended. */
enum class RunStatus : uint8_t
{
    Ok,                 //!< retired the requested instruction budget
    Livelock,           //!< watchdog cycle bound exceeded
    InvariantViolation, //!< the InvariantChecker found illegal state

    // Produced by the campaign layer (sim/campaign.hh), never by
    // SmtCore itself: process-isolated jobs whose child died.
    Crashed,            //!< child exited abnormally (panic/abort/OOM)
    Timeout,            //!< child exceeded its wall-clock budget
};

const char *runStatusName(RunStatus status);

/** Inverse of runStatusName(); false if @p name matches no status. */
bool parseRunStatus(const std::string &name, RunStatus &status);

/** Top-level outcome of a simulation run. */
struct CoreResult
{
    RunStatus status = RunStatus::Ok;
    std::string error;         //!< diagnostic when status != Ok

    Cycle cycles = 0;          //!< total, including warm-up
    uint64_t userInsts = 0;    //!< total retired user instructions
    uint64_t tlbMisses = 0;    //!< total completed miss handlings
    uint64_t emulations = 0;   //!< completed instruction emulations
    double ipc = 0.0;          //!< measured-window IPC

    // Post-warm-up measurement window (equals the totals when
    // warmupInsts is 0).
    Cycle measuredCycles = 0;
    uint64_t measuredInsts = 0;
    uint64_t measuredMisses = 0;

    /**
     * Whether the run actually completed its warm-up window. When a
     * run ends (livelock, invariant violation, or a warmupInsts that
     * exceeds the retirement budget) before every app thread retires
     * its warm-up share, measurement never began: the measured_*
     * fields and ipc are zero rather than silently spanning the whole
     * run with a warm-up-skewed denominator.
     */
    bool warmedUp = true;

    /**
     * Sampled-simulation summary (sim/checkpoint.hh driver). All zero
     * for conventional runs; samples > 0 marks a sampled result, whose
     * cycles/measured_* totals are sums over the detailed probe
     * intervals and whose ipc is the sample mean.
     */
    struct SampleStats
    {
        uint64_t samples = 0;     //!< detailed intervals measured
        uint64_t ffwdInsts = 0;   //!< functionally fast-forwarded insts
        uint64_t coldSamples = 0; //!< probes whose warm-up never finished
        double ipcMean = 0.0;
        double ipcCi95 = 0.0;     //!< 95% confidence half-width
        double mpkMean = 0.0;     //!< misses per kilo-instruction
        double mpkCi95 = 0.0;

        bool enabled() const { return samples > 0; }
    };
    SampleStats sampling;

    /** Per-category penalty attribution (all-zero unless obs.attrib
     *  or an event export was enabled for the run). */
    obs::AttribSummary attrib;

    bool ok() const { return status == RunStatus::Ok; }
};

/** The simulated SMT processor. */
class SmtCore : public stats::StatGroup
{
  public:
    /**
     * @param params  machine configuration
     * @param apps    one process per application thread (not owned)
     * @param mem     simulated physical memory (shared with processes)
     * @param pal     assembled PALcode (must already be resident in mem)
     */
    SmtCore(const SimParams &params, std::vector<Process *> apps,
            PhysMem &mem, const PalCode &pal, stats::StatGroup *parent);

    ~SmtCore();

    /**
     * Run until maxInsts user instructions retire. A watchdog timeout
     * or an invariant violation ends the run early with the
     * corresponding error status (never a crash), so sweeps degrade
     * gracefully and report which configuration misbehaved.
     */
    CoreResult run();

    /** Advance one cycle (exposed for fine-grained tests). */
    void tick();

    Cycle now() const { return curCycle; }
    uint64_t totalRetiredUser() const;

    /** Diagnostic dump of pipeline state (used on livelock and by
     *  debugging sessions). */
    void dumpState(std::ostream &os) const;

    /** Per-app results for golden-model cross-checks. */
    uint64_t retiredUserInsts(unsigned app) const;
    uint64_t retiredStoreHash(unsigned app) const;

    const Tlb &dtlb() const { return *tlb; }
    Tlb &dtlb() { return *tlb; }
    MemHierarchy &memory() { return *hier; }

    /** The DynInst slab pool (exposed for the pool-stress tests). */
    const DynInstPool &instPool() const { return dynInstPool; }

    /** The helper-thread micro-service layer (always present; its
     *  services and stats exist only when helper.* enables them). */
    HelperManager &helperMgr() { return *helpers; }
    const HelperManager &helperMgr() const { return *helpers; }

    /** Total hardware contexts (app threads + idle/handler pool). */
    size_t contextCount() const { return contexts.size(); }

    /** The invariant checker, when verify.invariantPeriod > 0. */
    const InvariantChecker *invariants() const { return checker.get(); }

    /** The pipeline event log, when obs.* enables one (else null). */
    obs::EventLog *eventLog() { return obsLog.get(); }
    const obs::EventLog *eventLog() const { return obsLog.get(); }

    /** The exception-timeline analyzer (null unless obs is enabled). */
    const obs::ExcTimeline *excTimeline() const { return obsTl.get(); }

    // --- Statistics ------------------------------------------------------
    stats::Scalar numCycles;
    stats::Scalar retiredUser;
    stats::Scalar retiredPal;
    stats::Scalar fetchedInsts;
    stats::Scalar tlbMisses;       //!< completed miss handlings (retired)
    stats::Scalar tlbMissesSeen;   //!< detections incl. wrong path
    stats::Scalar wrongPathMisses; //!< detections later squashed
    stats::Scalar branchSquashes;
    stats::Scalar trapSquashes;
    stats::Scalar squashedInsts;
    stats::Scalar mtSpawns;
    stats::Scalar mtFallbacks;     //!< no idle context -> traditional
    stats::Scalar relinks;         //!< secondary-miss re-links (Sec 4.5)
    stats::Scalar deadlockSquashes;
    stats::Scalar hardReverts;     //!< HARDEXC reversion (Sec 4.3)
    stats::Scalar qsWarmStarts;
    stats::Scalar qsColdStarts;
    stats::Scalar qsTypeMispredicts; //!< wrong handler prefetched (Sec 5.4)
    stats::Scalar emulFaultsSeen;    //!< emulation exceptions detected
    stats::Scalar emulDone;          //!< completed emulations (retired)
    stats::Scalar handlerActiveCycles;
    stats::Formula ipcStat;
    /** Per-cycle instructions issued (ILP actually extracted). */
    stats::Average issuedPerCycle;
    /**
     * Instruction-window occupancy sampled each cycle — the "useful
     * window occupancy" the paper's Section 3 argues traditional
     * exception handling destroys.
     */
    stats::Distribution windowOccupancy;

  private:
    // --- Hardware thread context ----------------------------------------
    enum class CtxState : uint8_t { App, Idle, Handler };

    /** Exception classes the generalized mechanism distinguishes. */
    enum class ExcKind : uint8_t { TlbMiss, EmulFsqrt };

    struct ThreadCtx
    {
        ThreadID id = InvalidThreadID;
        Process *proc = nullptr;  //!< bound app (handler ctxs: master's)
        CtxState cstate = CtxState::Idle;

        // Speculative (dispatch-time) architectural state.
        ArchState arch;
        std::array<uint64_t, isa::NumIntRegs> palRegs{};

        // Fetch engine.
        bool fetchEnabled = false;
        bool fetchPal = false;
        Addr fetchPc = 0;
        bool stalledRfe = false; //!< RFE fetched: wait for its execute
        bool deadEnd = false;    //!< HARDEXC executed: wait for squash
        bool fetchHalted = false;
        Addr pendingReturnPc = 0; //!< traditional trap resume PC

        // Handler context control state (paper Figure 4).
        ThreadID master = InvalidThreadID;
        unsigned handlerFetched = 0;
        unsigned handlerLen = 0; //!< predicted length of this handler
        bool handlerLenCapped = true;

        // Traditional-trap bookkeeping: which exception class the
        // in-flight inline handler serves (for completion counting).
        ExcKind pendingExcKind = ExcKind::TlbMiss;

        // Quick-start prefetch buffer readiness.
        Cycle warmReadyAt = 0;

        // Consecutive cycles a handler's dispatch has found the window
        // full; triggers the deadlock-avoidance squash (Section 4.4)
        // only after retirement has had a chance to free slots.
        unsigned dispatchBlockedCycles = 0;

        std::deque<InstPtr> fetchBuf; //!< fetched, not yet dispatched
        std::deque<InstPtr> inflight; //!< fetched, not yet retired

        // Speculative register rename: last (possibly in-flight) writer.
        std::array<InstPtr, isa::NumIntRegs> intWriter;
        std::array<InstPtr, isa::NumFpRegs> fpWriter;
        std::array<InstPtr, isa::NumIntRegs> palWriter;
        std::array<InstPtr, size_t(isa::PrivReg::NumPrivRegs)> privWriter;

        unsigned icount = 0; //!< in-flight instructions (fetch policy)
        uint64_t retiredUserInsts = 0;
        uint64_t storeHash = 0xcbf29ce484222325ULL;

        /** The rename-table slot of one register. */
        InstPtr &
        writerOf(RegFileKind kind, unsigned reg)
        {
            switch (kind) {
              case RegFileKind::Int:  return intWriter[reg];
              case RegFileKind::Fp:   return fpWriter[reg];
              case RegFileKind::Pal:  return palWriter[reg];
              case RegFileKind::Priv: return privWriter[reg];
              case RegFileKind::None: break;
            }
            panic("bad register file kind");
            return intWriter[0];
        }

        bool isApp() const { return cstate == CtxState::App; }
        bool isHandler() const { return cstate == CtxState::Handler; }
    };

    /** In-flight multithreaded-exception record. */
    struct ExcRecord
    {
        ExcKind kind = ExcKind::TlbMiss;
        ThreadID master = InvalidThreadID;
        ThreadID handler = InvalidThreadID;
        Asn asn = 0;
        Addr vpn = 0;               //!< TlbMiss records only
        InstPtr faultInst;          //!< oldest excepting instruction
        bool filled = false;        //!< TLBWR executed
        bool spliceOpen = false;    //!< master blocked at the splice
        unsigned reservedRemaining = 0;
    };

    // --- Pipeline stages ---------------------------------------------------
    void doRetire();
    void doComplete();
    void doIssue();
    void doDispatch();
    void doFetch();

    // --- Fetch helpers ------------------------------------------------------
    const std::vector<ThreadCtx *> &fetchOrder();
    bool canFetch(const ThreadCtx &ctx) const;
    unsigned fetchFromThread(ThreadCtx &ctx, unsigned budget);
    InstPtr createFetchedInst(ThreadCtx &ctx, Addr pc, isa::InstWord word,
                              Cycle fetch_done);
    /** One translation of @p pc in the context's fetch mode: the
     *  instruction word and the physical address it was read at. */
    std::pair<isa::InstWord, Addr> readInstWord(const ThreadCtx &ctx,
                                                Addr pc) const;
    void prefillQuickStart(ThreadCtx &ctx);

    // --- Dispatch helpers -----------------------------------------------------
    /** Window capacity this cycle (the injector may squeeze it). */
    unsigned effectiveWindowSize() const;
    bool windowHasRoomFor(const ThreadCtx &ctx, const DynInst &inst) const;
    void dispatchInst(ThreadCtx &ctx, const InstPtr &inst);
    /** Execute @p inst against the thread's speculative state, link
     *  it to the writers of the registers it read and rename the one
     *  it wrote. */
    void executeAndLink(ThreadCtx &ctx, const InstPtr &inst);
    void handlerWindowDeadlock(ThreadCtx &handler_ctx);
    unsigned reservedAgainst(ThreadID master) const;

    // --- Issue/execute helpers ---------------------------------------------------
    bool fuAvailable(isa::OpClass cls) const;
    void consumeFu(isa::OpClass cls);
    void issueInst(const InstPtr &inst);
    bool oldestUnfinished(const DynInst &inst) const;
    Addr fakePa(Asn asn, Addr va) const;
    void insertIntoReadyList(const InstPtr &inst);

    // --- Completion helpers ---------------------------------------------------
    void completeInst(const InstPtr &inst);
    void resolveBranch(const InstPtr &inst);
    void onTlbwrExecute(const InstPtr &inst);
    void onRfeExecute(const InstPtr &inst);
    void onHardexcExecute(const InstPtr &inst);
    void processWalker();
    void installFill(Asn asn, Addr va);

    // --- Exceptions -------------------------------------------------------------
    void onTlbMiss(const InstPtr &inst);
    void onEmulFault(const InstPtr &inst);
    void spawnMtHandler(const InstPtr &inst, ExcKind kind);
    void trapTraditional(const InstPtr &inst, ExcKind kind);
    /** After the squash, point @p ctx at the inline handler for
     *  @p fault: shared by the trap and by the HARDEXC reversion. */
    void enterInlineHandler(ThreadCtx &ctx, const DynInst &fault,
                            ExcKind kind);
    void onEmulwrExecute(const InstPtr &inst);
    Addr handlerEntry(ExcKind kind) const;
    unsigned handlerLen(ExcKind kind) const;
    void seedEmulRegs(ThreadCtx &ctx, const DynInst &fault);
    void seedPrivRegs(ThreadCtx &ctx, const ThreadCtx &app_ctx, Addr va,
                      Addr fault_pc);
    ExcRecord *recordForHandler(ThreadID handler);
    ExcRecord *recordForPage(Asn asn, Addr vpn);
    void releaseHandlerCtx(ThreadCtx &ctx);
    void cancelRecord(size_t idx);
    void wakeTlbWaiters(Asn asn, Addr vpn);

    /** Injected fault: squash one record's master from its excepting
     *  instruction, exercising mid-flight handler reclaim. */
    void injectHandlerSquash();

    // --- Squash -------------------------------------------------------------------
    /**
     * Squash all instructions of @p ctx with seq >= first_squashed;
     * rolls back speculative state youngest-first, updates structures,
     * cancels dependent exception records and walks. The caller sets
     * the new fetch PC/mode and branch-predictor state.
     */
    void squashFrom(ThreadCtx &ctx, SeqNum first_squashed);
    void undoInst(ThreadCtx &ctx, DynInst &inst);
    void removeFromWindow(const DynInst &inst);

    // --- Retire ----------------------------------------------------------------------
    bool retireBlocked(ThreadCtx &ctx, const InstPtr &head);
    void retireInst(ThreadCtx &ctx, const InstPtr &inst);

    ThreadCtx &ctxOf(const DynInst &inst) { return *contexts[inst.tid]; }
    Asn asnOf(const ThreadCtx &ctx) const;

    // --- Configuration and structural state -----------------------------------------
    SimParams params;
    PhysMem &physMem;
    const PalCode &pal;

    std::unique_ptr<MemHierarchy> hier;
    std::unique_ptr<Tlb> tlb;
    std::unique_ptr<BranchPredictor> bpred;
    std::unique_ptr<HwWalker> walker;

    /** Slab pool for all in-flight DynInsts. Declared before every
     *  container of InstPtrs so it is destroyed after them. */
    DynInstPool dynInstPool;

    /** Per-core decode memo (refetch after squash skips re-decode). */
    isa::DecodeCache decodeCache;

    std::vector<std::unique_ptr<ThreadCtx>> contexts;
    unsigned numApps = 0;

    // Verification layer (null unless verify.* enables it).
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<InvariantChecker> checker;

    /**
     * Helper-thread micro-services (core/helper.hh): the reusable
     * context borrow/bind/release API the exception mechanisms run
     * through, plus the optional prefetcher/checker services. Always
     * constructed; with helper.* disabled it holds no stat group and
     * no services.
     */
    std::unique_ptr<HelperManager> helpers;

    /** Crash flush hook (common/logging.hh): dump this core's pipeline
     *  state on panic()/fatal() so a crashing run leaves evidence. */
    uint64_t crashHookId = 0;

    // Observability layer (null unless obs.* enables it). The stage
    // hooks below compile to one predicted-not-taken branch when off.
    std::unique_ptr<obs::EventLog> obsLog;
    std::unique_ptr<obs::ExcTimeline> obsTl;
    std::unique_ptr<obs::TextTrace> obsText; //!< obs.trace

    void
    obsEmit(obs::EventKind kind, const DynInst &inst, uint64_t arg = 0,
            uint8_t extra_flags = 0)
    {
        if (obsLog) [[unlikely]] {
            obsLog->emit({curCycle, inst.seq, arg, inst.tid, kind,
                          uint8_t((inst.palMode ? obs::EvPalMode : 0) |
                                  extra_flags)});
        }
    }

    void
    obsEmitTid(obs::EventKind kind, ThreadID tid, uint64_t arg = 0,
               SeqNum seq = 0, uint8_t flags = 0)
    {
        if (obsLog) [[unlikely]]
            obsLog->emit({curCycle, seq, arg, tid, kind, flags});
    }

    std::vector<ExcRecord> records;
    std::vector<InstPtr> parked; //!< instructions waiting on a TLB fill

    /** Window occupancy (honors freeHandlerWindow). The window itself
     *  is the inWindowLike() part of the contexts' in-flight lists. */
    unsigned windowCount = 0;

    /**
     * Unissued instructions with no pending operands (status InWindow,
     * or parked in TlbWait), sorted by seq. doIssue scans this instead
     * of the whole window; issued/squashed entries are compacted out
     * in-scan.
     */
    std::vector<InstPtr> readyList;

    /** Completion events: cycle -> instructions in issue order. */
    CompletionQueue completionQueue;

    /** fetchOrder() scratch (avoids two allocations per cycle). */
    std::vector<ThreadCtx *> orderScratch, orderHandlers;

    Cycle curCycle = 0;
    SeqNum nextSeq = 1;
    Cycle lastRetireCycle = 0; //!< deadlock detection: is anything draining?

    // Quick-start's exception-type predictor (paper Section 5.4): a
    // history-based "predict the last exception type". With only DTLB
    // misses modeled the prediction is perfect, as the paper notes;
    // with the Section 6 emulation class it becomes a real predictor.
    ExcKind predictedExcType = ExcKind::TlbMiss;

    // Per-cycle FU accounting (reset in doIssue).
    unsigned aluUsed = 0, mulUsed = 0, fpAddUsed = 0, fpDivUsed = 0,
             lsUsed = 0;

    friend class DispatchContext;
    friend class InvariantChecker;
    friend class HelperManager;
    friend class CoreTestAccess; //!< white-box tests only
};

} // namespace zmt

#endif // ZMT_CORE_CORE_HH
