/**
 * @file
 * Simulation parameters. Defaults reproduce the paper's base machine
 * (Table 1); helpers apply the Figure 2 / Figure 3 sweeps; the
 * ExceptParams toggles select the exception architecture and the
 * Table 3 limit studies.
 */

#ifndef ZMT_CONFIG_PARAMS_HH
#define ZMT_CONFIG_PARAMS_HH

#include <cstdint>
#include <functional>
#include <string>

namespace zmt
{

/** Which TLB-miss architecture to simulate (paper Section 5.1). */
enum class ExceptMech
{
    PerfectTlb,    //!< no TLB misses: baseline for the penalty metric
    Traditional,   //!< squash + trap + refetch
    Multithreaded, //!< idle-thread handler execution (the contribution)
    QuickStart,    //!< multithreaded + handler prefetched to fetch buffer
    Hardware,      //!< finite-state-machine page walker
};

const char *mechName(ExceptMech mech);

/** Core pipeline and resource parameters. */
struct CoreParams
{
    unsigned width = 8;          //!< fetch = decode = issue bandwidth
    unsigned windowSize = 128;   //!< centralized instruction window
    unsigned fetchDepth = 3;     //!< cycles for fetch
    unsigned decodeDepth = 1;    //!< cycles for decode
    unsigned schedDepth = 1;     //!< cycles for schedule
    unsigned regReadDepth = 2;   //!< cycles for register read

    unsigned fetchBufEntries = 16; //!< per-thread fetch buffer slots

    // Functional-unit pool (8-wide configuration of Table 1).
    unsigned intAluCount = 8;
    unsigned intMulCount = 3;    //!< shared mult/div pool
    unsigned fpAddCount = 3;     //!< shared FP add/mult pool
    unsigned fpDivCount = 1;     //!< shared FP div/sqrt pool
    unsigned lsPortCount = 3;    //!< load/store ports

    /**
     * Stages between fetch and execute (the minimum branch mispredict
     * penalty). Table 1: 3 fetch + 1 decode + 1 schedule + 2 register
     * read = nominal 7.
     */
    unsigned
    frontendDepth() const
    {
        return fetchDepth + decodeDepth + schedDepth + regReadDepth;
    }

    /**
     * Apply the Figure 2 sweep: pipeline length 3/7/11 stages between
     * fetch and execute. Decode and schedule stay 1 cycle; fetch and
     * register read absorb the difference, as in deeper real pipes.
     */
    void setFrontendDepth(unsigned stages);

    /** Apply the Figure 3 sweep: width 2/4/8 with window 32/64/128. */
    void setWidth(unsigned w);
};

/** Memory hierarchy parameters (Table 1). */
struct MemParams
{
    // L1 instruction cache: 64 KB, 2-way, 32 B lines.
    unsigned l1iSizeKb = 64;
    unsigned l1iAssoc = 2;
    unsigned l1iLineBytes = 32;

    // L1 data cache: 64 KB, 2-way, 32 B lines.
    unsigned l1dSizeKb = 64;
    unsigned l1dAssoc = 2;
    unsigned l1dLineBytes = 32;

    // Unified L2: 1 MB, 4-way, 64 B lines, 6-cycle, fully pipelined.
    unsigned l2SizeKb = 1024;
    unsigned l2Assoc = 4;
    unsigned l2LineBytes = 64;
    unsigned l2Latency = 6;

    unsigned maxOutstandingMisses = 64; //!< primary + secondary MSHRs
    unsigned l1l2BusCyclesPerBlock = 2; //!< 16 B bus, 32 B block
    unsigned l2MemBusCycles = 11;       //!< occupancy per transfer
    unsigned memLatency = 80;
};

/** TLB parameters (Table 1: perfect ITLB, 64-entry DTLB). */
struct TlbParams
{
    unsigned dtlbEntries = 64;
};

/** Branch predictor parameters (Table 1). */
struct BpredParams
{
    unsigned yagsChoiceBits = 14;  //!< 2^14-entry choice PHT
    unsigned yagsExcBits = 12;     //!< 2^12-entry exception caches
    unsigned yagsTagBits = 6;
    unsigned indirectBtbBits = 8;  //!< 2^8-entry first stage
    unsigned indirectExcBits = 10; //!< 2^10-entry history stage
    unsigned rasEntries = 64;
    unsigned historyBits = 16;
};

/** Exception-architecture parameters. */
struct ExceptParams
{
    ExceptMech mech = ExceptMech::Traditional;

    /** Idle thread contexts available for handlers (1 or 3 in paper). */
    unsigned idleThreads = 1;

    // --- Multithreaded-mechanism design options (Section 4.4/4.5) ---
    bool windowReservation = true;   //!< reserve slots for the handler
    bool handlerFetchPriority = true;//!< handler beats ICOUNT
    bool relinkSecondaryMiss = true; //!< re-link handler to older miss
    bool deadlockSquash = true;      //!< squash main tail if handler stuck

    // --- Quick-start ---------------------------------------------------
    unsigned quickStartWarmup = 8;   //!< cycles to re-prefetch the buffer

    // --- Generalized mechanism (paper Section 6) ------------------------
    /**
     * Treat FSQRT as unimplemented in hardware: executing one raises
     * an instruction-emulation exception handled by PALcode (with
     * register access via EmulArg/EmulDest/EMULWR). Exercises the
     * generalized multithreaded mechanism of Section 6.
     */
    bool emulateFsqrt = false;

    // --- Table 3 limit-study toggles -----------------------------------
    bool freeHandlerExecBw = false;  //!< handler uses no FU/issue slots
    bool freeHandlerWindow = false;  //!< handler uses no window entries
    bool freeHandlerFetchBw = false; //!< handler fetch/decode are free
    bool instantHandlerFetch = false;//!< handler appears decoded at once

    bool usesHandlerThread() const
    {
        return mech == ExceptMech::Multithreaded ||
               mech == ExceptMech::QuickStart;
    }
};

/**
 * Verification-layer parameters: fault injection and invariant
 * checking (src/verify). All probabilities/periods default to off so a
 * production run pays nothing; the torture harness and the rare-path
 * tests turn them on. Every stochastic decision flows through one
 * seeded Rng so a failing run is reproducible from its printed seed.
 */
struct VerifyParams
{
    /** Audit pipeline invariants every N cycles (0 = disabled). */
    unsigned invariantPeriod = 0;

    /** Injector RNG seed; 0 derives it from SimParams::seed. */
    uint64_t seed = 0;

    /**
     * Probability that a multithreaded handler's PTE load observes an
     * invalid PTE (one-shot shadow override — simulated memory is
     * never modified), driving the HARDEXC reversion path (Sec 4.3).
     */
    double badPteProb = 0.0;

    /**
     * Probability that an idle context is hidden from spawnMtHandler,
     * forcing the no-idle-context traditional fallback.
     */
    double stealIdleProb = 0.0;

    /**
     * Probability that a TLB *hit* by an instruction older than an
     * in-flight record's excepting instruction is turned into a miss,
     * driving the secondary-miss relink path (Sec 4.5).
     */
    double forceSecondaryMissProb = 0.0;

    // --- Periodic window squeeze (drives deadlock-avoidance squash) ---
    unsigned squeezePeriod = 0;    //!< cycle period (0 = off)
    unsigned squeezeDuration = 0;  //!< squeezed cycles per period
    unsigned squeezeWindowTo = 32; //!< effective window while squeezed

    /** Squash one record's master from its excepting instruction every
     *  N cycles (0 = off) — exercises handler reclaim (cancelRecord). */
    unsigned handlerSquashPeriod = 0;

    /**
     * Crash injection: panic() once the core reaches this cycle
     * (0 = off). Exists so campaign-layer tests and CI can force a
     * hard process death in one sweep cell and assert that
     * process-isolated sweeps contain it (sim/campaign.hh) — unlike
     * the other injectors it never models hardware misbehaviour.
     */
    uint64_t panicAtCycle = 0;

    /**
     * Test-only mutation switch: deliberately break the retirement
     * splice (the handler retires without waiting for the master to
     * reach the excepting instruction). Exists to prove the
     * InvariantChecker catches splice-ordering bugs.
     */
    bool mutateSpliceBug = false;

    bool
    anyInjection() const
    {
        // panicAtCycle counts as an injection: a run armed with it is
        // a fault-injection drill, and its summary says so.
        return badPteProb > 0.0 || stealIdleProb > 0.0 ||
               forceSecondaryMissProb > 0.0 ||
               (squeezePeriod > 0 && squeezeDuration > 0) ||
               handlerSquashPeriod > 0 || panicAtCycle > 0;
    }

    bool
    enabled() const
    {
        return anyInjection() || invariantPeriod > 0 || mutateSpliceBug;
    }
};

/**
 * Helper-thread micro-service parameters (src/core/helper.hh,
 * src/helpers). Services run in borrowed idle SMT contexts through the
 * same HelperContext API the multithreaded exception mechanisms use;
 * all off by default, and with every service disabled the stat dump is
 * byte-identical to a build without the helper layer (the golden-run
 * tests enforce this).
 */
struct HelperParams
{
    // --- Run-ahead prefetcher service (src/helpers/prefetch) ---------
    bool prefetch = false;       //!< enable the prefetcher helper
    unsigned prefetchDegree = 2; //!< max probes issued per cycle
    unsigned prefetchDistance = 4; //!< pointer-chase hops run ahead
    unsigned prefetchTableSize = 64; //!< stride-table entries
    unsigned prefetchQueue = 32; //!< pending-probe queue depth

    // --- Shadow-memory checker service (src/helpers/checker) --------
    bool checker = false;        //!< enable the checker helper
    uint64_t checkBase = 0;      //!< shadow-tracked data range base VA
    uint64_t checkLen = 0;       //!< ... length (0 = track all accesses)
    uint64_t watchBase = 0;      //!< data-watchpoint range base VA
    uint64_t watchLen = 0;       //!< ... length (0 = no watchpoints)
    uint64_t syncBase = 0;       //!< acquire/release region base VA
    uint64_t syncLen = 0;        //!< ... length (0 = no sync region)
    unsigned traceCap = 1u << 16; //!< retained access-trace entries

    bool anyEnabled() const { return prefetch || checker; }
};

/**
 * Observability parameters (src/obs): pipeline event logging, penalty
 * attribution and trace exporters. All off by default; when disabled
 * the core holds no EventLog and each stage hook costs one branch.
 */
struct ObsParams
{
    /** Konata pipeline-trace output path ("" = off). */
    std::string pipeview;

    /** Chrome trace-event JSON output path ("" = off). */
    std::string events;

    /** Collect per-category penalty attribution (CoreResult::attrib,
     *  the obs.* stats group, sweep JSON columns). Implied by
     *  `events`. */
    bool attrib = false;

    /** Events retained for the pipeline view (rounded to a power of
     *  two). Older events fall off; attribution never does. */
    unsigned ringCapacity = 1u << 20;

    /** Text-trace categories streamed to stderr ("exc,retire", "all";
     *  "" = off; see obs/texttrace.hh). */
    std::string trace;

    bool
    anyEnabled() const
    {
        return attrib || !pipeview.empty() || !events.empty() ||
               !trace.empty();
    }
};

/**
 * Fast-forward / checkpoint parameters (src/kernel/ffwd.hh,
 * src/sim/checkpoint.hh). Fast-forward executes the first part of the
 * run on the functional machine (orders of magnitude faster than
 * detailed simulation) and hands the detailed core a mid-execution
 * architectural state — the paper's runs start from mid-execution
 * checkpoints for exactly this reason.
 */
struct FfwdParams
{
    /**
     * Functionally execute this many instructions (total, split evenly
     * across the mix like maxInsts) before detailed simulation. The
     * detailed core then retires maxInsts from that point.
     */
    uint64_t insts = 0;

    /**
     * Record warm state during fast-forward (touched TLB pages and
     * cache lines) and install it before detailed simulation starts,
     * so the measured window does not begin with an artificially cold
     * hierarchy. A restore installs a checkpoint's warm state only
     * under this flag, so a cold restore matches the cold straight run.
     */
    bool warm = true;

    /** After fast-forward, write a checkpoint to this path ("" = off);
     *  needs insts > 0. */
    std::string save;

    /**
     * Build the system from this checkpoint instead of loading
     * workloads ("" = off). Mutually exclusive with insts/save.
     */
    std::string restore;

    bool enabled() const { return insts > 0 || !restore.empty(); }
};

/**
 * SMARTS-style sampled simulation: alternate functional fast-forward
 * with short detailed measurement intervals and aggregate the interval
 * statistics with confidence bounds (CoreResult::sampling).
 */
struct SampleParams
{
    /** Instructions from the start of one sample to the start of the
     *  next (total across the mix); 0 disables sampling. */
    uint64_t periodInsts = 0;

    /** Measured (detailed) instructions per sample. */
    uint64_t detailInsts = 10000;

    /** Detailed warm-up instructions before each measured interval
     *  (on top of the functional warm-state install). */
    uint64_t warmupInsts = 2000;

    bool enabled() const { return periodInsts > 0; }
};

/** Top-level simulation parameters. */
struct SimParams
{
    CoreParams core;
    MemParams mem;
    TlbParams tlb;
    BpredParams bpred;
    ExceptParams except;
    VerifyParams verify;
    HelperParams helper;
    ObsParams obs;
    FfwdParams ffwd;
    SampleParams sample;

    /** Stop after this many retired user-mode instructions (total). */
    uint64_t maxInsts = 1'000'000;

    /**
     * Instructions executed before measurement begins (TLB, cache and
     * page-table warm-up; the paper starts from mid-execution
     * checkpoints for the same reason). Counted toward maxInsts.
     */
    uint64_t warmupInsts = 0;

    /** Workload-generation seed. */
    uint64_t seed = 1;

    /**
     * Livelock watchdog: abort the run (with a structured error
     * status, not a crash) after this many cycles. 0 picks a generous
     * automatic bound proportional to maxInsts.
     */
    uint64_t watchdogCycles = 0;

    /**
     * Set a parameter by dotted name, e.g. "core.width=4" or
     * "except.mech=multithreaded". Every name forEachParam prints is
     * accepted, plus the sweep helper "core.frontendDepth"; a replay
     * of forEachParam through set() reproduces canonicalKey(). Fatal
     * on unknown keys and on values the field cannot hold (negative
     * or out-of-range numbers, non-boolean flags, unknown mechanisms).
     */
    void set(const std::string &key, const std::string &value);

    /** Parse "k=v" and apply. */
    void setKeyValue(const std::string &assignment);

    /** One-line summary for logs. */
    std::string summary() const;

    /**
     * Visit every simulation-relevant field as a (dotted-name,
     * value-string) pair, in a fixed order. This is the single
     * enumeration behind canonicalKey() and the sweep runner's JSON
     * output: a field listed here is part of the baseline-cache
     * contract (src/sim/experiment.cc), so any new SimParams field
     * must be added to visitFields() in params.cc, which drives both
     * this and set().
     */
    void forEachParam(
        const std::function<void(const std::string &,
                                 const std::string &)> &fn) const;

    /**
     * Canonical full serialization of the configuration: every field
     * from forEachParam, in order. Two SimParams with equal canonical
     * keys run identically; the perfect-TLB baseline cache keys on
     * this (plus the workload list), so it can never alias two
     * configurations that simulate differently.
     */
    std::string canonicalKey() const;
};

/** Parse a mechanism name ("traditional", "mt", "quickstart", ...). */
ExceptMech parseMech(const std::string &name);

} // namespace zmt

#endif // ZMT_CONFIG_PARAMS_HH
