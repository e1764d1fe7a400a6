/**
 * @file
 * The dynamic instruction record, carrying an instruction from fetch
 * through the window to retirement (or squash).
 *
 * Functional execution happens at dispatch, in per-thread fetch order,
 * against the thread's speculative architectural state; the DynInst
 * records undo information (old register value, old memory bytes) so a
 * squash can roll the speculative state back youngest-first. Timing
 * state (ready/issued/done cycles) drives the pipeline model.
 *
 * DynInsts are allocated from a per-core slab pool (core/instpool.hh)
 * through the intrusive refcounted InstPtr below, not from the global
 * heap: the core creates and destroys one record per fetched
 * instruction — including every wrong-path instruction — so
 * per-instruction make_shared/control-block churn dominated the
 * simulator's own hot path. The pool recycles records at the last
 * reference drop (retire/squash plus structure removal) and reuses
 * each record's `dependents` buffer, and its live count is asserted
 * to return to zero at core teardown, turning the shared_ptr-cycle
 * leak class into a structural impossibility.
 */

#ifndef ZMT_CORE_DYNINST_HH
#define ZMT_CORE_DYNINST_HH

#include <cstddef>
#include <vector>

#include "bpred/bpred.hh"
#include "common/types.hh"
#include "isa/inst.hh"

namespace zmt
{

class DynInst;
class DynInstPool;

/**
 * Intrusive refcounted handle to a pooled DynInst. Semantically a
 * shared_ptr, minus the separate control block and minus atomics: a
 * core's instructions are only ever touched from the thread running
 * that core's simulation (sweep jobs each build their own Simulator),
 * so plain counters are safe — and TSan-verified in CI.
 */
class InstPtr
{
  public:
    constexpr InstPtr() noexcept = default;
    constexpr InstPtr(std::nullptr_t) noexcept {}
    inline InstPtr(const InstPtr &other) noexcept;
    InstPtr(InstPtr &&other) noexcept : ptr(other.ptr) { other.ptr = nullptr; }
    inline InstPtr &operator=(const InstPtr &other) noexcept;
    inline InstPtr &operator=(InstPtr &&other) noexcept;
    inline ~InstPtr();

    inline void reset() noexcept;

    DynInst *get() const noexcept { return ptr; }
    DynInst &operator*() const noexcept { return *ptr; }
    DynInst *operator->() const noexcept { return ptr; }
    explicit operator bool() const noexcept { return ptr != nullptr; }

    friend bool
    operator==(const InstPtr &a, const InstPtr &b) noexcept
    {
        return a.ptr == b.ptr;
    }
    friend bool
    operator==(const InstPtr &a, std::nullptr_t) noexcept
    {
        return a.ptr == nullptr;
    }

  private:
    friend class DynInstPool;
    struct AdoptRef {};
    InstPtr(DynInst *inst, AdoptRef) noexcept : ptr(inst) {}

    DynInst *ptr = nullptr;
};

/** Which register file an undo entry refers to. */
enum class RegFileKind : uint8_t { None, Int, Fp, Pal, Priv };

/** Lifecycle of a dynamic instruction. */
enum class InstStatus : uint8_t
{
    InFetchBuf, //!< fetched, waiting to decode/dispatch
    InWindow,   //!< dispatched, waiting for operands / FU
    TlbWait,    //!< parked on a TLB miss (paper Section 4.1)
    Issued,     //!< executing
    Done,       //!< completed, awaiting in-order retirement
    Retired,
    Squashed,
};

/** One in-flight instruction. */
class DynInst
{
  public:
    // --- Identity ------------------------------------------------------
    SeqNum seq = InvalidSeqNum;
    ThreadID tid = InvalidThreadID; //!< hardware context executing it
    Addr pc = 0;
    isa::DecodedInst di;
    bool palMode = false;  //!< fetched in PAL (handler) mode

    // --- Prediction state ----------------------------------------------
    bool predTaken = false;
    Addr predTarget = 0;
    BpredCheckpoint bpChk;

    // --- Functional results (filled at dispatch) ------------------------
    bool actTaken = false;
    Addr actTarget = 0;    //!< valid when actTaken
    Addr effVa = 0;        //!< memory ops: effective (virtual) address
    Addr effPa = 0;        //!< memory ops: physical address if mapped
    bool memMapped = false;//!< effective address had a valid translation
    uint64_t storeValue = 0;
    uint64_t tlbTag = 0;   //!< TLBWR payload captured at dispatch
    uint64_t tlbData = 0;
    uint64_t emulArg = 0;    //!< emulated inst: source operand bits
    uint64_t emulResult = 0; //!< emulated inst: exact result bits

    // --- Undo log (one register write + one memory write max) -----------
    // The register entry also names the instruction's destination in
    // the rename tables.
    RegFileKind undoKind = RegFileKind::None;
    uint8_t undoReg = 0;
    uint64_t undoValue = 0;
    bool hasMemUndo = false;
    Addr memUndoPa = 0;
    uint8_t memUndoSize = 0;
    uint64_t memUndoValue = 0;

    // --- Timing state ----------------------------------------------------
    InstStatus status = InstStatus::InFetchBuf;
    Cycle fetchDoneAt = 0;   //!< exits the fetch pipe
    Cycle windowAt = 0;      //!< entered the instruction window
    Cycle doneAt = MaxCycle; //!< completion
    unsigned depsPending = 0;
    std::vector<InstPtr> dependents; //!< woken at completion

    // Speculative rename bookkeeping: the writer this instruction
    // displaced in its thread's rename table, restored on squash.
    InstPtr prevWriter;

    // --- Exception bookkeeping ------------------------------------------
    bool causedTlbMiss = false; //!< this inst took a DTLB miss
    bool emulFault = false;     //!< parked on an emulation exception
    bool rfeForEmul = false;    //!< inline RFE: which handler it ends
                                //!< (stamped at fetch; a later trap may
                                //!< overwrite the thread-level kind)
    bool freeWindowSlot = false;//!< limit study: occupies no window slot

    // --- Classification helpers -----------------------------------------
    bool isLoad() const { return di.info->isLoad; }
    bool isStore() const { return di.info->isStore; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const { return di.info->isBranch; }
    bool isTlbwr() const { return di.op == isa::Opcode::Tlbwr; }
    bool isRfe() const { return di.op == isa::Opcode::Rfe; }
    bool isHardexc() const { return di.op == isa::Opcode::Hardexc; }
    bool isHalt() const { return di.op == isa::Opcode::Halt; }

    /** Serializing ops issue only as the oldest unfinished in-thread. */
    bool isSerializing() const { return isRfe() || isHardexc(); }

    bool inWindowLike() const
    {
        return status == InstStatus::InWindow ||
               status == InstStatus::TlbWait ||
               status == InstStatus::Issued || status == InstStatus::Done;
    }

    bool completed() const { return status == InstStatus::Done; }
    bool squashed() const { return status == InstStatus::Squashed; }

    /** Was the branch prediction wrong (direction or target)? */
    bool
    mispredicted() const
    {
        if (!isBranch())
            return false;
        if (actTaken != predTaken)
            return true;
        return actTaken && actTarget != predTarget;
    }

    // Stack/value copies (e.g. the trap path's fault snapshot) carry
    // the payload but stay outside the pool: only InstPtr drops ever
    // recycle, and no InstPtr is ever taken to a copy.

  private:
    friend class InstPtr;
    friend class DynInstPool;

    uint32_t poolRefs = 0;          //!< intrusive reference count
    DynInstPool *pool = nullptr;    //!< owner; null for stack instances
    DynInst *poolNext = nullptr;    //!< free-list link while recycled
};

} // namespace zmt

// The pool and the InstPtr method bodies need the complete DynInst;
// they live in a companion header included exactly here.
#include "core/instpool.hh"

#endif // ZMT_CORE_DYNINST_HH
