/**
 * @file
 * The functional reference machine: executes one process with perfect
 * translation and no timing. Used as the golden model in cross-checks
 * against the timing core (every mechanism must produce the identical
 * architectural result) and by workload calibration.
 */

#ifndef ZMT_KERNEL_FUNCMACHINE_HH
#define ZMT_KERNEL_FUNCMACHINE_HH

#include <cstdint>

#include "kernel/emulator.hh"
#include "kernel/process.hh"

namespace zmt
{

class SuperblockCache;
class WarmTrace;

/** Snapshot of the architecturally visible result of a run. */
struct ArchResult
{
    uint64_t instsExecuted = 0;
    ArchState finalState;
    /** FNV-1a hash of all retired store (addr,value) pairs, in order. */
    uint64_t storeHash = 0xcbf29ce484222325ULL;
    bool halted = false;

    /** Fold one store into the running hash. */
    void
    noteStore(Addr va, uint64_t value)
    {
        auto mix = [this](uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                storeHash ^= (v >> (8 * i)) & 0xff;
                storeHash *= 0x100000001b3ULL;
            }
        };
        mix(va);
        mix(value);
    }
};

/** Functional interpreter for one process; models ExecContext. */
class FuncMachine final
{
  public:
    FuncMachine(Process &proc, PhysMem &mem);

    /**
     * Run up to max_insts instructions (or until HALT).
     * @return what happened, architecturally
     */
    ArchResult run(uint64_t max_insts);

    /** Execute a single instruction. @return false once halted. */
    bool step();

    /**
     * Fast-forward up to @p max_insts instructions through the
     * superblock translation cache (kernel/ffwd.hh): straight-line
     * blocks are discovered once, their decoded bodies memoized, and
     * execution runs block-at-a-time instead of fetch/decode/dispatch
     * per instruction. Stops at a precise instruction boundary (the
     * block tail falls back to step()) so the final state is exactly
     * what max_insts calls to step() would produce — the
     * checkpoint-precision requirement. Implemented in ffwd.cc.
     *
     * @return instructions actually executed (less than max_insts only
     *         when the program halts)
     */
    uint64_t runFast(uint64_t max_insts, SuperblockCache &blocks);

    /**
     * Record warm-state touches (TLB pages, cache lines) into @p trace
     * during subsequent execution; null detaches. Purely observational
     * — execution results are bit-identical with or without it.
     */
    void attachWarmTrace(WarmTrace *trace) { warmTrace = trace; }

    const ArchState &state() const { return archState; }
    ArchState &state() { return archState; }
    bool halted() const { return isHalted; }
    uint64_t executed() const { return result.instsExecuted; }
    uint64_t storeHash() const { return result.storeHash; }

    // ExecContext model -----------------------------------------------
    uint64_t readIntReg(unsigned reg) { return archState.readInt(reg); }
    void
    writeIntReg(unsigned reg, uint64_t value)
    {
        archState.writeInt(reg, value);
    }
    uint64_t readFpReg(unsigned reg) { return archState.readFp(reg); }
    void
    writeFpReg(unsigned reg, uint64_t value)
    {
        archState.writeFp(reg, value);
    }
    uint64_t readPrivReg(isa::PrivReg pr) { return archState.readPriv(pr); }
    void
    writePrivReg(isa::PrivReg pr, uint64_t value)
    {
        archState.writePriv(pr, value);
    }
    Addr pc() const { return archState.pc; }
    uint64_t readMem(Addr addr, unsigned size);
    void writeMem(Addr addr, unsigned size, uint64_t value);
    void setNextPc(Addr target) { nextPc = target; }
    /** Perfect translation: TLB writes are timing-only effects. */
    void tlbWrite(uint64_t tag, uint64_t data) {}
    void returnFromException();
    void raiseHardException();
    void halt() { isHalted = true; }

    Process &process() { return proc; }

  private:
    Process &proc;
    PhysMem &mem;
    ArchState archState;
    ArchResult result;
    Addr nextPc = 0;
    bool isHalted = false;
    WarmTrace *warmTrace = nullptr;
};

static_assert(ExecContext<FuncMachine>);

} // namespace zmt

#endif // ZMT_KERNEL_FUNCMACHINE_HH
