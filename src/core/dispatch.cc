/**
 * @file
 * Decode/dispatch stage. Instructions leave the per-thread fetch
 * buffers in fetch order, are executed *functionally* against the
 * thread's speculative architectural state (recording undo
 * information), have their register dependences linked through the
 * speculative rename tables, and enter the instruction window —
 * subject to capacity, the handler window reservation, and the
 * deadlock-avoidance squash (paper Section 4.4).
 */

#include <cstdio>

#include "core/core.hh"
#include "common/logging.hh"
#include "core/helper.hh"
#include "kernel/emulator.hh"

namespace zmt
{

/**
 * ExecContext model used at dispatch: reads and writes the thread's
 * speculative state, captures undo info and side effects into the
 * DynInst. PAL-mode instructions use the context's shadow integer
 * registers and physical addressing, mirroring Alpha PALcode.
 *
 * Register dependences come from the semantics themselves: each
 * register executeInst reads (r31/f31 excepted) links the
 * instruction to that register's in-flight writer, so there is no
 * second, hand-kept list of operands to fall out of step with it.
 */
class DispatchContext final
{
  public:
    DispatchContext(SmtCore &core, SmtCore::ThreadCtx &ctx,
                    const InstPtr &inst)
        : core(core), ctx(ctx), inst(inst)
    {}

    uint64_t
    readIntReg(unsigned reg)
    {
        if (reg == isa::ZeroReg)
            return 0;
        if (inst->palMode) {
            dependOn(RegFileKind::Pal, reg);
            return ctx.palRegs[reg];
        }
        dependOn(RegFileKind::Int, reg);
        return ctx.arch.intRegs[reg];
    }

    void
    writeIntReg(unsigned reg, uint64_t value)
    {
        if (reg == isa::ZeroReg)
            return;
        if (inst->palMode) {
            recordUndo(RegFileKind::Pal, reg, ctx.palRegs[reg]);
            ctx.palRegs[reg] = value;
        } else {
            recordUndo(RegFileKind::Int, reg, ctx.arch.intRegs[reg]);
            ctx.arch.intRegs[reg] = value;
        }
    }

    uint64_t
    readFpReg(unsigned reg)
    {
        if (reg == isa::ZeroReg)
            return 0;
        dependOn(RegFileKind::Fp, reg);
        return ctx.arch.fpRegs[reg];
    }

    void
    writeFpReg(unsigned reg, uint64_t value)
    {
        if (reg == isa::ZeroReg)
            return;
        recordUndo(RegFileKind::Fp, reg, ctx.arch.fpRegs[reg]);
        ctx.arch.fpRegs[reg] = value;
    }

    uint64_t
    readPrivReg(isa::PrivReg pr)
    {
        dependOn(RegFileKind::Priv, unsigned(pr));
        return ctx.arch.readPriv(pr);
    }

    void
    writePrivReg(isa::PrivReg pr, uint64_t value)
    {
        recordUndo(RegFileKind::Priv, unsigned(pr),
                   ctx.arch.readPriv(pr));
        ctx.arch.writePriv(pr, value);
    }

    Addr pc() const { return inst->pc; }

    uint64_t
    readMem(Addr addr, unsigned size)
    {
        inst->effVa = addr;
        if (inst->palMode) {
            inst->memMapped = true;
            inst->effPa = addr;
            uint64_t value = core.physMem.read(addr, size);
            if (core.injector && ctx.isHandler()) {
                // Injected invalid PTE: a one-shot shadow override on
                // this handler's PTE read (memory itself is untouched,
                // so the post-reversion inline handler sees the real,
                // valid PTE and the golden model stays undisturbed).
                value = core.injector->filterPteRead(addr, value);
            }
            return value;
        }
        auto loaded = ctx.proc->space().load(addr, size);
        if (!loaded) {
            // Wild wrong-path access: no data, but the timing model
            // still sees the address (cache/TLB pollution).
            inst->memMapped = false;
            inst->effPa = 0;
            return 0;
        }
        inst->memMapped = true;
        inst->effPa = loaded->pa;
        return loaded->value;
    }

    void
    writeMem(Addr addr, unsigned size, uint64_t value)
    {
        inst->effVa = addr;
        inst->storeValue = value;
        panic_if(inst->palMode,
                 "PAL handler performed a store (paper Sec 4.2 forbids)");
        AddressSpace &space = ctx.proc->space();
        auto old = space.load(addr, size);
        if (!old) {
            inst->memMapped = false;
            inst->effPa = 0;
            return;
        }
        inst->memMapped = true;
        inst->effPa = old->pa;
        inst->hasMemUndo = true;
        inst->memUndoPa = old->pa;
        inst->memUndoSize = uint8_t(size);
        inst->memUndoValue = old->value;
        space.store(addr, size, value);
    }

    void
    setNextPc(Addr target)
    {
        inst->actTaken = true;
        inst->actTarget = target;
    }

    void
    tlbWrite(uint64_t tag, uint64_t data)
    {
        inst->tlbTag = tag;
        inst->tlbData = data;
    }

    // Timing-level effects of these happen at execute, not dispatch.
    void returnFromException() {}
    void raiseHardException() {}
    void halt() {}

  private:
    /** Wait for the register's writer if it has not produced it yet. */
    void
    dependOn(RegFileKind kind, unsigned reg)
    {
        const InstPtr &writer = ctx.writerOf(kind, reg);
        if (writer && !writer->completed() &&
            writer->status != InstStatus::Retired && !writer->squashed()) {
            writer->dependents.push_back(inst);
            ++inst->depsPending;
        }
    }

    void
    recordUndo(RegFileKind kind, unsigned reg, uint64_t old_value)
    {
        // Each instruction writes at most one register.
        if (inst->undoKind != RegFileKind::None)
            return;
        inst->undoKind = kind;
        inst->undoReg = uint8_t(reg);
        inst->undoValue = old_value;
    }

    SmtCore &core;
    SmtCore::ThreadCtx &ctx;
    const InstPtr &inst;
};

static_assert(ExecContext<DispatchContext>);

void
SmtCore::executeAndLink(ThreadCtx &ctx, const InstPtr &inst)
{
    DispatchContext dc(*this, ctx, inst);
    executeInst(inst->di, dc);

    // The register written, its undo entry, is renamed to this
    // instruction; the writer it displaces is restored on squash.
    if (inst->undoKind != RegFileKind::None) {
        InstPtr &slot = ctx.writerOf(inst->undoKind, inst->undoReg);
        inst->prevWriter = slot;
        slot = inst;
    }
}

unsigned
SmtCore::effectiveWindowSize() const
{
    return injector
               ? injector->effectiveWindow(curCycle,
                                           params.core.windowSize)
               : params.core.windowSize;
}

bool
SmtCore::windowHasRoomFor(const ThreadCtx &ctx, const DynInst &inst) const
{
    if (inst.freeWindowSlot)
        return true;
    if (ctx.isHandler())
        return windowCount < effectiveWindowSize();
    // Application threads may not consume slots reserved for handlers
    // spawned on their behalf (other app threads are unrestricted —
    // paper Section 4.4).
    return windowCount + reservedAgainst(ctx.id) < effectiveWindowSize();
}

void
SmtCore::dispatchInst(ThreadCtx &ctx, const InstPtr &inst)
{
    inst->freeWindowSlot =
        ctx.isHandler() && params.except.freeHandlerWindow;

    if (params.except.emulateFsqrt && !inst->palMode &&
        inst->di.op == isa::Opcode::Fsqrt) {
        // Capture the source operand before execution overwrites a
        // possibly-aliased destination; the exact result is captured
        // after (both are staged for the emulation handler).
        inst->emulArg = ctx.arch.readFp(inst->di.ra);
    }

    executeAndLink(ctx, inst);

    if (params.except.emulateFsqrt && !inst->palMode &&
        inst->di.op == isa::Opcode::Fsqrt && inst->di.destReg() >= 0) {
        inst->emulResult = ctx.arch.readFp(unsigned(inst->di.destReg()));
    }

    inst->windowAt = curCycle;
    inst->status = InstStatus::InWindow;
    if (!inst->freeWindowSlot)
        ++windowCount;
    // One still waiting on a producer is listed by completeInst()
    // when its last operand arrives.
    if (inst->depsPending == 0)
        insertIntoReadyList(inst);
    obsEmit(obs::EventKind::Dispatched, *inst);

    if (helpers->prefetchOn() && ctx.isApp() && !inst->palMode &&
        inst->isLoad() && inst->memMapped) [[unlikely]]
        helpers->onDispatch(ctx, *inst);

    if (ctx.isHandler()) {
        if (ExcRecord *record = recordForHandler(ctx.id)) {
            if (record->reservedRemaining > 0)
                --record->reservedRemaining;
        }
    }
}

void
SmtCore::handlerWindowDeadlock(ThreadCtx &handler_ctx)
{
    // The handler has instructions ready for the window but no slots
    // are free, and the master cannot retire (its head is the parked
    // excepting instruction): squash enough of the master's youngest
    // window-resident instructions to make room for the *rest of the
    // handler* in one go — never the excepting instruction itself
    // (paper Section 4.4).
    ExcRecord *record = recordForHandler(handler_ctx.id);
    if (!record)
        return;
    ThreadCtx &master = *contexts[record->master];

    // If the master can still retire (its head is not the parked
    // excepting instruction), slots will drain on their own.
    if (master.inflight.empty() ||
        master.inflight.front().get() != record->faultInst.get()) {
        return;
    }

    unsigned not_fetched =
        handler_ctx.handlerLen > handler_ctx.handlerFetched
            ? handler_ctx.handlerLen - handler_ctx.handlerFetched
            : 0;
    unsigned needed =
        unsigned(handler_ctx.fetchBuf.size()) + not_fetched;
    if (needed == 0)
        return;

    // Youngest-first, collect up to `needed` squashable window
    // residents younger than the excepting instruction.
    InstPtr oldest_victim;
    unsigned found = 0;
    for (auto it = master.inflight.rbegin(); it != master.inflight.rend();
         ++it) {
        const InstPtr &inst = *it;
        if (inst->seq <= record->faultInst->seq)
            break;
        if (!inst->inWindowLike() || inst->freeWindowSlot)
            continue;
        oldest_victim = inst;
        if (++found >= needed)
            break;
    }
    if (!oldest_victim)
        return; // nothing squashable: stall the handler

    ++deadlockSquashes;
    obsEmitTid(obs::EventKind::DeadlockSquash, master.id, needed,
               oldest_victim->seq);
    Addr resume_pc = oldest_victim->pc;
    bool resume_pal = oldest_victim->palMode;
    BpredCheckpoint chk = oldest_victim->bpChk;
    squashFrom(master, oldest_victim->seq);
    bpred->restore(master.id, chk);
    master.fetchPc = resume_pc;
    master.fetchPal = resume_pal;
}

void
SmtCore::doDispatch()
{
    unsigned budget = params.core.width;
    for (ThreadCtx *ctx : fetchOrder()) {
        bool free_bw =
            ctx->isHandler() && params.except.freeHandlerFetchBw;
        while ((budget > 0 || free_bw) && !ctx->fetchBuf.empty()) {
            InstPtr head = ctx->fetchBuf.front();
            if (head->fetchDoneAt + params.core.decodeDepth > curCycle)
                break;
            if (!windowHasRoomFor(*ctx, *head)) {
                // The tail squash is a last resort for a *true*
                // deadlock: the window is full and nothing is
                // retiring. With a single application that state is
                // final (the master is blocked on the parked excepting
                // instruction), so resolve it quickly. With multiple
                // applications, another thread's stalled head usually
                // drains once its memory access returns — only a stall
                // longer than the memory latency indicates deadlock
                // (paper Section 4.4: "an extremely rare occurrence").
                ++ctx->dispatchBlockedCycles;
                Cycle stall_limit =
                    numApps == 1 ? 4 : params.mem.memLatency + 70;
                if (ctx->isHandler() && params.except.deadlockSquash &&
                    ctx->dispatchBlockedCycles >= 2 &&
                    curCycle - lastRetireCycle >= stall_limit) {
                    handlerWindowDeadlock(*ctx);
                    ctx->dispatchBlockedCycles = 0;
                }
                break;
            }
            ctx->dispatchBlockedCycles = 0;
            ctx->fetchBuf.pop_front();
            dispatchInst(*ctx, head);
            if (!free_bw && budget > 0)
                --budget;
        }
    }
}

} // namespace zmt
