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
 */
class DispatchContext final
{
  public:
    DispatchContext(SmtCore &core, SmtCore::ThreadCtx &ctx, DynInst &inst)
        : core(core), ctx(ctx), inst(inst)
    {}

    uint64_t
    readIntReg(unsigned reg)
    {
        if (reg == isa::ZeroReg)
            return 0;
        return inst.palMode ? ctx.palRegs[reg] : ctx.arch.intRegs[reg];
    }

    void
    writeIntReg(unsigned reg, uint64_t value)
    {
        if (reg == isa::ZeroReg)
            return;
        if (inst.palMode) {
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
        return ctx.arch.readFp(reg);
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
        return ctx.arch.readPriv(pr);
    }

    void
    writePrivReg(isa::PrivReg pr, uint64_t value)
    {
        recordUndo(RegFileKind::Priv, unsigned(pr),
                   ctx.arch.readPriv(pr));
        ctx.arch.writePriv(pr, value);
    }

    Addr pc() const { return inst.pc; }

    uint64_t
    readMem(Addr addr, unsigned size)
    {
        inst.effVa = addr;
        if (inst.palMode) {
            inst.memMapped = true;
            inst.effPa = addr;
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
            inst.memMapped = false;
            inst.effPa = 0;
            return 0;
        }
        inst.memMapped = true;
        inst.effPa = loaded->pa;
        return loaded->value;
    }

    void
    writeMem(Addr addr, unsigned size, uint64_t value)
    {
        inst.effVa = addr;
        inst.storeValue = value;
        panic_if(inst.palMode,
                 "PAL handler performed a store (paper Sec 4.2 forbids)");
        AddressSpace &space = ctx.proc->space();
        auto old = space.load(addr, size);
        if (!old) {
            inst.memMapped = false;
            inst.effPa = 0;
            return;
        }
        inst.memMapped = true;
        inst.effPa = old->pa;
        inst.hasMemUndo = true;
        inst.memUndoPa = old->pa;
        inst.memUndoSize = uint8_t(size);
        inst.memUndoValue = old->value;
        space.store(addr, size, value);
    }

    void
    setNextPc(Addr target)
    {
        inst.actTaken = true;
        inst.actTarget = target;
    }

    void
    tlbWrite(uint64_t tag, uint64_t data)
    {
        inst.tlbTag = tag;
        inst.tlbData = data;
    }

    // Timing-level effects of these happen at execute, not dispatch.
    void returnFromException() {}
    void raiseHardException() {}
    void halt() {}

  private:
    void
    recordUndo(RegFileKind kind, unsigned reg, uint64_t old_value)
    {
        // Each instruction writes at most one register.
        if (inst.undoKind != RegFileKind::None)
            return;
        inst.undoKind = kind;
        inst.undoReg = uint8_t(reg);
        inst.undoValue = old_value;
    }

    SmtCore &core;
    SmtCore::ThreadCtx &ctx;
    DynInst &inst;
};

static_assert(ExecContext<DispatchContext>);

void
SmtCore::functionalExecute(ThreadCtx &ctx, const InstPtr &inst)
{
    DispatchContext dc(*this, ctx, *inst);
    executeInst(inst->di, dc);
}

namespace
{

/** Enumerate the source registers of an instruction. */
template <typename Fn>
void
forEachSrc(const isa::DecodedInst &di, bool pal_mode, Fn fn)
{
    using isa::Opcode;
    const auto &info = *di.info;
    RegFileKind ik = pal_mode ? RegFileKind::Pal : RegFileKind::Int;

    switch (di.op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Lui:
      case Opcode::Br:
      case Opcode::Bsr:
      case Opcode::Rfe:
      case Opcode::Hardexc:
        return;
      case Opcode::Mfpr:
        fn(RegFileKind::Priv, unsigned(di.imm));
        return;
      case Opcode::Mtpr:
        fn(ik, di.ra);
        return;
      case Opcode::Tlbwr:
        fn(RegFileKind::Priv, unsigned(isa::PrivReg::TlbTag));
        fn(RegFileKind::Priv, unsigned(isa::PrivReg::TlbData));
        return;
      case Opcode::Jsr:
        fn(ik, di.rb);
        return;
      case Opcode::Ret:
      case Opcode::Jmp:
        fn(ik, di.ra);
        return;
      case Opcode::Itof:
        fn(ik, di.ra);
        return;
      case Opcode::Ftoi:
        fn(RegFileKind::Fp, di.ra);
        return;
      case Opcode::Fsqrt:
        fn(RegFileKind::Fp, di.ra);
        return;
      default:
        break;
    }

    if (info.isFp) {
        fn(RegFileKind::Fp, di.ra);
        fn(RegFileKind::Fp, di.rb);
        return;
    }
    if (info.isLoad) {
        fn(ik, di.rb);
        return;
    }
    if (info.isStore) {
        fn(ik, di.ra);
        fn(ik, di.rb);
        return;
    }
    if (info.isConditional) {
        fn(ik, di.ra);
        return;
    }
    if (info.isImmFormat) {
        fn(ik, di.rb);
        return;
    }
    // Register-format integer op.
    fn(ik, di.ra);
    fn(ik, di.rb);
}

} // anonymous namespace

void
SmtCore::linkDependencies(ThreadCtx &ctx, const InstPtr &inst)
{
    auto writer_slot = [&](RegFileKind kind, unsigned reg) -> InstPtr & {
        switch (kind) {
          case RegFileKind::Int:  return ctx.intWriter[reg];
          case RegFileKind::Fp:   return ctx.fpWriter[reg];
          case RegFileKind::Pal:  return ctx.palWriter[reg];
          case RegFileKind::Priv: return ctx.privWriter[reg];
          case RegFileKind::None: break;
        }
        panic("bad register file kind");
        return ctx.intWriter[0];
    };

    forEachSrc(inst->di, inst->palMode,
               [&](RegFileKind kind, unsigned reg) {
                   if (kind != RegFileKind::Priv && reg == isa::ZeroReg)
                       return;
                   InstPtr &writer = writer_slot(kind, reg);
                   if (writer && !writer->completed() &&
                       writer->status != InstStatus::Retired &&
                       !writer->squashed()) {
                       writer->dependents.push_back(inst);
                       ++inst->depsPending;
                   }
               });

    // Destination: displace the previous writer, remembering it for
    // squash rollback.
    RegFileKind dk = RegFileKind::None;
    unsigned di_idx = 0;
    if (inst->di.op == isa::Opcode::Mtpr) {
        dk = RegFileKind::Priv;
        di_idx = unsigned(inst->di.imm);
    } else {
        int dest = inst->di.destReg();
        if (dest >= 0) {
            if (inst->di.destIsFp())
                dk = RegFileKind::Fp;
            else
                dk = inst->palMode ? RegFileKind::Pal : RegFileKind::Int;
            di_idx = unsigned(dest);
        }
    }
    if (dk != RegFileKind::None) {
        InstPtr &slot = writer_slot(dk, di_idx);
        inst->destKind = dk;
        inst->destIdx = uint8_t(di_idx);
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

    functionalExecute(ctx, inst);

    if (params.except.emulateFsqrt && !inst->palMode &&
        inst->di.op == isa::Opcode::Fsqrt && inst->di.destReg() >= 0) {
        inst->emulResult = ctx.arch.readFp(unsigned(inst->di.destReg()));
    }
    linkDependencies(ctx, inst);

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
