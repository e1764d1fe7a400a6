/**
 * @file
 * Completion stage: drains the completion queue, wakes dependents,
 * resolves branches (mispredict squash + predictor repair), applies
 * the timing-level effects of TLBWR / RFE / HARDEXC, and consumes
 * finished hardware page walks. Also hosts the per-mechanism TLB-miss
 * dispatch (paper Sections 4.1, 4.3, 4.5).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/core.hh"
#include "common/logging.hh"
#include "core/helper.hh"

namespace zmt
{

void
SmtCore::doComplete()
{
    completionQueue.drain(curCycle, [this](const InstPtr &inst) {
        if (!inst->squashed())
            completeInst(inst);
    });
    if (params.except.mech == ExceptMech::Hardware)
        processWalker();
}

void
SmtCore::completeInst(const InstPtr &inst)
{
    inst->status = InstStatus::Done;
    obsEmit(obs::EventKind::Completed, *inst);

    for (const InstPtr &dep : inst->dependents) {
        if (dep->squashed() || dep->depsPending == 0)
            continue;
        if (--dep->depsPending == 0 && dep->status == InstStatus::InWindow)
            insertIntoReadyList(dep);
    }
    inst->dependents.clear();

    if (inst->isTlbwr()) {
        onTlbwrExecute(inst);
    } else if (inst->isRfe()) {
        onRfeExecute(inst);
    } else if (inst->di.op == isa::Opcode::Emulwr) {
        onEmulwrExecute(inst);
    } else if (inst->isHardexc()) {
        onHardexcExecute(inst);
    } else if (inst->isBranch()) {
        resolveBranch(inst);
    }
}

void
SmtCore::resolveBranch(const InstPtr &inst)
{
    // Training happens at retirement so wrong-path outcomes never
    // pollute the tables; only recovery happens here.
    ThreadCtx &ctx = ctxOf(*inst);
    if (!inst->mispredicted())
        return;

    ++branchSquashes;
    if (inst->di.info->isReturn)
        ++bpred->rasMispredicts;
    else if (inst->di.info->isIndirect)
        ++bpred->indirectMispredicts;
    else if (inst->di.info->isConditional)
        ++bpred->condMispredicts;
    squashFrom(ctx, inst->seq + 1);
    bpred->squashRestore(ctx.id, inst->pc, inst->di, inst->actTaken,
                         inst->bpChk);
    ctx.fetchPc = inst->actTaken ? inst->actTarget : inst->pc + 4;
    ctx.fetchPal = inst->palMode;
    if (ctx.isHandler()) {
        // A mispredict inside the handler (the page-fault check):
        // fetch must continue past the predicted handler length.
        ctx.handlerLenCapped = false;
    }
}

void
SmtCore::onTlbwrExecute(const InstPtr &inst)
{
    ThreadCtx &ctx = ctxOf(*inst);
    Asn asn;
    if (ctx.isHandler()) {
        ExcRecord *record = recordForHandler(ctx.id);
        panic_if(!record, "handler context with no exception record");
        asn = record->asn;
        record->filled = true;
    } else {
        asn = asnOf(ctx); // traditional inline handler
    }
    obsEmit(obs::EventKind::Fill, *inst, inst->tlbTag);
    tlb->insert(asn, inst->tlbTag);
    installFill(asn, inst->tlbTag);
}

void
SmtCore::installFill(Asn asn, Addr va)
{
    Addr vpn = pageNum(va);
    for (auto it = parked.begin(); it != parked.end();) {
        InstPtr &waiter = *it;
        if (waiter->squashed()) {
            it = parked.erase(it);
            continue;
        }
        ThreadCtx &wctx = ctxOf(**&waiter);
        if (wctx.proc && wctx.proc->asn() == asn &&
            pageNum(waiter->effVa) == vpn &&
            waiter->status == InstStatus::TlbWait) {
            obsEmit(obs::EventKind::Wake, *waiter, vpn);
            waiter->status = InstStatus::InWindow; // re-schedule
            it = parked.erase(it);
        } else {
            ++it;
        }
    }
}

void
SmtCore::onRfeExecute(const InstPtr &inst)
{
    ThreadCtx &ctx = ctxOf(*inst);
    if (ctx.isHandler()) {
        // Nothing at execute: the retirement splice completes the
        // exception; the handler context has stopped fetching already.
        return;
    }
    // Traditional inline handler: redirect fetch back to the faulting
    // instruction. The target was not predicted (no RAS-like mechanism
    // for exception returns, Section 3), so the pipe refills from here.
    obsEmit(obs::EventKind::HandlerRet, *inst);
    ctx.fetchPal = false;
    ctx.fetchPc = ctx.pendingReturnPc;
    ctx.stalledRfe = false;
}

void
SmtCore::onHardexcExecute(const InstPtr &inst)
{
    ThreadCtx &ctx = ctxOf(*inst);
    if (!ctx.isHandler()) {
        // An inline handler found an invalid PTE. On the correct path
        // this would be a real page fault (the workloads never fault);
        // on a wild wrong path the thread simply waits for the
        // inevitable squash from an older mispredicted branch.
        ctx.deadEnd = true;
        return;
    }

    // Multithreaded handler requests reversion to the traditional
    // mechanism (paper Section 4.3): throw away the handler thread's
    // work, squash the master from the excepting instruction, and
    // re-execute the whole handler inline.
    ExcRecord *record = recordForHandler(ctx.id);
    panic_if(!record, "handler context with no exception record");
    ++hardReverts;
    obsEmitTid(obs::EventKind::Revert, ctx.id, uint64_t(record->master));

    ThreadCtx &master = *contexts[record->master];
    InstPtr fault = record->faultInst; // outlives the squash

    ++trapSquashes;
    squashFrom(master, fault->seq); // also reclaims this handler ctx
    enterInlineHandler(master, *fault, ExcKind::TlbMiss);
    // The reversion re-runs the handling inline: open a fresh trap
    // handling on the master (the reversion path bypasses
    // trapTraditional, which would otherwise emit this).
    obsEmitTid(obs::EventKind::Trap, master.id, pageNum(fault->effVa),
               fault->seq);
}

void
SmtCore::processWalker()
{
    for (const WalkResult &walk : walker->collectFinished(curCycle)) {
        uint64_t key = obs::walkKey(walk.asn, pageNum(walk.va));
        if (walk.squashed) {
            obsEmitTid(obs::EventKind::WalkAbort, InvalidThreadID, key,
                       walk.faultSeq);
            continue; // paper: fill only if not squashed by completion
        }
        uint64_t pte = physMem.read64(walk.pteAddr);
        if (!Pte::valid(pte)) {
            // Wild wrong-path walk found an invalid PTE: no fill; the
            // parked instruction dies with its squash.
            obsEmitTid(obs::EventKind::WalkAbort, InvalidThreadID, key,
                       walk.faultSeq);
            continue;
        }
        obsEmitTid(obs::EventKind::WalkDone, InvalidThreadID, key,
                   walk.faultSeq);
        tlb->insert(walk.asn, walk.va);
        installFill(walk.asn, walk.va);
    }
}

void
SmtCore::seedPrivRegs(ThreadCtx &ctx, const ThreadCtx &app_ctx, Addr va,
                      Addr fault_pc)
{
    using isa::PrivReg;
    panic_if(!app_ctx.proc, "seeding priv regs without a process");
    ctx.arch.writePriv(PrivReg::FaultVa, va);
    ctx.arch.writePriv(PrivReg::Ptbr, app_ctx.proc->space().ptbr());
    ctx.arch.writePriv(PrivReg::FaultAsn, app_ctx.proc->asn());
    ctx.arch.writePriv(PrivReg::ExcAddr, fault_pc);
    // VA_FORM: the hardware forms the PTE address for the handler,
    // as on the 21164.
    ctx.arch.writePriv(PrivReg::PteAddr, app_ctx.proc->space().pteAddr(va));
}

Addr
SmtCore::handlerEntry(ExcKind kind) const
{
    return kind == ExcKind::TlbMiss ? pal.dtbMissEntry
                                    : pal.emulFsqrtEntry;
}

unsigned
SmtCore::handlerLen(ExcKind kind) const
{
    return kind == ExcKind::TlbMiss ? pal.dtbMissLen : pal.emulFsqrtLen;
}

void
SmtCore::seedEmulRegs(ThreadCtx &ctx, const DynInst &fault)
{
    using isa::PrivReg;
    // The exception hardware exposes the excepting instruction's
    // source operand and destination register to the handler (paper
    // Section 6: "we keep track of those register identifiers"), plus
    // the architecturally exact result committed by EMULWR. A result
    // bound for f31 stays discarded.
    ctx.arch.writePriv(PrivReg::EmulArg, fault.emulArg);
    ctx.arch.writePriv(PrivReg::EmulDest, fault.di.destReg() >= 0
                                              ? uint64_t(fault.di.destReg())
                                              : isa::ZeroReg);
    ctx.arch.writePriv(PrivReg::EmulResult, fault.emulResult);
    ctx.arch.writePriv(PrivReg::ExcAddr, fault.pc);
}

void
SmtCore::onEmulFault(const InstPtr &inst)
{
    ++emulFaultsSeen;
    inst->emulFault = true;
    obsEmit(obs::EventKind::EmulDetect, *inst);

    switch (params.except.mech) {
      case ExceptMech::PerfectTlb:
      case ExceptMech::Traditional:
      case ExceptMech::Hardware:
        // No hardware FSM can emulate an instruction (the paper's
        // point about exceptions that "cannot be implemented in
        // hardware state machines"): everything but the multithreaded
        // mechanism falls back to the trap.
        trapTraditional(inst, ExcKind::EmulFsqrt);
        return;
      case ExceptMech::Multithreaded:
      case ExceptMech::QuickStart:
        spawnMtHandler(inst, ExcKind::EmulFsqrt);
        return;
    }
}

void
SmtCore::onEmulwrExecute(const InstPtr &inst)
{
    ThreadCtx &ctx = ctxOf(*inst);
    if (!ctx.isHandler())
        return; // inline trap: the dispatch-time write did the work

    // Multithreaded path: the parked excepting instruction is
    // converted to a NOP and its consumers are marked ready and
    // scheduled normally (paper Section 6).
    ExcRecord *record = recordForHandler(ctx.id);
    panic_if(!record, "EMULWR in a handler without a record");
    obsEmit(obs::EventKind::Fill, *inst);
    InstPtr fault = record->faultInst;
    if (fault && fault->status == InstStatus::TlbWait &&
        !fault->squashed()) {
        for (auto it = parked.begin(); it != parked.end(); ++it) {
            if (it->get() == fault.get()) {
                parked.erase(it);
                break;
            }
        }
        completeInst(fault);
    }
    record->filled = true;
}

void
SmtCore::onTlbMiss(const InstPtr &inst)
{
    ThreadCtx &ctx = ctxOf(*inst);
    Asn asn = asnOf(ctx);
    Addr vpn = pageNum(inst->effVa);
    ++tlbMissesSeen;
    obsEmit(obs::EventKind::MissDetect, *inst, vpn);

    switch (params.except.mech) {
      case ExceptMech::PerfectTlb:
        panic("TLB miss under a perfect TLB");
        return;

      case ExceptMech::Traditional:
        trapTraditional(inst, ExcKind::TlbMiss);
        return;

      case ExceptMech::Hardware: {
        if (walker->walking(asn, inst->effVa)) {
            walker->relink(asn, inst->effVa, inst->seq);
            obsEmit(obs::EventKind::Park, *inst, vpn);
            parked.push_back(inst);
            return;
        }
        inst->causedTlbMiss = true;
        Addr pte_addr = ctx.proc->space().pteAddr(inst->effVa);
        walker->startWalk(asn, inst->effVa, pte_addr, inst->seq);
        obsEmit(obs::EventKind::WalkStart, *inst,
                obs::walkKey(asn, vpn));
        obsEmit(obs::EventKind::Park, *inst, vpn);
        parked.push_back(inst);
        return;
      }

      case ExceptMech::Multithreaded:
      case ExceptMech::QuickStart: {
        // Secondary miss to a page already being handled (Sec 4.5).
        if (ExcRecord *record = recordForPage(asn, vpn)) {
            if (inst->seq < record->faultInst->seq) {
                if (params.except.relinkSecondaryMiss) {
                    // Re-link the handler thread to the older
                    // excepting instruction: the splice point moves.
                    record->faultInst = inst;
                    ++relinks;
                    obsEmitTid(obs::EventKind::Relink, record->handler,
                               vpn, inst->seq);
                    obsEmit(obs::EventKind::Park, *inst, vpn);
                    parked.push_back(inst);
                } else {
                    // Without relinking: squash and re-fetch at the
                    // correct (older) boundary — the squash reclaims
                    // the in-flight handler.
                    trapTraditional(inst, ExcKind::TlbMiss);
                }
            } else {
                obsEmit(obs::EventKind::Park, *inst, vpn);
                parked.push_back(inst);
            }
            return;
        }
        spawnMtHandler(inst, ExcKind::TlbMiss);
        return;
      }
    }
}

void
SmtCore::spawnMtHandler(const InstPtr &inst, ExcKind kind)
{
    ThreadCtx &master = ctxOf(*inst);

    ThreadCtx *idle = helpers->acquire();
    if (!idle) {
        // More exceptions than idle contexts: revert to the
        // traditional mechanism (the paper's advocated option).
        ++mtFallbacks;
        obsEmit(obs::EventKind::Fallback, *inst);
        trapTraditional(inst, kind);
        return;
    }

    ++mtSpawns;
    obsEmit(obs::EventKind::Spawn, *inst, uint64_t(idle->id),
            kind == ExcKind::EmulFsqrt ? obs::EvEmul : 0);
    if (kind == ExcKind::TlbMiss)
        inst->causedTlbMiss = true;

    ThreadCtx &h = *idle;
    helpers->bind(h, master, handlerEntry(kind), handlerLen(kind));
    if (kind == ExcKind::TlbMiss) {
        seedPrivRegs(h, master, inst->effVa, inst->pc);
        if (injector) {
            injector->maybeArmBadPte(
                master.proc->space().pteAddr(inst->effVa));
        }
    } else {
        seedEmulRegs(h, *inst);
    }

    ExcRecord record;
    record.kind = kind;
    record.master = master.id;
    record.handler = h.id;
    record.asn = asnOf(master);
    record.vpn = kind == ExcKind::TlbMiss ? pageNum(inst->effVa) : 0;
    record.faultInst = inst;
    record.reservedRemaining =
        params.except.windowReservation ? handlerLen(kind) : 0;
    records.push_back(std::move(record));

    obsEmit(obs::EventKind::Park, *inst,
            kind == ExcKind::TlbMiss ? pageNum(inst->effVa) : 0);
    parked.push_back(inst);

    if (params.except.instantHandlerFetch) {
        // Limit study: the handler appears decoded in the window the
        // cycle the miss is detected.
        prefillQuickStart(h);
        while (!h.fetchBuf.empty()) {
            InstPtr head = h.fetchBuf.front();
            h.fetchBuf.pop_front();
            dispatchInst(h, head);
        }
        return;
    }

    if (params.except.mech == ExceptMech::QuickStart) {
        // History-based exception-type prediction (Section 5.4): the
        // idle buffer holds the *predicted* handler; a different
        // actual type means a cold start.
        bool right_type = predictedExcType == kind;
        if (!right_type)
            ++qsTypeMispredicts;
        if (curCycle >= h.warmReadyAt && right_type) {
            ++qsWarmStarts;
            obsEmitTid(obs::EventKind::QsWarm, h.id);
            prefillQuickStart(h);
        } else {
            ++qsColdStarts; // falls back to normal handler fetch
            obsEmitTid(obs::EventKind::QsCold, h.id);
        }
        predictedExcType = kind;
    }
}

void
SmtCore::trapTraditional(const InstPtr &inst, ExcKind kind)
{
    ThreadCtx &ctx = ctxOf(*inst);
    panic_if(!ctx.isApp(), "traditional trap on a non-app context");

    ++trapSquashes;
    obsEmit(obs::EventKind::Trap, *inst,
            kind == ExcKind::TlbMiss ? pageNum(inst->effVa) : 0,
            kind == ExcKind::EmulFsqrt ? obs::EvEmul : 0);
    DynInst fault_copy = *inst; // survives the squash for seeding

    // Squash the excepting instruction and everything younger
    // (paper Figure 1a), then fetch the handler inline.
    squashFrom(ctx, inst->seq);
    enterInlineHandler(ctx, fault_copy, kind);
}

void
SmtCore::enterInlineHandler(ThreadCtx &ctx, const DynInst &fault,
                            ExcKind kind)
{
    bpred->restore(ctx.id, fault.bpChk);
    if (kind == ExcKind::TlbMiss) {
        seedPrivRegs(ctx, ctx, fault.effVa, fault.pc);
        // Refetch restarts at the excepting instruction.
        ctx.pendingReturnPc = fault.pc;
    } else {
        seedEmulRegs(ctx, fault);
        // The emulated instruction is completed by the handler
        // (EMULWR); execution resumes *after* it.
        ctx.pendingReturnPc = fault.pc + 4;
    }
    // Fetch marks the handler's RFE by this kind: a stale EmulFsqrt
    // would retire a DTB-miss handler as a finished emulation.
    ctx.pendingExcKind = kind;
    ctx.fetchPal = true;
    ctx.fetchPc = handlerEntry(kind);
}

} // namespace zmt
