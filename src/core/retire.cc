/**
 * @file
 * Retirement and squash. Retirement is in-order per thread with
 * unlimited bandwidth (Table 1); the multithreaded mechanism splices
 * the handler thread into the master's retirement stream: the master
 * halts at the excepting instruction, the handler retires in its
 * entirety (through RFE), the context returns to idle, and the master
 * resumes (paper Figure 1c and Section 4.1).
 *
 * Squash rolls speculative architectural state back youngest-first via
 * each instruction's undo log, repairs the rename tables, cancels
 * dependent exception records (reclaiming handler threads) and
 * abandons page-table walks.
 */

#include <cstdio>
#include <cstdlib>

#include "core/core.hh"
#include "core/helper.hh"
#include "common/logging.hh"

namespace zmt
{

bool
SmtCore::retireBlocked(ThreadCtx &ctx, const InstPtr &head)
{
    if (ctx.isHandler()) {
        ExcRecord *record = recordForHandler(ctx.id);
        panic_if(!record, "retiring handler context without a record");
        if (params.verify.mutateSpliceBug) {
            // Deliberately broken splice (mutation check): the handler
            // retires without waiting for the master to reach the
            // excepting instruction. Exists only to prove the
            // InvariantChecker catches splice-ordering bugs.
            return false;
        }
        return !record->spliceOpen;
    }
    if (ctx.isApp()) {
        for (auto &record : records) {
            if (record.master == ctx.id && record.faultInst &&
                record.faultInst->seq == head->seq) {
                // The excepting instruction is next to retire: halt the
                // master and let the handler thread retire (Fig 1c).
                if (!record.spliceOpen) {
                    obsEmitTid(obs::EventKind::SpliceOpen, ctx.id,
                               uint64_t(record.handler), head->seq);
                }
                record.spliceOpen = true;
                return true;
            }
        }
    }
    return false;
}

void
SmtCore::removeFromWindow(const DynInst &inst)
{
    if (!inst.freeWindowSlot) {
        panic_if(windowCount == 0, "window occupancy underflow");
        --windowCount;
    }
}

void
SmtCore::retireInst(ThreadCtx &ctx, const InstPtr &inst)
{
    if (checker)
        checker->noteRetire(ctx.id, *inst); // before the record is erased
    lastRetireCycle = curCycle;
    removeFromWindow(*inst);
    inst->status = InstStatus::Retired;
    obsEmit(obs::EventKind::Retired, *inst);
    // A retired instruction can no longer be squashed: break the
    // rename-undo chain so older instructions' memory is released.
    inst->prevWriter.reset();
    panic_if(ctx.icount == 0, "icount underflow");
    --ctx.icount;

    if (inst->palMode) {
        ++retiredPal;
    } else {
        ++retiredUser;
        ++ctx.retiredUserInsts;
    }

    // Train the branch predictor on architecturally committed
    // outcomes only (wrong paths never reach here).
    if (inst->isBranch() && !inst->isRfe()) {
        bpred->update(inst->tid, inst->pc, inst->di, inst->actTaken,
                      inst->actTarget, inst->bpChk);
    }

    static const bool store_trace =
        std::getenv("ZMT_STORE_TRACE") != nullptr;
    if (store_trace && inst->isStore() && !inst->palMode &&
        inst->memMapped && ctx.isApp()) {
        std::fprintf(stderr, "S t%d pc=%#llx va=%#llx v=%#llx\n",
                     int(ctx.id), (unsigned long long)inst->pc,
                     (unsigned long long)inst->effVa,
                     (unsigned long long)inst->storeValue);
    }
    if (inst->isStore() && !inst->palMode && inst->memMapped) {
        // Fold the retired store into the thread's architectural hash
        // (cross-checked against the functional golden model).
        auto mix = [&ctx](uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                ctx.storeHash ^= (v >> (8 * i)) & 0xff;
                ctx.storeHash *= 0x100000001b3ULL;
            }
        };
        mix(inst->effVa);
        mix(inst->storeValue);
    }

    if (helpers->anyServiceEnabled()) [[unlikely]]
        helpers->onRetire(ctx, *inst);

    if (inst->isRfe()) {
        // A completed software handling, counted by exception class.
        // Inline handlers use the kind stamped at fetch: the
        // thread-level pending kind may have been overwritten by a
        // later trap before this RFE reached retirement.
        ExcKind kind =
            inst->rfeForEmul ? ExcKind::EmulFsqrt : ExcKind::TlbMiss;
        if (ctx.isHandler()) {
            // Handler fully retired: free the context (Section 4.1).
            ExcRecord *record = recordForHandler(ctx.id);
            panic_if(!record, "handler RFE retired without a record");
            kind = record->kind;
            Asn asn = record->asn;
            Addr vpn = record->vpn;
            for (size_t i = 0; i < records.size(); ++i) {
                if (records[i].handler == ctx.id) {
                    records.erase(records.begin() + i);
                    break;
                }
            }
            obsEmitTid(obs::EventKind::SpliceClose, ctx.id);
            releaseHandlerCtx(ctx);
            if (kind == ExcKind::TlbMiss) {
                // The fill (TLBWR) woke the waiters parked at that
                // point, but an instruction can re-miss the same page
                // between the fill and this RFE (forced miss, or a
                // real eviction in a small DTLB) and park under the
                // still-live record. No later fill is coming for
                // them: wake the survivors now so they re-issue and
                // either hit or start a fresh handling.
                wakeTlbWaiters(asn, vpn);
            }
        }
        if (kind == ExcKind::TlbMiss) {
            ++tlbMisses;
        } else {
            ++emulDone;
            if (!inst->palMode || ctx.isApp()) {
                // Inline (trap-path) emulation: the squashed FSQRT is
                // never refetched — this RFE architecturally *is* its
                // retirement, so credit the user instruction here to
                // keep the retired stream aligned with the functional
                // golden model. (The multithreaded path retires the
                // parked instruction itself.)
                if (ctx.isApp()) {
                    ++retiredUser;
                    ++ctx.retiredUserInsts;
                }
            }
        }
    }

    if (inst->causedTlbMiss &&
        params.except.mech == ExceptMech::Hardware) {
        ++tlbMisses; // hardware walks have no RFE: count at retirement
    }

    if (inst->isHardexc()) {
        fatal("page fault (HARDEXC) reached retirement: the synthetic "
              "workloads must keep correct-path accesses mapped");
    }

    if (inst->isHalt())
        ctx.fetchEnabled = false;
}

void
SmtCore::doRetire()
{
    // Fixpoint so a splice (master halt -> handler retire -> master
    // resume) can complete within one cycle: retirement bandwidth is
    // unlimited (Table 1).
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto &ctx_ptr : contexts) {
            ThreadCtx &ctx = *ctx_ptr;
            while (!ctx.inflight.empty()) {
                InstPtr head = ctx.inflight.front();
                // Splice check precedes the completion check: reaching
                // the excepting instruction (all pre-exception work
                // retired) opens the handler's retirement even while
                // the excepting instruction itself is still waiting on
                // its re-executed memory access (paper Figure 1c).
                if (retireBlocked(ctx, head))
                    break;
                if (head->status != InstStatus::Done)
                    break;
                ctx.inflight.pop_front();
                retireInst(ctx, head);
                progress = true;
            }
        }
    }
}

void
SmtCore::releaseHandlerCtx(ThreadCtx &ctx)
{
    helpers->release(ctx);
}

void
SmtCore::cancelRecord(size_t idx)
{
    ExcRecord record = records[idx];
    records.erase(records.begin() + idx);
    obsEmitTid(obs::EventKind::Cancel, record.handler,
               uint64_t(record.master));

    ThreadCtx &h = *contexts[record.handler];
    panic_if(!h.isHandler(), "cancelling a record with a freed handler");
    if (injector && record.kind == ExcKind::TlbMiss && h.proc) {
        // Drop any unconsumed invalid-PTE override for this handling.
        injector->disarmBadPte(
            h.proc->space().pteAddr(Addr(record.vpn) << PageBits));
    }
    squashFrom(h, 0); // discard the handler thread's work entirely
    releaseHandlerCtx(h);

    if (record.kind != ExcKind::TlbMiss)
        return; // emulation records have exactly one (squashed) waiter

    // Wake surviving waiters: they re-issue, and either hit (the fill
    // already landed) or re-detect the miss and start a new handling.
    wakeTlbWaiters(record.asn, record.vpn);
}

void
SmtCore::wakeTlbWaiters(Asn asn, Addr vpn)
{
    for (auto it = parked.begin(); it != parked.end();) {
        InstPtr &waiter = *it;
        ThreadCtx &wctx = ctxOf(**&waiter);
        if (!waiter->squashed() && wctx.proc && wctx.proc->asn() == asn &&
            pageNum(waiter->effVa) == vpn &&
            waiter->status == InstStatus::TlbWait) {
            waiter->status = InstStatus::InWindow;
            obsEmit(obs::EventKind::Wake, *waiter, vpn);
            it = parked.erase(it);
        } else {
            ++it;
        }
    }
}

void
SmtCore::undoInst(ThreadCtx &ctx, DynInst &inst)
{
    // Memory first, then register, reverse of the dispatch-time order.
    if (inst.hasMemUndo)
        physMem.write(inst.memUndoPa, inst.memUndoSize, inst.memUndoValue);

    switch (inst.undoKind) {
      case RegFileKind::Int:
        ctx.arch.intRegs[inst.undoReg] = inst.undoValue;
        break;
      case RegFileKind::Fp:
        ctx.arch.fpRegs[inst.undoReg] = inst.undoValue;
        break;
      case RegFileKind::Pal:
        ctx.palRegs[inst.undoReg] = inst.undoValue;
        break;
      case RegFileKind::Priv:
        ctx.arch.privRegs[inst.undoReg] = inst.undoValue;
        break;
      case RegFileKind::None:
        return;
    }

    // Rename-table repair: the register written is the one renamed.
    InstPtr &slot = ctx.writerOf(inst.undoKind, inst.undoReg);
    if (slot.get() == &inst)
        slot = inst.prevWriter;
    inst.prevWriter.reset();
}

void
SmtCore::squashFrom(ThreadCtx &ctx, SeqNum first_squashed)
{
    // Youngest-first rollback of the thread's in-flight instructions.
    while (!ctx.inflight.empty() &&
           ctx.inflight.back()->seq >= first_squashed) {
        InstPtr inst = ctx.inflight.back();
        ctx.inflight.pop_back();

        // Instructions not yet dispatched have no architectural
        // effects; dispatched ones are rolled back.
        if (inst->status != InstStatus::InFetchBuf)
            undoInst(ctx, *inst);
        if (inst->inWindowLike())
            removeFromWindow(*inst);

        if (inst->causedTlbMiss)
            ++wrongPathMisses;
        if (inst->isRfe())
            ctx.stalledRfe = false;
        if (inst->isHardexc())
            ctx.deadEnd = false;
        if (inst->isHalt())
            ctx.fetchHalted = false;

        inst->status = InstStatus::Squashed;
        obsEmit(obs::EventKind::Squashed, *inst);
        inst->dependents.clear();
        ++squashedInsts;
        panic_if(ctx.icount == 0, "icount underflow on squash");
        --ctx.icount;
    }

    // Drop the squashed tail of the fetch buffer.
    while (!ctx.fetchBuf.empty() &&
           ctx.fetchBuf.back()->seq >= first_squashed) {
        ctx.fetchBuf.pop_back();
    }

    // Cancel exception records anchored to squashed instructions:
    // the handler thread is reclaimed (paper Section 4.1: "events
    // which cause squashes check exception sequence numbers").
    for (size_t i = 0; i < records.size();) {
        if (records[i].master == ctx.id &&
            records[i].faultInst->seq >= first_squashed) {
            cancelRecord(i);
        } else {
            ++i;
        }
    }

    // Abandon page-table walks for squashed misses.
    if (ctx.isApp() && params.except.mech == ExceptMech::Hardware)
        walker->squashWalksAfter(asnOf(ctx), first_squashed);
}

} // namespace zmt
