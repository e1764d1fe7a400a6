/**
 * @file
 * Fetch stage: the shared fetch unit with the paper's abstract front
 * end (multiple non-contiguous blocks per cycle, unlimited taken
 * branches), the handler-priority/ICOUNT fetch chooser (Section 4.4),
 * per-thread fetch buffers, and the quick-start prefill (Section 5.4).
 */

#include <algorithm>

#include "core/core.hh"
#include "common/logging.hh"
#include "core/helper.hh"

namespace zmt
{

std::pair<isa::InstWord, Addr>
SmtCore::readInstWord(const ThreadCtx &ctx, Addr pc) const
{
    if (ctx.fetchPal)
        return {physMem.read32(pc), pc};
    panic_if(!ctx.proc, "user fetch on an unbound context");
    if (auto loaded = ctx.proc->space().load(pc, 4))
        return {isa::InstWord(loaded->value), loaded->pa};
    // Wild wrong-path PC: no instruction, but the I-cache still sees
    // the access (as for unmapped data addresses).
    return {0, fakePa(ctx.proc->asn(), pc)};
}

const std::vector<SmtCore::ThreadCtx *> &
SmtCore::fetchOrder()
{
    // Called twice per cycle (dispatch and fetch); reuse member
    // scratch vectors so the hot loop never allocates. A stable
    // insertion sort over at most a handful of contexts replaces
    // stable_sort's merge buffer.
    auto icount_sort = [](std::vector<ThreadCtx *> &ctxs) {
        for (size_t i = 1; i < ctxs.size(); ++i) {
            ThreadCtx *ctx = ctxs[i];
            size_t j = i;
            for (; j > 0 && ctxs[j - 1]->icount > ctx->icount; --j)
                ctxs[j] = ctxs[j - 1];
            ctxs[j] = ctx;
        }
    };

    orderHandlers.clear();
    orderScratch.clear();
    for (auto &ctx : contexts) {
        if (ctx->isHandler())
            orderHandlers.push_back(ctx.get());
        else if (ctx->isApp())
            orderScratch.push_back(ctx.get());
    }
    // ICOUNT: fewest in-flight instructions first (ties by id).
    icount_sort(orderScratch);
    if (params.except.handlerFetchPriority) {
        orderHandlers.insert(orderHandlers.end(), orderScratch.begin(),
                             orderScratch.end());
        return orderHandlers;
    }
    // Without explicit priority, handlers still come first in practice
    // because a fresh handler thread has the lowest ICOUNT — merge by
    // icount alone.
    orderScratch.insert(orderScratch.end(), orderHandlers.begin(),
                        orderHandlers.end());
    icount_sort(orderScratch);
    return orderScratch;
}

bool
SmtCore::canFetch(const ThreadCtx &ctx) const
{
    if (!ctx.fetchEnabled || ctx.fetchHalted || ctx.stalledRfe ||
        ctx.deadEnd)
        return false;
    // The deque holds both the in-flight fetch pipe (width x depth)
    // and the architectural fetch buffer that backs up when the
    // window is full; only the latter is the sized resource.
    size_t capacity = params.core.fetchBufEntries +
                      params.core.width * params.core.fetchDepth;
    if (ctx.fetchBuf.size() >= capacity)
        return false;
    if (helpers->fetchCapped(ctx))
        return false; // predicted handler length reached (Section 4.4)
    return true;
}

InstPtr
SmtCore::createFetchedInst(ThreadCtx &ctx, Addr pc, isa::InstWord word,
                           Cycle fetch_done)
{
    InstPtr inst = dynInstPool.acquire();
    inst->seq = nextSeq++;
    inst->tid = ctx.id;
    inst->pc = pc;
    inst->di = decodeCache.lookup(word);
    if (!inst->di.valid() || (inst->di.info->isPriv && !ctx.fetchPal)) {
        // Wild wrong-path fetch of a non-instruction (or of data that
        // decodes to a privileged op in user mode): treat as a NOP; it
        // is squashed before retirement, as a real machine would trap.
        inst->di = isa::makeNullary(isa::Opcode::Nop);
    }
    inst->palMode = ctx.fetchPal;
    if (inst->palMode && inst->isRfe())
        inst->rfeForEmul = ctx.pendingExcKind == ExcKind::EmulFsqrt;
    inst->fetchDoneAt = fetch_done;
    inst->status = InstStatus::InFetchBuf;

    if (inst->isBranch()) {
        BpredResult pred = bpred->predict(ctx.id, pc, inst->di);
        inst->predTaken = pred.taken;
        inst->predTarget = pred.target;
        inst->bpChk = pred.checkpoint;
    } else {
        // Non-branches still snapshot predictor state so a trap squash
        // can restore it precisely.
        inst->bpChk = bpred->snapshot(ctx.id);
    }

    return inst;
}

unsigned
SmtCore::fetchFromThread(ThreadCtx &ctx, unsigned budget)
{
    unsigned fetched = 0;
    while (budget > 0 && canFetch(ctx)) {
        Addr pc = ctx.fetchPc;
        auto [word, pa] = readInstWord(ctx, pc);

        // Instruction-cache timing: a miss delays this and subsequent
        // instructions of the group; fetch of this thread stops for
        // the cycle.
        Cycle icache_ready = hier->instAccess(pa, curCycle);
        Cycle fetch_done =
            std::max(icache_ready, curCycle) + params.core.fetchDepth;

        InstPtr inst = createFetchedInst(ctx, pc, word, fetch_done);
        if (obsLog) [[unlikely]] {
            obsEmit(obs::EventKind::Fetched, *inst);
            if (obsLog->wantLabels())
                obsLog->setLabel(inst->seq, isa::disassemble(inst->di));
        }

        ctx.fetchBuf.push_back(inst);
        ctx.inflight.push_back(inst);
        ++ctx.icount;
        ++fetchedInsts;
        if (ctx.isHandler())
            ++ctx.handlerFetched;
        ++fetched;
        --budget;

        // Advance the fetch PC along the predicted path.
        if (inst->isHalt()) {
            ctx.fetchHalted = true;
            break;
        }
        if (inst->isRfe()) {
            // Exception returns are unpredicted: stall until execute.
            ctx.stalledRfe = true;
            break;
        }
        if (inst->isBranch() && inst->predTaken) {
            ctx.fetchPc = inst->predTarget;
        } else {
            ctx.fetchPc = pc + 4;
        }

        if (icache_ready > curCycle)
            break; // icache miss: stop fetching this thread this cycle
    }
    return fetched;
}

void
SmtCore::doFetch()
{
    unsigned budget = params.core.width;
    for (ThreadCtx *ctx : fetchOrder()) {
        bool free_fetch =
            ctx->isHandler() && params.except.freeHandlerFetchBw;
        if (free_fetch) {
            // Limit study: handler fetch consumes no shared bandwidth.
            unsigned huge = params.core.width;
            fetchFromThread(*ctx, huge);
            continue;
        }
        if (budget == 0)
            break;
        budget -= fetchFromThread(*ctx, budget);
    }
}

void
SmtCore::prefillQuickStart(ThreadCtx &ctx)
{
    // The handler was prefetched into this idle thread's fetch buffer
    // before the exception occurred (paper Section 5.4): instructions
    // appear past the fetch pipe immediately, paying only decode and
    // later stages. Follows the predicted path through the handler.
    unsigned count = 0;
    while (count < ctx.handlerLen) {
        Addr pc = ctx.fetchPc;
        isa::InstWord word = readInstWord(ctx, pc).first;
        InstPtr inst = createFetchedInst(ctx, pc, word, curCycle);
        if (obsLog) [[unlikely]] {
            obsEmit(obs::EventKind::Fetched, *inst, 0, obs::EvPrefill);
            if (obsLog->wantLabels())
                obsLog->setLabel(inst->seq, isa::disassemble(inst->di));
        }
        ctx.fetchBuf.push_back(inst);
        ctx.inflight.push_back(inst);
        ++ctx.icount;
        ++ctx.handlerFetched;
        ++fetchedInsts;
        ++count;
        if (inst->isRfe()) {
            ctx.stalledRfe = true;
            break;
        }
        if (inst->isBranch() && inst->predTaken)
            ctx.fetchPc = inst->predTarget;
        else
            ctx.fetchPc = pc + 4;
    }
}

} // namespace zmt
