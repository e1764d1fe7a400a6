/**
 * @file
 * Schedule/execute stage: oldest-fetched-first selection over the
 * shared instruction window, functional-unit and issue-width
 * constraints (Table 1), TLB lookup at address generation with
 * mechanism-specific miss handling, and the hardware page walker
 * competing for load/store ports.
 */

#include <algorithm>

#include "core/core.hh"
#include "common/logging.hh"
#include "core/helper.hh"

namespace zmt
{

void
SmtCore::insertIntoReadyList(const InstPtr &inst)
{
    // Sorted by seq, same ordering invariant as the window. Dispatch
    // interleaves threads, so an insert is not always an append.
    auto pos = std::upper_bound(
        readyList.begin(), readyList.end(), inst->seq,
        [](SeqNum seq, const InstPtr &other) { return seq < other->seq; });
    readyList.insert(pos, inst);
}

bool
SmtCore::fuAvailable(isa::OpClass cls) const
{
    using isa::OpClass;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Priv:
      case OpClass::Nop:
      case OpClass::Halt:
        return aluUsed < params.core.intAluCount;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return mulUsed < params.core.intMulCount;
      case OpClass::FpAdd:
      case OpClass::FpMult:
        return fpAddUsed < params.core.fpAddCount;
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        return fpDivUsed < params.core.fpDivCount;
      case OpClass::Load:
      case OpClass::Store:
        return lsUsed < params.core.lsPortCount;
    }
    return false;
}

void
SmtCore::consumeFu(isa::OpClass cls)
{
    using isa::OpClass;
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Priv:
      case OpClass::Nop:
      case OpClass::Halt:
        ++aluUsed;
        break;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        ++mulUsed;
        break;
      case OpClass::FpAdd:
      case OpClass::FpMult:
        ++fpAddUsed;
        break;
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        ++fpDivUsed;
        break;
      case OpClass::Load:
      case OpClass::Store:
        ++lsUsed;
        break;
    }
}

bool
SmtCore::oldestUnfinished(const DynInst &inst) const
{
    // Serializing instructions (RFE, HARDEXC) issue only when every
    // older instruction of their thread has completed; this guarantees
    // the TLB write precedes the exception return, and that the return
    // is effectively non-speculative within its thread.
    const ThreadCtx &ctx = *contexts[inst.tid];
    for (const InstPtr &other : ctx.inflight) {
        if (other->seq >= inst.seq)
            return true;
        if (other->status != InstStatus::Done)
            return false;
    }
    return true;
}

void
SmtCore::issueInst(const InstPtr &inst)
{
    const bool mem_op = inst->isMem();

    // Generalized mechanism (Section 6): FSQRT is unimplemented in
    // hardware — raise an instruction-emulation exception when its
    // operands become ready.
    if (params.except.emulateFsqrt && !inst->palMode &&
        inst->di.op == isa::Opcode::Fsqrt) {
        inst->status = InstStatus::TlbWait; // parked (shared machinery)
        onEmulFault(inst);
        return;
    }

    if (mem_op && !inst->palMode &&
        params.except.mech != ExceptMech::PerfectTlb) {
        ThreadCtx &ctx = ctxOf(*inst);
        Asn asn = asnOf(ctx);
        bool hit = tlb->lookup(asn, inst->effVa);
        if (hit && injector && params.except.usesHandlerThread()) {
            // Injected burst miss: an older instruction touching a
            // page whose handling is already in flight re-misses,
            // driving the secondary-miss relink path (Section 4.5).
            ExcRecord *record = recordForPage(asn, pageNum(inst->effVa));
            if (record && record->faultInst &&
                inst->seq < record->faultInst->seq &&
                injector->forceSecondaryMiss()) {
                hit = false;
            }
        }
        if (!hit) {
            // DTLB miss detected at address generation. Park the
            // instruction (it re-executes after the fill) and dispatch
            // to the configured exception architecture. The port was
            // consumed by the probe.
            inst->status = InstStatus::TlbWait;
            onTlbMiss(inst);
            return;
        }
    }

    Cycle done;
    if (mem_op) {
        Addr pa = inst->memMapped
                      ? inst->effPa
                      : fakePa(asnOf(ctxOf(*inst)), inst->effVa);
        if (inst->isLoad()) {
            if (helpers->prefetchOn() && inst->memMapped &&
                !inst->palMode) [[unlikely]]
                helpers->onDemandLoad(pa);
            // Load port latency (3) plus any miss delay.
            Cycle ready = hier->dataAccess(pa, false, curCycle);
            done = ready + 3;
        } else {
            // Stores complete at the port (write buffering); the cache
            // side effects (allocation, MSHR, bus) are still modeled.
            hier->dataAccess(pa, true, curCycle);
            done = curCycle + 2;
        }
    } else {
        done = curCycle + isa::opLatency(inst->di.info->opClass);
    }

    inst->status = InstStatus::Issued;
    inst->doneAt = done;
    obsEmit(obs::EventKind::Issued, *inst);
    completionQueue.push(done, inst);
}

void
SmtCore::doIssue()
{
    aluUsed = mulUsed = fpAddUsed = fpDivUsed = lsUsed = 0;
    unsigned budget = params.core.width;
    unsigned issued = 0;

    // Scan only the operand-ready instructions, sorted by seq
    // (oldest-fetched first, the paper's selection policy). One still
    // waiting on a producer could never issue nor touch the budget,
    // FU counters or `exhausted`, so leaving it out changes nothing.
    // Entries that issued or squashed since the last scan are
    // compacted out in the same pass. The scan is bounded to the size
    // on entry: an instruction dispatched mid-scan (instant handler
    // fetch) is appended and first considered next cycle.
    const size_t n0 = readyList.size();
    size_t keep = 0;
    bool exhausted = false;
    for (size_t i = 0; i < n0; ++i) {
        // By value, not moved out: the issue paths below can grow
        // readyList (invalidating references), and that mid-scan
        // insertIntoReadyList() binary-searches every slot.
        InstPtr inst = readyList[i];

        if (inst->status != InstStatus::InWindow) {
            // Parked instructions (TlbWait) stay scheduled — the wake
            // flips their status in place. Anything else (issued,
            // squashed, retired) leaves the list.
            if (inst->status == InstStatus::TlbWait)
                readyList[keep++] = std::move(inst);
            continue;
        }
        if (exhausted ||
            curCycle < inst->windowAt + params.core.schedDepth +
                           params.core.regReadDepth ||
            (inst->isSerializing() && !oldestUnfinished(*inst))) {
            readyList[keep++] = std::move(inst);
            continue;
        }

        bool free_exec = params.except.freeHandlerExecBw &&
                         contexts[inst->tid]->isHandler();
        isa::OpClass cls = inst->di.info->opClass;
        if (!free_exec) {
            if (budget == 0) {
                // The old scan stopped here; keep compacting without
                // issuing so the list stays tidy.
                exhausted = true;
                readyList[keep++] = std::move(inst);
                continue;
            }
            if (!fuAvailable(cls)) {
                readyList[keep++] = std::move(inst);
                continue;
            }
        }

        issueInst(inst);
        ++issued;

        if (!free_exec) {
            consumeFu(cls);
            --budget;
        }
        // TLB miss / emulation fault parks the instruction: it stays
        // in the list awaiting its wake. A clean issue drops it.
        if (inst->status == InstStatus::TlbWait)
            readyList[keep++] = std::move(inst);
    }
    // Preserve anything dispatched mid-scan (appended past n0).
    for (size_t i = n0; i < readyList.size(); ++i)
        readyList[keep++] = std::move(readyList[i]);
    readyList.resize(keep);

    issuedPerCycle.sample(double(issued));

    // The hardware walker's PTE loads are scheduled like other loads,
    // competing for the remaining load/store ports (Section 5.1).
    if (params.except.mech == ExceptMech::Hardware) {
        unsigned ports_free = params.core.lsPortCount > lsUsed
                                  ? params.core.lsPortCount - lsUsed
                                  : 0;
        lsUsed += walker->issue(curCycle, ports_free, *hier);
    }

    // The prefetch helper's probes use whatever load/store ports are
    // left over this cycle — strictly lower priority than both demand
    // accesses and the walker.
    if (helpers->prefetchOn()) [[unlikely]] {
        unsigned ports_free = params.core.lsPortCount > lsUsed
                                  ? params.core.lsPortCount - lsUsed
                                  : 0;
        lsUsed += helpers->onIssueSlack(ports_free);
    }
}

} // namespace zmt
