#include "verify/invariant.hh"

#include <sstream>

#include "core/core.hh"

namespace zmt
{

InvariantChecker::InvariantChecker(const SmtCore &core) : core(core)
{
    lastRetiredSeq.assign(core.contexts.size(), 0);
    prevState.assign(core.contexts.size(), 0);
}

void
InvariantChecker::fail(std::string msg)
{
    ++total;
    if (viols.size() < 16)
        viols.push_back(std::move(msg));
}

std::string
InvariantChecker::firstViolation() const
{
    return viols.empty() ? std::string() : viols.front();
}

void
InvariantChecker::audit()
{
    auditWindow();
    auditContexts();
    auditRecords();
    auditParked();
}

std::string
InvariantChecker::windowViolation(const SmtCore &core)
{
    std::ostringstream os;
    auto violation = [&] {
        os << " (cycle " << core.curCycle << ")";
        return os.str();
    };

    // The window's members are the dispatched (inWindowLike) entries of
    // the in-flight lists, so its order is per-thread program order.
    unsigned occupied = 0, handlerOccupied = 0, ready = 0, listed = 0,
             issued = 0, queued = 0;
    for (const auto &ctx : core.contexts) {
        SeqNum prev = 0;
        for (const InstPtr &inst : ctx->inflight) {
            if (inst->seq <= prev ||
                (!inst->inWindowLike() &&
                 inst->status != InstStatus::InFetchBuf)) {
                os << "ctx " << ctx->id << ": in-flight seq " << inst->seq
                   << " out of order or dead (status "
                   << int(inst->status) << ")";
                return violation();
            }
            prev = inst->seq;
            bool slot = inst->inWindowLike() && !inst->freeWindowSlot;
            occupied += slot;
            handlerOccupied += slot && ctx->isHandler();
            ready += inst->status == InstStatus::InWindow &&
                     inst->depsPending == 0;
            issued += inst->status == InstStatus::Issued;
        }
    }
    // A listed instruction still waiting on a producer, or a missing
    // operand-ready one (it would never issue), breaks the count.
    for (const InstPtr &inst : core.readyList)
        listed += inst->status == InstStatus::InWindow;
    // Each issued instruction completes through exactly one queued
    // event; a lost one would stall retirement until the watchdog.
    core.completionQueue.forEach([&](const InstPtr &inst) {
        queued += inst->status == InstStatus::Issued;
    });

    // The instant-fetch limit study dispatches a whole handler the
    // cycle its miss is detected, without waiting for window room, so
    // there handler entries may take occupancy past the window size.
    // Application entries still dispatch only into a free slot.
    const bool instant = core.params.except.instantHandlerFetch;
    const unsigned bounded = instant ? occupied - handlerOccupied
                                     : occupied;
    if (occupied != core.windowCount)
        os << "window accounting: counted " << occupied << " tracked "
           << core.windowCount;
    else if (bounded > core.params.core.windowSize)
        os << (instant ? "application " : "") << "window occupancy "
           << bounded << " exceeds size " << core.params.core.windowSize;
    else if (listed != ready)
        os << "ready list holds " << listed << " of " << ready
           << " operand-ready instructions";
    else if (queued != issued)
        os << "completion queue holds " << queued << " events for "
           << issued << " issued instructions";
    else
        return {};
    return violation();
}

void
InvariantChecker::auditWindow()
{
    if (std::string violation = windowViolation(core); !violation.empty())
        fail(std::move(violation));
}

void
InvariantChecker::auditContexts()
{
    using CtxState = SmtCore::CtxState;
    for (size_t i = 0; i < core.contexts.size(); ++i) {
        const auto &ctx = *core.contexts[i];
        std::ostringstream os;
        os << "ctx " << i << " (cycle " << core.curCycle << "): ";

        if (ctx.icount != ctx.inflight.size()) {
            os << "icount " << ctx.icount << " != in-flight "
               << ctx.inflight.size();
            fail(os.str());
            continue;
        }
        for (const InstPtr &inst : ctx.fetchBuf) {
            if (inst->status != InstStatus::InFetchBuf) {
                os << "fetch buffer holds seq " << inst->seq
                   << " in status " << int(inst->status);
                fail(os.str());
                break;
            }
        }

        CtxState s = ctx.cstate;
        if (statesSeeded) {
            auto p = CtxState(prevState[i]);
            bool legal = p == s ||
                         (p == CtxState::Idle && s == CtxState::Handler) ||
                         (p == CtxState::Handler && s == CtxState::Idle);
            if (!legal) {
                os << "illegal context state transition " << int(p)
                   << " -> " << int(s);
                fail(os.str());
            }
        }
        prevState[i] = uint8_t(s);

        if (s == CtxState::Idle &&
            (!ctx.inflight.empty() || !ctx.fetchBuf.empty() ||
             ctx.fetchEnabled)) {
            os << "idle context with live state (inflight="
               << ctx.inflight.size() << " fbuf=" << ctx.fetchBuf.size()
               << " en=" << ctx.fetchEnabled << ")";
            fail(os.str());
        }
        if (s == CtxState::Handler) {
            bool has_record = false;
            for (const auto &r : core.records)
                has_record = has_record || r.handler == ThreadID(i);
            if (!ctx.proc || ctx.master == InvalidThreadID ||
                unsigned(ctx.master) >= core.numApps || !has_record) {
                os << "handler context without a valid master/record";
                fail(os.str());
            }
        }
    }
    statesSeeded = true;
}

void
InvariantChecker::auditRecords()
{
    for (const auto &record : core.records) {
        std::ostringstream os;
        os << "record h" << record.handler << " m" << record.master
           << " (cycle " << core.curCycle << "): ";
        if (unsigned(record.master) >= core.numApps) {
            os << "master is not an application context";
            fail(os.str());
            continue;
        }
        const auto &h = *core.contexts[record.handler];
        if (!h.isHandler() || h.master != record.master) {
            os << "handler context state does not match the record";
            fail(os.str());
            continue;
        }
        if (!record.faultInst) {
            os << "no excepting instruction";
            fail(os.str());
            continue;
        }
        if (record.faultInst->status == InstStatus::Retired ||
            record.faultInst->squashed()) {
            os << "excepting instruction seq " << record.faultInst->seq
               << " is dead (status " << int(record.faultInst->status)
               << ") but the record survives";
            fail(os.str());
            continue;
        }
        if (record.reservedRemaining > core.handlerLen(record.kind)) {
            os << "reservation " << record.reservedRemaining
               << " exceeds handler length "
               << core.handlerLen(record.kind);
            fail(os.str());
        }
        if (record.spliceOpen) {
            const auto &m = *core.contexts[record.master];
            if (m.inflight.empty() ||
                m.inflight.front().get() != record.faultInst.get()) {
                os << "splice open but the master's head is not the "
                      "excepting instruction";
                fail(os.str());
            }
        }
    }
}

void
InvariantChecker::auditParked()
{
    ExceptMech mech = core.params.except.mech;
    for (const InstPtr &inst : core.parked) {
        if (inst->squashed())
            continue; // removed lazily
        std::ostringstream os;
        os << "parked seq " << inst->seq << " t" << inst->tid
           << " (cycle " << core.curCycle << "): ";
        if (inst->status != InstStatus::TlbWait) {
            os << "not in TlbWait (status " << int(inst->status) << ")";
            fail(os.str());
            continue;
        }
        const auto &ctx = *core.contexts[inst->tid];
        if (!ctx.proc) {
            os << "owning context has no process";
            fail(os.str());
            continue;
        }
        if (mech == ExceptMech::PerfectTlb ||
            mech == ExceptMech::Traditional) {
            os << "parked instruction under a mechanism that never parks";
            fail(os.str());
            continue;
        }

        Asn asn = ctx.proc->asn();
        bool covered = false;
        if (inst->emulFault) {
            for (const auto &r : core.records)
                covered = covered ||
                          (r.kind == SmtCore::ExcKind::EmulFsqrt &&
                           r.faultInst.get() == inst.get());
        } else if (mech == ExceptMech::Hardware) {
            // Wild (unmapped) wrong-path walks can finish on an invalid
            // PTE with no fill; the waiter legitimately outlives the
            // walk until its squash arrives.
            covered = !inst->memMapped ||
                      core.walker->walking(asn, inst->effVa);
        } else {
            for (const auto &r : core.records)
                covered = covered ||
                          (r.kind == SmtCore::ExcKind::TlbMiss &&
                           r.asn == asn &&
                           r.vpn == pageNum(inst->effVa));
        }
        if (!covered) {
            os << "no live handler/walk covers it (va=0x" << std::hex
               << inst->effVa << std::dec << ")";
            fail(os.str());
        }
    }
}

void
InvariantChecker::noteRetire(ThreadID tid, const DynInst &inst)
{
    if (lastRetiredSeq[tid] != 0 && inst.seq <= lastRetiredSeq[tid]) {
        std::ostringstream os;
        os << "retirement out of program order on ctx " << tid << ": seq "
           << inst.seq << " after " << lastRetiredSeq[tid] << " (cycle "
           << core.curCycle << ")";
        fail(os.str());
    }
    lastRetiredSeq[tid] = inst.seq;

    const auto &ctx = *core.contexts[tid];
    if (!ctx.isHandler())
        return;

    const SmtCore::ExcRecord *record = nullptr;
    for (const auto &r : core.records)
        if (r.handler == tid) {
            record = &r;
            break;
        }
    std::ostringstream os;
    if (!record) {
        os << "handler ctx " << tid << " retired seq " << inst.seq
           << " without an exception record (cycle " << core.curCycle
           << ")";
        fail(os.str());
        return;
    }
    if (!record->spliceOpen) {
        os << "splice ordering violated: handler ctx " << tid
           << " retired seq " << inst.seq
           << " before the master reached excepting seq "
           << (record->faultInst ? record->faultInst->seq : 0)
           << " (cycle " << core.curCycle << ")";
        fail(os.str());
        return;
    }
    const auto &m = *core.contexts[record->master];
    if (m.inflight.empty() ||
        m.inflight.front().get() != record->faultInst.get()) {
        os << "splice ordering violated: handler ctx " << tid
           << " retiring while the master's head is not the excepting "
              "instruction (cycle "
           << core.curCycle << ")";
        fail(os.str());
    }
}

} // namespace zmt
