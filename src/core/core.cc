#include "core/core.hh"

#include <algorithm>
#include <iostream>

#include "common/logging.hh"
#include "core/helper.hh"

namespace zmt
{

const char *
runStatusName(RunStatus status)
{
    // Exhaustive: -Wswitch flags any RunStatus added without a name,
    // so campaign failure records always carry a printable cause.
    switch (status) {
      case RunStatus::Ok:                 return "ok";
      case RunStatus::Livelock:           return "livelock";
      case RunStatus::InvariantViolation: return "invariant-violation";
      case RunStatus::Crashed:            return "crashed";
      case RunStatus::Timeout:            return "timeout";
    }
    return "?";
}

bool
parseRunStatus(const std::string &name, RunStatus &status)
{
    for (RunStatus s : {RunStatus::Ok, RunStatus::Livelock,
                        RunStatus::InvariantViolation, RunStatus::Crashed,
                        RunStatus::Timeout}) {
        if (name == runStatusName(s)) {
            status = s;
            return true;
        }
    }
    return false;
}

SmtCore::SmtCore(const SimParams &params, std::vector<Process *> apps,
                 PhysMem &mem, const PalCode &pal,
                 stats::StatGroup *parent)
    : stats::StatGroup("core", parent),
      numCycles(this, "cycles", "simulated cycles"),
      retiredUser(this, "retiredUser", "retired user-mode instructions"),
      retiredPal(this, "retiredPal", "retired PAL-mode instructions"),
      fetchedInsts(this, "fetchedInsts", "instructions fetched"),
      tlbMisses(this, "tlbMisses", "completed TLB miss handlings"),
      tlbMissesSeen(this, "tlbMissesSeen",
                    "TLB misses detected (incl. wrong path)"),
      wrongPathMisses(this, "wrongPathMisses",
                      "TLB miss detections later squashed"),
      branchSquashes(this, "branchSquashes", "branch mispredict squashes"),
      trapSquashes(this, "trapSquashes", "traditional trap squashes"),
      squashedInsts(this, "squashedInsts", "instructions squashed"),
      mtSpawns(this, "mtSpawns", "handler threads spawned"),
      mtFallbacks(this, "mtFallbacks",
                  "misses reverted to traditional (no idle thread)"),
      relinks(this, "relinks", "secondary-miss handler re-links"),
      deadlockSquashes(this, "deadlockSquashes",
                       "main-thread tail squashes to free window slots"),
      hardReverts(this, "hardReverts", "HARDEXC reversions to traditional"),
      qsWarmStarts(this, "qsWarmStarts", "quick-start warm activations"),
      qsColdStarts(this, "qsColdStarts",
                   "quick-start spawns with a cold buffer"),
      qsTypeMispredicts(this, "qsTypeMispredicts",
                        "quick-start prefetched the wrong handler type"),
      emulFaultsSeen(this, "emulFaultsSeen",
                     "instruction-emulation exceptions detected"),
      emulDone(this, "emulDone",
               "completed instruction emulations (retired)"),
      handlerActiveCycles(this, "handlerActiveCycles",
                          "cycles with an active handler thread"),
      ipcStat(this, "ipc", "retired user instructions per cycle",
              [this] {
                  return numCycles.value() > 0
                             ? retiredUser.value() / numCycles.value()
                             : 0.0;
              }),
      issuedPerCycle(this, "issuedPerCycle",
                     "instructions issued per cycle"),
      windowOccupancy(this, "windowOccupancy",
                      "instruction-window occupancy per cycle", 0,
                      double(params.core.windowSize + 1), 16),
      params(params),
      physMem(mem),
      pal(pal)
{
    fatal_if(apps.empty(), "no application threads");

    hier = std::make_unique<MemHierarchy>(params.mem, this);
    tlb = std::make_unique<Tlb>(params.tlb.dtlbEntries, this);

    numApps = unsigned(apps.size());
    unsigned idle =
        params.except.usesHandlerThread() ? params.except.idleThreads : 0;
    // Helper services borrow an idle context; under a mechanism that
    // provides none (perfect/traditional/hardware), give them one.
    if (params.helper.anyEnabled() && idle == 0)
        idle = 1;
    unsigned num_ctxs = numApps + idle;

    bpred = std::make_unique<BranchPredictor>(params.bpred, num_ctxs, this);
    walker = std::make_unique<HwWalker>(this);

    for (unsigned i = 0; i < num_ctxs; ++i) {
        auto ctx = std::make_unique<ThreadCtx>();
        ctx->id = ThreadID(i);
        if (i < numApps) {
            ctx->proc = apps[i];
            ctx->cstate = CtxState::App;
            ctx->arch = apps[i]->initialState();
            ctx->fetchEnabled = true;
            // Fetch starts at the process's architectural PC, which is
            // the entry point for a fresh process and the resume point
            // for one restored from a checkpoint or fast-forwarded
            // functionally (kernel/ffwd.hh).
            ctx->fetchPc = ctx->arch.pc;
        } else {
            ctx->cstate = CtxState::Idle;
            ctx->fetchEnabled = false;
        }
        contexts.push_back(std::move(ctx));
    }

    if (params.verify.anyInjection()) {
        injector = std::make_unique<FaultInjector>(params.verify, this);
    }
    if (params.verify.invariantPeriod > 0)
        checker = std::make_unique<InvariantChecker>(*this);

    // After the contexts and hierarchy exist, before obs: the helper
    // layer hosts the exception mechanisms' context lifecycle and the
    // optional micro-services.
    helpers = std::make_unique<HelperManager>(*this);

    if (params.obs.anyEnabled()) {
        // The ring (and disassembly labels) exist only for the
        // pipeline view; attribution and the text trace consume the
        // stream online via sinks and are immune to ring overflow.
        bool want_ring = !params.obs.pipeview.empty();
        obsLog = std::make_unique<obs::EventLog>(
            want_ring ? params.obs.ringCapacity : 0, want_ring);
        // The text trace goes first so an event's line is out before
        // the analyzer can panic on it.
        if (!params.obs.trace.empty()) {
            obsText = std::make_unique<obs::TextTrace>(params.obs.trace);
            obsLog->attachSink(obsText.get());
        }
        obsTl = std::make_unique<obs::ExcTimeline>(this);
        obsLog->attachSink(obsTl.get());
    }

    // Best-effort crash diagnostics: a panic anywhere in the process
    // (even another sweep worker's cell) dumps this core's pipeline
    // state before the abort, so an isolated campaign job's captured
    // stderr shows where every live core stood.
    crashHookId = addCrashFlushHook([this] { dumpState(std::cerr); });
}

SmtCore::~SmtCore()
{
    // First thing: this destructor can itself panic (pool-drain
    // accounting below), and a half-destroyed core must not be dumped.
    removeCrashFlushHook(crashHookId);
    // In-flight instructions reference each other both forward
    // (dependents, woken at completion) and backward (prevWriter, the
    // rename-undo chain). Break the back edges, then drop every handle
    // the core holds, so the pool accounting below must reach zero.
    auto unlink = [](const InstPtr &inst) {
        inst->dependents.clear();
        inst->prevWriter.reset();
    };
    for (const InstPtr &inst : parked)
        unlink(inst);
    for (const auto &event : completionQueue)
        unlink(event.inst);
    for (const auto &ctx : contexts) {
        for (const InstPtr &inst : ctx->inflight)
            unlink(inst);
        for (const InstPtr &inst : ctx->fetchBuf)
            unlink(inst);
    }

    parked.clear();
    readyList.clear();
    completionQueue.clear();
    records.clear();
    for (const auto &ctx : contexts) {
        ctx->inflight.clear();
        ctx->fetchBuf.clear();
        for (auto &writer : ctx->intWriter)
            writer.reset();
        for (auto &writer : ctx->fpWriter)
            writer.reset();
        for (auto &writer : ctx->palWriter)
            writer.reset();
        for (auto &writer : ctx->privWriter)
            writer.reset();
    }

    // Every DynInst must have been recycled by now; a nonzero count is
    // a refcount imbalance (the leak class this pool exists to kill).
    panic_if(dynInstPool.liveCount() != 0,
             "DynInst pool leak: %zu records still live at core teardown",
             dynInstPool.liveCount());
}

Asn
SmtCore::asnOf(const ThreadCtx &ctx) const
{
    panic_if(!ctx.proc, "asnOf on a context with no bound process");
    return ctx.proc->asn();
}

uint64_t
SmtCore::totalRetiredUser() const
{
    return uint64_t(retiredUser.value());
}

uint64_t
SmtCore::retiredUserInsts(unsigned app) const
{
    panic_if(app >= numApps, "bad app index");
    return contexts[app]->retiredUserInsts;
}

uint64_t
SmtCore::retiredStoreHash(unsigned app) const
{
    panic_if(app >= numApps, "bad app index");
    return contexts[app]->storeHash;
}

unsigned
SmtCore::reservedAgainst(ThreadID master) const
{
    if (!params.except.windowReservation)
        return 0;
    unsigned total = 0;
    for (const auto &record : records)
        if (record.master == master)
            total += record.reservedRemaining;
    return total;
}

SmtCore::ExcRecord *
SmtCore::recordForHandler(ThreadID handler)
{
    for (auto &record : records)
        if (record.handler == handler)
            return &record;
    return nullptr;
}

SmtCore::ExcRecord *
SmtCore::recordForPage(Asn asn, Addr vpn)
{
    for (auto &record : records)
        if (record.kind == ExcKind::TlbMiss && record.asn == asn &&
            record.vpn == vpn)
            return &record;
    return nullptr;
}

Addr
SmtCore::fakePa(Asn asn, Addr va) const
{
    // Wild (unmapped) addresses still generate cache traffic under a
    // perfect TLB — the pollution effect behind the paper's gcc
    // anomaly. Map them into a reserved physical region per ASN.
    return (Addr{1} << 40) | (Addr(asn) << 32) | (va & 0xffffffffULL);
}

void
SmtCore::injectHandlerSquash()
{
    // Pick the first record whose master is squashable: discards the
    // handler mid-flight via the ordinary squash path (cancelRecord),
    // exercising handler reclaim. The master refetches the excepting
    // instruction, re-misses, and starts a fresh handling.
    for (auto &record : records) {
        InstPtr fault = record.faultInst;
        if (!fault || fault->squashed())
            continue;
        ThreadCtx &master = *contexts[record.master];
        if (!master.isApp())
            continue;
        injector->noteHandlerSquash();
        Addr fault_pc = fault->pc;
        BpredCheckpoint chk = fault->bpChk;
        squashFrom(master, fault->seq); // cancels the record
        bpred->restore(master.id, chk);
        master.fetchPc = fault_pc;
        master.fetchPal = false;
        return;
    }
}

void
SmtCore::tick()
{
    if (injector) {
        injector->onCycle(curCycle);
        if (injector->shouldSquashHandler(curCycle))
            injectHandlerSquash();
    }
    if (helpers->anyServiceEnabled()) [[unlikely]]
        helpers->onCycle();

    doRetire();
    doComplete();
    doIssue();
    doDispatch();
    doFetch();

    bool handler_active = false;
    for (const auto &ctx : contexts)
        handler_active = handler_active || ctx->isHandler();
    if (handler_active)
        ++handlerActiveCycles;
    windowOccupancy.sample(double(windowCount));

    if ((curCycle & 1023) == 0) {
        std::string error = InvariantChecker::windowViolation(*this);
        panic_if(!error.empty(), "window audit: %s", error.c_str());
    }

    if (checker && curCycle % params.verify.invariantPeriod == 0)
        checker->audit();

    ++curCycle;
    numCycles = double(curCycle);
}

CoreResult
SmtCore::run()
{
    // Livelock watchdog: configurable, defaulting to a generous bound
    // on cycles per retired instruction.
    const Cycle cycle_cap =
        params.watchdogCycles
            ? Cycle(params.watchdogCycles)
            : Cycle(params.maxInsts) * 200 + 1'000'000;

    Cycle warmup_cycles = 0;
    uint64_t warmup_misses = 0;
    bool warm = params.warmupInsts == 0;

    auto snapshot = [&] {
        CoreResult result;
        if (obsTl) {
            // Handlings still open when the run ends are aborted, not
            // attributed (no more events are coming to close them).
            obsTl->finish(curCycle);
            result.attrib = obsTl->summary();
        }
        result.cycles = curCycle;
        result.userInsts = totalRetiredUser();
        result.tlbMisses = uint64_t(tlbMisses.value());
        result.emulations = uint64_t(emulDone.value());
        result.warmedUp = warm;
        if (!warm) {
            // The run ended before every app thread retired its
            // warm-up share, so warmup_cycles/warmup_misses were never
            // latched. The old arithmetic would charge the whole run's
            // cycles against a warm-up-free instruction count, skewing
            // IPC and miss rate; report an explicitly empty
            // measurement window instead.
            return result;
        }
        result.measuredCycles = curCycle - warmup_cycles;
        result.measuredInsts =
            result.userInsts -
            std::min(params.warmupInsts, result.userInsts);
        result.measuredMisses = result.tlbMisses - warmup_misses;
        result.ipc =
            result.measuredCycles
                ? double(result.measuredInsts) / result.measuredCycles
                : 0.0;
        return result;
    };
    auto violated = [&] {
        dumpState(std::cerr);
        CoreResult result = snapshot();
        result.status = RunStatus::InvariantViolation;
        result.error = "invariant violation (" +
                       std::to_string(checker->violationCount()) +
                       " total): " + checker->firstViolation() + " [" +
                       params.summary() + "]";
        return result;
    };

    // With multiple applications, a fixed *total* budget would let a
    // penalized thread simply retire less while the others fill the
    // quota, hiding per-thread exception costs. Instead every app
    // thread must retire its share, so the run length reflects the
    // slowest thread's progress.
    const uint64_t quota = params.maxInsts / numApps;
    const uint64_t warm_quota = params.warmupInsts / numApps;
    auto all_reached = [&](uint64_t target) {
        for (unsigned i = 0; i < numApps; ++i)
            if (contexts[i]->retiredUserInsts < target)
                return false;
        return true;
    };

    while (!all_reached(quota)) {
        tick();
        // Crash injection (campaign-layer testing): a hard process
        // death, deliberately not a structured return — the point is
        // to exercise containment, not graceful degradation. Every
        // cycle ticks, so it fires at exactly the configured cycle.
        if (params.verify.panicAtCycle &&
            curCycle >= params.verify.panicAtCycle) {
            panic("verify: injected panic at cycle %llu [%s]",
                  (unsigned long long)curCycle, params.summary().c_str());
        }
        if (checker && checker->failed())
            return violated();
        if (!warm && all_reached(warm_quota)) {
            warm = true;
            warmup_cycles = curCycle;
            warmup_misses = uint64_t(tlbMisses.value());
        }
        if (curCycle > cycle_cap) {
            dumpState(std::cerr);
            CoreResult result = snapshot();
            result.status = RunStatus::Livelock;
            result.error =
                "livelock: " + std::to_string(curCycle) +
                " cycles, only " + std::to_string(totalRetiredUser()) +
                " insts retired [" + params.summary() + "]";
            return result;
        }
    }

    if (checker) {
        // Final audit so short runs get at least one structural pass.
        checker->audit();
        if (checker->failed())
            return violated();
    }

    return snapshot();
}


void
SmtCore::dumpState(std::ostream &os) const
{
    os << "=== core state @ cycle " << curCycle << " ===\n";
    os << "window: occupancy " << windowCount << "/"
       << params.core.windowSize << ", ready list " << readyList.size()
       << "\n";
    for (const auto &ctx : contexts) {
        os << "ctx " << ctx->id << " state=" << int(ctx->cstate)
           << " fetchPc=0x" << std::hex << ctx->fetchPc << std::dec
           << (ctx->fetchPal ? " PAL" : "")
           << " en=" << ctx->fetchEnabled << " rfe=" << ctx->stalledRfe
           << " dead=" << ctx->deadEnd << " icount=" << ctx->icount
           << " fbuf=" << ctx->fetchBuf.size()
           << " inflight=" << ctx->inflight.size();
        if (!ctx->inflight.empty()) {
            const InstPtr &head = ctx->inflight.front();
            os << " head{seq=" << head->seq << " st="
               << int(head->status) << " "
               << isa::disassemble(head->di) << "}";
        }
        os << "\n";
        // The thread's oldest window residents (dispatched, unretired).
        size_t shown = 0;
        for (const InstPtr &inst : ctx->inflight) {
            if (!inst->inWindowLike() || shown++ >= 8)
                break;
            os << "  w seq=" << inst->seq << " pc=0x" << std::hex
               << inst->pc << std::dec << " "
               << isa::disassemble(inst->di) << " st="
               << int(inst->status) << " deps=" << inst->depsPending
               << (inst->palMode ? " PAL" : "") << "\n";
        }
    }
    os << "records: " << records.size();
    for (const auto &r : records) {
        os << " [m" << r.master << " h" << r.handler << " vpn=0x"
           << std::hex << r.vpn << std::dec << " fault="
           << r.faultInst->seq << " res=" << r.reservedRemaining
           << " filled=" << r.filled << " splice=" << r.spliceOpen
           << "]";
    }
    os << "\nparked: " << parked.size() << " completionQ: "
       << completionQueue.size() << "\n";
}

} // namespace zmt
