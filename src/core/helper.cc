#include "core/helper.hh"

#include "common/logging.hh"
#include "helpers/checker.hh"
#include "helpers/prefetch.hh"

namespace zmt
{

HelperManager::HelperStats::HelperStats(stats::StatGroup *parent)
    : stats::StatGroup("helper", parent),
      serviceBorrows(this, "serviceBorrows",
                     "idle contexts borrowed by helper services"),
      servicePreemptions(this, "servicePreemptions",
                         "service borrows preempted by exception spawns"),
      serviceActiveCycles(this, "serviceActiveCycles",
                          "cycles a helper service held a context")
{
}

HelperManager::HelperManager(SmtCore &core) : core(core)
{
    const HelperParams &hp = core.params.helper;
    if (!hp.anyEnabled())
        return; // no stat group, no services: byte-identical dumps
    stats_ = std::make_unique<HelperStats>(&core);
    if (hp.prefetch) {
        prefetchSvc = std::make_unique<PrefetchHelper>(hp, *core.hier,
                                                       stats_.get());
    }
    if (hp.checker) {
        checkerSvc = std::make_unique<CheckerHelper>(
            hp, unsigned(core.contexts.size()), stats_.get());
    }
}

HelperManager::~HelperManager() = default;

SmtCore::ThreadCtx *
HelperManager::acquire()
{
    SmtCore::ThreadCtx *idle = nullptr;
    for (auto &ctx : core.contexts) {
        if (ctx->cstate == SmtCore::CtxState::Idle) {
            idle = ctx.get();
            break;
        }
    }
    if (idle && core.injector && core.injector->stealIdleContext()) {
        // Injected exhaustion: pretend every context is busy so the
        // no-idle-context fallback path gets exercised.
        idle = nullptr;
    }
    if (idle && idle->id == serviceCtx) {
        // Exceptions preempt the cooperative service borrow: the
        // service retires silently and re-borrows once a context is
        // idle again (onCycle).
        serviceCtx = InvalidThreadID;
        ++preemptions;
        if (stats_)
            ++stats_->servicePreemptions;
    }
    return idle;
}

void
HelperManager::bind(SmtCore::ThreadCtx &ctx, SmtCore::ThreadCtx &master,
                    Addr start_pc, unsigned len)
{
    ctx.cstate = SmtCore::CtxState::Handler;
    ctx.master = master.id;
    ctx.proc = master.proc;
    ctx.fetchPal = true;
    ctx.fetchPc = start_pc;
    ctx.fetchEnabled = true;
    ctx.stalledRfe = false;
    ctx.deadEnd = false;
    ctx.fetchHalted = false;
    ctx.handlerFetched = 0;
    ctx.handlerLen = len;
    ctx.handlerLenCapped = true;
}

void
HelperManager::release(SmtCore::ThreadCtx &ctx)
{
    ctx.cstate = SmtCore::CtxState::Idle;
    ctx.master = InvalidThreadID;
    ctx.proc = nullptr;
    ctx.fetchEnabled = false;
    ctx.fetchPal = false;
    ctx.stalledRfe = false;
    ctx.deadEnd = false;
    ctx.fetchHalted = false;
    ctx.handlerFetched = 0;
    ctx.handlerLenCapped = true;
    // Quick-start: re-prefetch the predicted next handler into this
    // now-idle fetch buffer (Section 5.4).
    ctx.warmReadyAt = core.curCycle + core.params.except.quickStartWarmup;
}

void
HelperManager::onCycle()
{
    if (serviceCtx == InvalidThreadID) {
        for (auto &ctx : core.contexts) {
            if (ctx->cstate == SmtCore::CtxState::Idle) {
                serviceCtx = ctx->id;
                ++stats_->serviceBorrows;
                break;
            }
        }
    }
    if (serviceCtx != InvalidThreadID)
        ++stats_->serviceActiveCycles;
}

void
HelperManager::onDispatch(SmtCore::ThreadCtx &ctx, const DynInst &inst)
{
    if (!prefetchSvc)
        return;
    prefetchSvc->train(inst.pc, inst.effVa, ctx.proc->space());
}

void
HelperManager::onRetire(SmtCore::ThreadCtx &ctx, const DynInst &inst)
{
    if (!checkerSvc || !ctx.isApp() || inst.palMode || !inst.memMapped ||
        !inst.isMem())
        return;
    unsigned verdict = checkerSvc->observe(ctx.id, inst.effVa, inst.effPa,
                                           inst.isStore(), core.curCycle);
    if (verdict & CheckerHelper::WatchHit)
        core.obsEmitTid(obs::EventKind::HelperWatch, ctx.id, inst.effVa,
                        inst.seq);
    if (verdict & CheckerHelper::RaceFound)
        core.obsEmitTid(obs::EventKind::HelperRace, ctx.id, inst.effVa,
                        inst.seq);
}

void
HelperManager::onDemandLoad(Addr pa)
{
    if (prefetchSvc)
        prefetchSvc->onDemandLoad(pa, core.curCycle);
}

unsigned
HelperManager::onIssueSlack(unsigned ports_free)
{
    // The run-ahead slice executes in the borrowed context: without
    // one (preempted by an exception spawn) the service is dormant.
    if (!prefetchSvc || serviceCtx == InvalidThreadID)
        return 0;
    unsigned used = prefetchSvc->issueProbes(core.curCycle, ports_free);
    if (used > 0)
        core.obsEmitTid(obs::EventKind::HelperPrefetch, serviceCtx, used);
    return used;
}

} // namespace zmt
