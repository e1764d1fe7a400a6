#include "verify/faultinject.hh"

#include "kernel/pagetable.hh"

namespace zmt
{

FaultInjector::FaultInjector(const VerifyParams &params,
                             stats::StatGroup *parent)
    : stats::StatGroup("verify", parent),
      injectedBadPtes(this, "injectedBadPtes",
                      "invalid-PTE overrides consumed by handlers"),
      injectedCtxSteals(this, "injectedCtxSteals",
                        "idle contexts hidden from spawnMtHandler"),
      injectedForcedMisses(this, "injectedForcedMisses",
                           "TLB hits forced to secondary misses"),
      injectedHandlerSquashes(this, "injectedHandlerSquashes",
                              "mid-flight handler squashes injected"),
      squeezeActivations(this, "squeezeActivations",
                         "window-squeeze phases entered"),
      params(params),
      // verify.seed = 0 draws this fixed default stream.
      rng(params.seed ? params.seed : 0x5bf03635f0a5b2c0ULL)
{}

bool
FaultInjector::stealIdleContext()
{
    if (!rng.chance(params.stealIdleProb))
        return false;
    ++injectedCtxSteals;
    return true;
}

void
FaultInjector::maybeArmBadPte(Addr pte_addr)
{
    if (rng.chance(params.badPteProb))
        armedPtes.insert(pte_addr);
}

uint64_t
FaultInjector::filterPteRead(Addr pte_addr, uint64_t value)
{
    auto it = armedPtes.find(pte_addr);
    if (it == armedPtes.end())
        return value;
    armedPtes.erase(it);
    ++injectedBadPtes;
    return value & ~Pte::ValidBit;
}

void
FaultInjector::disarmBadPte(Addr pte_addr)
{
    armedPtes.erase(pte_addr);
}

bool
FaultInjector::forceSecondaryMiss()
{
    if (!rng.chance(params.forceSecondaryMissProb))
        return false;
    ++injectedForcedMisses;
    return true;
}

bool
FaultInjector::squeezed(Cycle cycle) const
{
    return params.squeezePeriod > 0 && params.squeezeDuration > 0 &&
           cycle % params.squeezePeriod < params.squeezeDuration;
}

unsigned
FaultInjector::effectiveWindow(Cycle cycle, unsigned window_size) const
{
    if (!squeezed(cycle))
        return window_size;
    // Keep room for a full handler plus the excepting instruction so a
    // squeeze can never wedge the machine outright.
    unsigned floor = params.squeezeWindowTo > 20 ? params.squeezeWindowTo
                                                 : 20;
    return floor < window_size ? floor : window_size;
}

void
FaultInjector::onCycle(Cycle cycle)
{
    if (params.squeezePeriod > 0 && params.squeezeDuration > 0 &&
        cycle % params.squeezePeriod == 0) {
        ++squeezeActivations;
    }
}

bool
FaultInjector::shouldSquashHandler(Cycle cycle) const
{
    return params.handlerSquashPeriod > 0 && cycle > 0 &&
           cycle % params.handlerSquashPeriod == 0;
}

} // namespace zmt
