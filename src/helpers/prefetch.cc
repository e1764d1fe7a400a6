#include "helpers/prefetch.hh"

#include <algorithm>

#include "common/logging.hh"

namespace zmt
{

PrefetchHelper::PrefetchHelper(const HelperParams &params,
                               MemHierarchy &hier,
                               stats::StatGroup *parent)
    : stats::StatGroup("prefetch", parent),
      trained(this, "trained", "training loads observed"),
      probes(this, "probes", "prefetch probes issued"),
      redundant(this, "redundant",
                "probe candidates dropped (line already resident)"),
      dropped(this, "dropped", "probe candidates dropped (queue full)"),
      demandLoads(this, "demandLoads", "demand loads classified"),
      usefulReady(this, "usefulReady",
                  "demand loads covered by an arrived prefetch"),
      usefulLate(this, "usefulLate",
                 "demand loads covered by an in-flight prefetch"),
      demandMisses(this, "demandMisses",
                   "demand loads that missed L1d despite the helper"),
      coverage(this, "coverage",
               "prefetched share of would-be demand misses",
               [this] {
                   double useful =
                       usefulReady.value() + usefulLate.value();
                   double total = useful + demandMisses.value();
                   return total > 0 ? useful / total : 0.0;
               }),
      accuracy(this, "accuracy", "useful share of issued probes",
               [this] {
                   double useful =
                       usefulReady.value() + usefulLate.value();
                   return probes.value() > 0 ? useful / probes.value()
                                             : 0.0;
               }),
      timeliness(this, "timeliness",
                 "fully-arrived share of useful prefetches",
                 [this] {
                     double useful =
                         usefulReady.value() + usefulLate.value();
                     return useful > 0 ? usefulReady.value() / useful
                                       : 0.0;
                 }),
      params(params),
      hier(hier)
{
    fatal_if(params.prefetchTableSize == 0, "helper.prefetchTableSize=0");
    table.assign(params.prefetchTableSize, StrideEntry{});
}

void
PrefetchHelper::enqueue(Addr va, const AddressSpace &space)
{
    auto pa = space.translate(va);
    if (!pa)
        return; // run-ahead slice wandered off the mapped region
    if (hier.dcache().wouldHit(*pa)) {
        ++redundant;
        return;
    }
    if (queue.size() >= params.prefetchQueue) {
        ++dropped;
        return;
    }
    queue.push_back(*pa);
}

void
PrefetchHelper::train(Addr pc, Addr va, const AddressSpace &space)
{
    ++trained;

    // --- Stride slice: PC-indexed direct-mapped table.
    StrideEntry &entry = table[(pc >> 2) % table.size()];
    if (entry.pc == pc) {
        int64_t stride = int64_t(va) - int64_t(entry.lastVa);
        if (stride != 0 && stride == entry.stride) {
            if (entry.confidence < 4)
                ++entry.confidence;
        } else {
            entry.stride = stride;
            entry.confidence = 0;
        }
        entry.lastVa = va;
        if (entry.confidence >= 2) {
            for (unsigned k = 1; k <= params.prefetchDegree; ++k)
                enqueue(Addr(int64_t(va) + entry.stride * int64_t(k)),
                        space);
        }
    } else {
        entry = StrideEntry{pc, va, 0, 0};
    }

    // --- Content-directed pointer chase: treat an aligned loaded cell
    // holding a mapped, aligned address as a linked-list node and run
    // ahead along the chain.
    if ((va & 7) != 0)
        return;
    auto cell = space.load(va, 8);
    for (unsigned hop = 0; cell && hop < params.prefetchDistance; ++hop) {
        Addr cursor = cell->value;
        if ((cursor & 7) != 0 || cursor == 0)
            break;
        cell = space.load(cursor, 8);
        if (cell)
            enqueue(cursor, space);
    }
}

void
PrefetchHelper::onDemandLoad(Addr pa, Cycle now)
{
    ++demandLoads;
    switch (hier.consumePrefetched(pa, now)) {
      case Cache::PrefetchHit::Ready:
        ++usefulReady;
        return;
      case Cache::PrefetchHit::Late:
        ++usefulLate;
        return;
      case Cache::PrefetchHit::None:
        break;
    }
    if (!hier.dcache().wouldHit(pa))
        ++demandMisses;
}

unsigned
PrefetchHelper::issueProbes(Cycle now, unsigned ports_free)
{
    unsigned budget = std::min(ports_free, params.prefetchDegree);
    unsigned used = 0;
    while (used < budget && !queue.empty()) {
        Addr pa = queue.front();
        queue.pop_front();
        if (hier.dcache().wouldHit(pa)) {
            // Landed (or demand-fetched) since it was queued.
            ++redundant;
            continue;
        }
        hier.prefetchData(pa, now);
        ++probes;
        ++used;
    }
    return used;
}

} // namespace zmt
