#include "sim/experiment.hh"

#include <functional>
#include <future>
#include <map>
#include <mutex>

namespace zmt
{

namespace
{

/**
 * Memoized baselines, shared by every thread of a sweep. Values are
 * shared_futures so that when several workers miss on the same key at
 * once, exactly one runs the simulation and the rest block on its
 * result instead of duplicating a multi-second run.
 */
std::mutex cacheMutex;
std::map<std::string, std::shared_future<CoreResult>> futureCache;

CoreResult
cachedRun(const std::string &key, const std::function<CoreResult()> &run)
{
    std::shared_future<CoreResult> fut;
    std::promise<CoreResult> mine;
    bool runner = false;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = futureCache.find(key);
        if (it == futureCache.end()) {
            fut = mine.get_future().share();
            futureCache.emplace(key, fut);
            runner = true;
        } else {
            fut = it->second;
        }
    }
    if (runner)
        mine.set_value(run()); // outside the lock: this is the long part
    return fut.get();
}

} // anonymous namespace

std::string
cellKey(const SimParams &params,
        const std::vector<WorkloadParams> &workloads)
{
    std::string key = params.canonicalKey();
    for (const WorkloadParams &wp : workloads) {
        key += '|';
        key += canonicalKey(wp);
    }
    return key;
}

SimParams
baselineParams(const SimParams &params)
{
    SimParams perfect = params;
    perfect.except.mech = ExceptMech::PerfectTlb;
    // Observability exports belong to the measured run only: a cached
    // baseline must neither clobber the caller's trace files nor get a
    // key polluted by export paths. Likewise the checkpoint output:
    // the baseline fast-forwards the same region (ffwd.insts / restore
    // stay) but must not re-write the file.
    perfect.obs = {};
    perfect.ffwd.save.clear();
    // Only the handler-thread mechanisms read idleThreads, so cells
    // that differ in it alone share one perfect-TLB baseline.
    perfect.except.idleThreads = 0;
    return perfect;
}

PenaltyResult
measurePenalty(const SimParams &params,
               const std::vector<WorkloadParams> &workloads,
               bool skipBaseline)
{
    PenaltyResult result;
    if (!skipBaseline) {
        SimParams perfect = baselineParams(params);
        result.perfect = cachedRun(cellKey(perfect, workloads), [&] {
            return runSimulation(perfect, workloads);
        });
    }
    // A perfect-TLB configuration *is* its own baseline — reuse it
    // rather than simulating the identical machine twice.
    if (!skipBaseline && params.except.mech == ExceptMech::PerfectTlb)
        result.mech = result.perfect;
    else
        result.mech = runSimulation(params, workloads);
    return result;
}

void
clearBaselineCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    futureCache.clear();
}

size_t
baselineCacheSize()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    return futureCache.size();
}

const std::vector<std::vector<std::string>> &
figure7Mixes()
{
    // The eight mixes of Figure 7, by the paper's short names:
    // adm-gcc-vor, apl-cmp-h2d, apl-dbl-vor, dbl-gcc-h2d,
    // adm-cmp-vor, adm-h2d-mph, apl-dbl-mph, cmp-gcc-mph.
    static const std::vector<std::vector<std::string>> mixes = {
        {"alphadoom", "gcc", "vortex"},
        {"applu", "compress", "hydro2d"},
        {"applu", "deltablue", "vortex"},
        {"deltablue", "gcc", "hydro2d"},
        {"alphadoom", "compress", "vortex"},
        {"alphadoom", "hydro2d", "murphi"},
        {"applu", "deltablue", "murphi"},
        {"compress", "gcc", "murphi"},
    };
    return mixes;
}

} // namespace zmt
