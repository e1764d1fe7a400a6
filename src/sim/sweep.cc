#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"

namespace zmt
{

SweepRunner::SweepRunner(unsigned jobs) : numThreads(jobs)
{
    if (numThreads == 0) {
        numThreads = std::thread::hardware_concurrency();
        if (numThreads == 0)
            numThreads = 1;
    }
}

void
SweepRunner::parallelFor(size_t count,
                         const std::function<void(size_t)> &fn) const
{
    if (count == 0)
        return;

    const unsigned workers =
        unsigned(std::min<size_t>(numThreads, count));
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Dynamic self-scheduling: cells vary by orders of magnitude in
    // cost (insts x width x miss rate), so static striping would leave
    // workers idle behind one long cell.
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1))
            fn(i);
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 0; t + 1 < workers; ++t)
        pool.emplace_back(worker);
    worker(); // the calling thread is worker 0
    for (auto &thread : pool)
        thread.join();
}

unsigned
parseJobsFlag(int &argc, char **argv, unsigned fallback)
{
    unsigned jobs = fallback;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strncmp(arg, "--jobs=", 7) == 0) {
            value = arg + 7;
        } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
            value = argv[++i];
        } else {
            argv[out++] = argv[i];
            continue;
        }
        char *end = nullptr;
        unsigned long v = std::strtoul(value, &end, 10);
        fatal_if(end == value || *end != '\0',
                 "bad --jobs value '%s'", value);
        jobs = unsigned(v);
    }
    argv[out] = nullptr;
    argc = out;
    return jobs;
}

namespace
{

void
emitCoreResult(std::ostream &os, const CoreResult &r)
{
    os << "{\"status\":\"" << jsonEscape(runStatusName(r.status))
       << "\",\"cycles\":" << r.cycles
       << ",\"user_insts\":" << r.userInsts
       << ",\"tlb_misses\":" << r.tlbMisses
       << ",\"emulations\":" << r.emulations
       << ",\"measured_cycles\":" << r.measuredCycles
       << ",\"measured_insts\":" << r.measuredInsts
       << ",\"measured_misses\":" << r.measuredMisses
       << ",\"ipc\":" << jsonNumber(r.ipc)
       << ",\"warmed_up\":" << (r.warmedUp ? "true" : "false")
       << ",\"sampling\":{\"samples\":" << r.sampling.samples
       << ",\"ffwd_insts\":" << r.sampling.ffwdInsts
       << ",\"cold_samples\":" << r.sampling.coldSamples
       << ",\"ipc_mean\":" << jsonNumber(r.sampling.ipcMean)
       << ",\"ipc_ci95\":" << jsonNumber(r.sampling.ipcCi95)
       << ",\"mpk_mean\":" << jsonNumber(r.sampling.mpkMean)
       << ",\"mpk_ci95\":" << jsonNumber(r.sampling.mpkCi95) << "}";
    // Per-exception penalty attribution (all zero unless the run had
    // obs.attrib / an export enabled — the counters live in the
    // ExcTimeline sink).
    os << ",\"attrib\":{\"completed\":" << r.attrib.completed
       << ",\"aborted\":" << r.attrib.aborted
       << ",\"span_cycles\":" << r.attrib.spanCycles;
    for (unsigned c = 0; c < obs::NumAttribCats; ++c) {
        os << ",\"" << obs::attribCatName(obs::AttribCat(c))
           << "_cycles\":" << r.attrib.cycles[c];
    }
    os << "}}";
}

} // anonymous namespace

void
emitSweepCell(std::ostream &os, size_t index, const SweepJob &job,
              const SweepOutcome &outcome, const std::string &failureJson,
              bool nullPerfect)
{
    const PenaltyResult &r = outcome.result;
    os << "{\"index\":" << index << ",\"label\":\""
       << jsonEscape(job.label) << "\",\"benchmarks\":[";
    for (size_t i = 0; i < job.benchmarks.size(); ++i)
        os << (i ? "," : "") << "\"" << jsonEscape(job.benchmarks[i])
           << "\"";
    for (size_t i = 0; i < job.workloads.size(); ++i)
        os << (i || !job.benchmarks.empty() ? "," : "") << "\""
           << jsonEscape(job.workloads[i].name) << "\"";
    os << "],\"penalty_per_miss\":" << jsonNumber(r.penaltyPerMiss())
       << ",\"tlb_fraction\":" << jsonNumber(r.tlbFraction())
       << ",\"ipc\":" << jsonNumber(r.mech.ipc)
       << ",\"misses_per_kinst\":" << jsonNumber(r.missesPerKilo())
       << ",\"mech\":";
    emitCoreResult(os, r.mech);
    os << ",\"perfect\":";
    if (job.skipBaseline || nullPerfect)
        os << "null";
    else
        emitCoreResult(os, r.perfect);
    os << ",\"wall_seconds\":" << jsonNumber(outcome.wallSeconds)
       << ",\"failure\":" << failureJson << ",\"params\":{";
    bool first = true;
    job.params.forEachParam(
        [&](const std::string &name, const std::string &value) {
            os << (first ? "" : ",") << "\"" << jsonEscape(name)
               << "\":\"" << jsonEscape(value) << "\"";
            first = false;
        });
    os << "}}";
}

} // namespace zmt
