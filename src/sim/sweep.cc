#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <ostream>
#include <thread>

#include "common/logging.hh"
#include "sim/jsonfields.hh"

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
        if (std::strncmp(arg, "--jobs=", 7) == 0)
            jobs = parseUnsigned<unsigned>("--jobs", arg + 7);
        else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc)
            jobs = parseUnsigned<unsigned>("--jobs", argv[++i]);
        else
            argv[out++] = argv[i];
    }
    argv[out] = nullptr;
    argc = out;
    return jobs;
}

// The field lists of a results cell's "mech"/"perfect" objects. They
// live in namespace zmt (zmt::obs for AttribSummary), not the
// anonymous one, so that argument-dependent lookup finds them.

template <RecordOf<CoreResult::SampleStats> R, typename V>
void
visitFields(R &s, V &&v)
{
    v("samples", s.samples);
    v("ffwd_insts", s.ffwdInsts);
    v("cold_samples", s.coldSamples);
    v("ipc_mean", s.ipcMean);
    v("ipc_ci95", s.ipcCi95);
    v("mpk_mean", s.mpkMean);
    v("mpk_ci95", s.mpkCi95);
}

namespace obs
{

/** Per-exception penalty attribution (all zero unless the run had
 *  obs.attrib or an export enabled). */
template <RecordOf<AttribSummary> R, typename V>
void
visitFields(R &a, V &&v)
{
    v("completed", a.completed);
    v("aborted", a.aborted);
    v("span_cycles", a.spanCycles);
    for (unsigned c = 0; c < NumAttribCats; ++c)
        v(std::string(attribCatName(AttribCat(c))) + "_cycles",
          a.cycles[c]);
}

} // namespace obs

/** CoreResult's members, less the error text: a persisted run always
 *  ended Ok, since runSimulation is fatal otherwise. */
template <RecordOf<CoreResult> R, typename V>
void
visitFields(R &r, V &&v)
{
    v("status", r.status);
    v("cycles", r.cycles);
    v("user_insts", r.userInsts);
    v("tlb_misses", r.tlbMisses);
    v("emulations", r.emulations);
    v("measured_cycles", r.measuredCycles);
    v("measured_insts", r.measuredInsts);
    v("measured_misses", r.measuredMisses);
    v("ipc", r.ipc);
    v("warmed_up", r.warmedUp);
    v("sampling", r.sampling);
    v("attrib", r.attrib);
}

template <RecordOf<SweepOutcome> R, typename V>
void
visitFields(R &o, V &&v)
{
    v("wall_seconds", o.wallSeconds);
    v("mech", o.result.mech);
    v("perfect", o.result.perfect);
}

void
writeSweepOutcome(std::ostream &os, const SweepOutcome &outcome)
{
    writeJsonObject(os, outcome);
}

bool
parseSweepOutcome(const std::string &text, SweepOutcome *outcome)
{
    return parseJsonObject(text, outcome);
}

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
    writeJsonObject(os, r.mech);
    os << ",\"perfect\":";
    if (job.skipBaseline || nullPerfect)
        os << "null";
    else
        writeJsonObject(os, r.perfect);
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
