/**
 * @file
 * The benchmark's workloads and the job that times each of them.
 *
 *  - fig5-grid: the paper's Figure 5 grid, 8 benchmarks x {traditional,
 *    multithreaded(1), multithreaded(3), hardware}, each cell paired
 *    with its perfect-TLB baseline through measurePenalty's memo, as
 *    the fig5 bench binary runs it.
 *  - fig7-mix: Figure 7 three-application mixes plus one idle context
 *    under traditional and multithreaded(1): several application
 *    threads share fetch, the window and the ASN-tagged DTLB.
 *  - sampled-long: SMARTS-style sampled runs on a miss-heavy and a
 *    miss-light benchmark, plus a capture -> save -> load -> restore
 *    checkpoint round trip checked against the straight run.
 *
 * Each cell builds and runs its Simulator directly (not through
 * SweepRunner::run) so that construction and Simulator::run can be
 * timed apart; cells are spread over SweepRunner::parallelFor exactly
 * as the sweep runner spreads them.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <sys/resource.h>
#include <sys/stat.h>

#include "perfbench.hh"
#include "sim/sweep.hh"

namespace perfbench
{

using namespace zmt;

namespace
{

enum class Kind
{
    Grid,      //!< detailed run + perfect-TLB baseline (penalty cell)
    Sampled,   //!< sample.period run
    RoundTrip, //!< fast-forward, checkpoint round trip, restored run
};

struct Cell
{
    std::string label;
    std::string mech; //!< metric key: traditional, mt1, mt3, hardware
    Kind kind = Kind::Grid;
    SimParams params;
    std::vector<WorkloadParams> wls;
};

struct CellResult
{
    CoreResult mech;
    CoreResult perfect;  //!< Grid: the memoized baseline
    std::string perfectKey;
    bool ok = true;
    std::string error;
    uint64_t digest = 0;
    double runS = 0;
    uint64_t ckptBytes = 0;     //!< RoundTrip: checkpoint file size
    uint64_t detailedInsts = 0; //!< retired inside timed detailed runs
    uint64_t simInsts = 0;      //!< functional + detailed, this cell
    std::vector<std::pair<std::string, double>> stats;
};

struct JobRun
{
    std::vector<CellResult> cells;
    double wallS = 0;
    size_t baselineRuns = 0;
};

struct Mech
{
    const char *key;
    ExceptMech mech;
    unsigned idle;
};

// Paper Figure 5 / Section 5.3 averages in cycles per miss, in the
// order of fig5Mechs.
const Mech fig5Mechs[] = {
    {"traditional", ExceptMech::Traditional, 0},
    {"mt1", ExceptMech::Multithreaded, 1},
    {"mt3", ExceptMech::Multithreaded, 3},
    {"hardware", ExceptMech::Hardware, 0},
};
const double paperAvg[] = {22.7, 11.7, 11.0, 7.3};

// Bench defaults (bench/bench_util.hh).
constexpr uint64_t BenchInsts = 700'000;
constexpr uint64_t BenchWarmup = 300'000;

// The two miss-heaviest Figure 7 mixes: their penalties are resolvable,
// unlike the gcc-bearing low-miss ones. Two mixes x two mechanisms fill
// the four workers in one round, so a repetition has no ragged tail.
const std::vector<std::vector<std::string>> fig7Subset = {
    {"applu", "compress", "hydro2d"},
    {"alphadoom", "compress", "vortex"},
};

// sampled-long: compress misses 2.2/kinst, alphadoom 0.13/kinst.
const std::vector<std::string> sampledBenches = {"compress", "alphadoom"};
constexpr uint64_t SampledInsts = 100'000'000;
constexpr uint64_t SamplePeriod = 1'000'000;
constexpr uint64_t RoundTripFfwd = 20'000'000;
// Timed repetitions per run, at the least: host-time metrics are their
// median.
constexpr size_t MinRepetitions = 3;
constexpr int SetupRoundsPerSample = 15;

constexpr uint64_t RoundTripInsts = 1'000'000;

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

SimParams
gridParams(const Mech &m, uint64_t insts, uint64_t warmup)
{
    SimParams p;
    p.maxInsts = insts;
    p.warmupInsts = warmup;
    p.except.mech = m.mech;
    p.except.idleThreads = m.idle;
    return p;
}

std::string
joinNames(const std::vector<std::string> &names, const char *sep)
{
    std::string s;
    for (const auto &n : names)
        s += (s.empty() ? "" : sep) + n;
    return s;
}

std::vector<Cell>
buildCells(const std::string &workload, uint64_t seed)
{
    std::vector<Cell> cells;
    if (workload == "fig5-grid") {
        for (const Mech &m : fig5Mechs)
            for (const auto &bench : benchmarkNames())
                cells.push_back({std::string("fig5/") + m.key + "/" + bench,
                                 m.key, Kind::Grid,
                                 gridParams(m, BenchInsts, BenchWarmup),
                                 seededWorkloads({bench}, seed)});
    } else if (workload == "fig7-mix") {
        // bench_fig7_multiapp's sizing: every app retires its share.
        for (const Mech &m : {fig5Mechs[0], fig5Mechs[1]}) {
            Mech withIdle = m;
            withIdle.idle = 1;
            for (const auto &mix : fig7Subset)
                cells.push_back(
                    {std::string("fig7/") + m.key + "/" +
                         joinNames(mix, "-"),
                     m.key, Kind::Grid,
                     gridParams(withIdle, 3 * BenchInsts + 300'000,
                                3 * BenchWarmup),
                     seededWorkloads(mix, seed)});
        }
    } else if (workload == "sampled-long") {
        for (const auto &bench : sampledBenches) {
            SimParams p;
            p.maxInsts = SampledInsts;
            p.sample.periodInsts = SamplePeriod;
            cells.push_back({"sampled/" + bench, "traditional",
                             Kind::Sampled, p, seededWorkloads({bench}, seed)});
        }
        for (const auto &bench : sampledBenches) {
            SimParams p;
            p.maxInsts = RoundTripInsts;
            p.warmupInsts = RoundTripInsts / 3;
            p.ffwd.insts = RoundTripFfwd;
            cells.push_back({"roundtrip/" + bench, "traditional",
                             Kind::RoundTrip, p,
                             seededWorkloads({bench}, seed)});
        }
    }
    return cells;
}

uint64_t
digestResult(uint64_t h, const CoreResult &r)
{
    auto bits = [](double d) {
        uint64_t u;
        std::memcpy(&u, &d, sizeof u);
        return u;
    };
    for (uint64_t v :
         {uint64_t(r.status), r.cycles, r.userInsts, r.tlbMisses,
          r.emulations, r.measuredCycles, r.measuredInsts, r.measuredMisses,
          bits(r.ipc), r.sampling.samples, r.sampling.ffwdInsts,
          r.sampling.coldSamples, bits(r.sampling.ipcMean),
          bits(r.sampling.mpkMean)})
        h = mixDigest(h, v);
    return h;
}

uint64_t
digestText(uint64_t h, const std::string &text)
{
    for (unsigned char c : text)
        h = mixDigest(h, c);
    return h;
}

void
fail(CellResult &r, const std::string &why)
{
    if (r.ok)
        r.error = why;
    r.ok = false;
}

/** A detailed run must end Ok, past warm-up, with every application
 *  thread's share of maxInsts retired. Retirement bandwidth is
 *  unlimited (Table 1), so a single-thread run overshoots by less than
 *  one window; with several threads the faster ones keep retiring
 *  until the slowest reaches its share, so only the floor is exact. */
void
checkDetailed(CellResult &r, const CoreResult &res, const SimParams &p,
              size_t apps, const char *what)
{
    uint64_t floor = p.maxInsts / apps * apps;
    if (!res.ok()) {
        fail(r, std::string(what) + ": " + runStatusName(res.status) + " " +
                    res.error);
    } else if (res.userInsts < floor ||
               (apps == 1 && res.userInsts >= p.maxInsts + p.core.windowSize)) {
        fail(r, std::string(what) + ": retired " +
                    std::to_string(res.userInsts) + " of " +
                    std::to_string(p.maxInsts));
    } else if (!res.warmedUp) {
        fail(r, std::string(what) + ": warm-up never completed");
    }
}

void
dumpAndCollect(Tracer &tracer, int cell, const Simulator &sim,
               CellResult &r, std::string *text = nullptr)
{
    Scope span(tracer, "stats.dump", cell);
    std::ostringstream os;
    sim.dumpStats(os);
    r.digest = digestText(r.digest, os.str());
    r.stats.clear();
    sim.statsRoot().collect(r.stats);
    if (text)
        *text = os.str();
}

void
runGridCell(const Cell &c, int id, Tracer &tracer, CellResult &r)
{
    SimParams perfect = c.params;
    perfect.except.mech = ExceptMech::PerfectTlb;
    {
        Scope span(tracer, "baseline", id);
        r.perfect = measurePenalty(perfect, c.wls).perfect;
    }
    r.perfectKey = perfect.canonicalKey();
    for (const auto &wp : c.wls)
        r.perfectKey += "|" + canonicalKey(wp);

    std::unique_ptr<Simulator> sim;
    {
        Scope span(tracer, "sim.build", id);
        sim = std::make_unique<Simulator>(c.params, c.wls);
    }
    auto start = Clock::now();
    {
        Scope span(tracer, "core.run", id);
        r.mech = sim->run();
    }
    r.runS = secondsSince(start);
    r.detailedInsts = r.simInsts = r.mech.userInsts;
    dumpAndCollect(tracer, id, *sim, r);

    checkDetailed(r, r.mech, c.params, c.wls.size(), "run");
    checkDetailed(r, r.perfect, perfect, c.wls.size(), "baseline");
    r.digest = digestResult(digestResult(r.digest, r.mech), r.perfect);
}

void
runSampledCell(const Cell &c, int id, Tracer &tracer, CellResult &r)
{
    std::unique_ptr<Simulator> sim;
    {
        Scope span(tracer, "sim.build", id);
        sim = std::make_unique<Simulator>(c.params, c.wls);
    }
    {
        Scope span(tracer, "sample.run", id);
        r.mech = sim->run();
    }
    r.simInsts = r.mech.userInsts + r.mech.sampling.ffwdInsts;
    r.digest = digestResult(r.digest, r.mech);
    uint64_t want = c.params.maxInsts / c.params.sample.periodInsts;
    if (!r.mech.ok())
        fail(r, std::string("sampled run: ") + r.mech.error);
    else if (r.mech.sampling.samples != want ||
             r.mech.sampling.coldSamples != 0)
        fail(r, "sampled run: " + std::to_string(r.mech.sampling.samples) +
                    " samples (" +
                    std::to_string(r.mech.sampling.coldSamples) +
                    " cold), expected " + std::to_string(want));
}

void
runRoundTripCell(const Cell &c, int id, const std::string &dir,
                 Tracer &tracer, CellResult &r)
{
    // The straight system: built and fast-forwarded in its constructor.
    std::unique_ptr<Simulator> straight;
    {
        Scope span(tracer, "kernel.ffwd", id);
        straight = std::make_unique<Simulator>(c.params, c.wls);
    }
    CheckpointData data;
    {
        Scope span(tracer, "checkpoint.capture", id);
        data = straight->captureCheckpoint();
    }
    // Distinct per cell: cells of one job run concurrently.
    std::string path = dir + "/cell" + std::to_string(id) + ".ckpt";
    std::string err;
    bool saved;
    {
        Scope span(tracer, "checkpoint.save", id);
        saved = saveCheckpoint(data, path, &err);
    }
    struct stat st{};
    if (saved && ::stat(path.c_str(), &st) == 0)
        r.ckptBytes = uint64_t(st.st_size);
    CheckpointData loaded;
    bool ok = saved;
    if (saved) {
        Scope span(tracer, "checkpoint.load", id);
        ok = loadCheckpoint(path, &loaded, &err);
    }
    std::remove(path.c_str());
    if (!ok) {
        fail(r, "checkpoint round trip: " + err);
        return;
    }

    SimParams runParams = c.params;
    runParams.ffwd = {};
    std::unique_ptr<Simulator> restored;
    {
        Scope span(tracer, "checkpoint.restore", id);
        restored = std::make_unique<Simulator>(runParams, loaded);
    }

    CoreResult straightRes;
    auto start = Clock::now();
    {
        Scope span(tracer, "core.run", id);
        r.mech = restored->run();
    }
    {
        Scope span(tracer, "core.run", id);
        straightRes = straight->run();
    }
    r.runS = secondsSince(start);
    r.detailedInsts = r.mech.userInsts + straightRes.userInsts;
    r.simInsts = r.detailedInsts + straight->ffwdExecuted();

    std::string restoredText, straightText;
    dumpAndCollect(tracer, id, *restored, r, &restoredText);
    {
        CellResult scratch;
        dumpAndCollect(tracer, id, *straight, scratch, &straightText);
    }
    r.digest = digestResult(r.digest, r.mech);

    checkDetailed(r, r.mech, runParams, c.wls.size(), "restored run");
    if (digestResult(0, r.mech) != digestResult(0, straightRes) ||
        restoredText != straightText)
        fail(r, "restored run differs from the straight run");
}

JobRun
runJob(const std::vector<Cell> &cells, unsigned workers,
       const std::string &dir, Tracer &tracer)
{
    JobRun job;
    job.cells.resize(cells.size());
    clearBaselineCache();
    auto start = Clock::now();
    {
        Scope jobSpan(tracer, "job", -1);
        int parent = jobSpan.spanId();
        SweepRunner(workers).parallelFor(cells.size(), [&](size_t i) {
            int id = int(i);
            Scope cellSpan(tracer, "cell", id, parent);
            CellResult &r = job.cells[i];
            switch (cells[i].kind) {
            case Kind::Grid:
                runGridCell(cells[i], id, tracer, r);
                break;
            case Kind::Sampled:
                runSampledCell(cells[i], id, tracer, r);
                break;
            case Kind::RoundTrip:
                runRoundTripCell(cells[i], id, dir, tracer, r);
                break;
            }
        });
    }
    job.wallS = secondsSince(start);
    job.baselineRuns = baselineCacheSize();
    return job;
}

/** Sum of a stat over cells, by dotted-path suffix (every cache's
 *  "mshrFullStalls", say). */
double
statSum(const JobRun &job, const std::string &suffix)
{
    double sum = 0;
    for (const auto &c : job.cells)
        for (const auto &[name, value] : c.stats)
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                sum += value;
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Host-speed end-to-end figures of one repetition. */
Metrics
hostMetrics(const JobRun &job)
{
    double detailed = 0, runS = 0, simInsts = 0;
    std::set<std::string> baselines;
    for (const auto &c : job.cells) {
        detailed += double(c.detailedInsts);
        runS += c.runS;
        simInsts += double(c.simInsts);
        if (!c.perfectKey.empty() && baselines.insert(c.perfectKey).second)
            simInsts += double(c.perfect.userInsts);
    }
    return {{"wall_s", job.wallS},
            {"detailed_kips", ratio(detailed, runS) / 1e3},
            {"sampled_mips", ratio(simInsts, job.wallS) / 1e6}};
}

/** Per-layer figures of one traced repetition. */
Metrics
layerMetrics(const std::vector<Cell> &cells, const JobRun &job,
             const Tracer &tracer, unsigned workers)
{
    Metrics m;
    auto total = tracer.totalSeconds();
    auto count = tracer.counts();
    auto meanMs = [&](const std::string &name) {
        return ratio(total[name], double(count[name])) * 1e3;
    };
    m["sim.build_ms"] = meanMs("sim.build");
    m["stats.dump_ms"] = meanMs("stats.dump");
    for (const char *cp : {"capture", "save", "load", "restore"})
        m[std::string("checkpoint.") + cp + "_ms"] =
            meanMs(std::string("checkpoint.") + cp);

    unsigned used = unsigned(std::min<size_t>(workers, cells.size()));
    m["sweep.idle_frac"] = 1.0 - ratio(total["cell"], used * job.wallS);
    m["sweep.longest_cell_s"] = tracer.longest("cell");
    m["experiment.baseline_runs"] = double(job.baselineRuns);

    // Only spans every workload opens, so each name means the same
    // thing on every workload.
    auto self = tracer.selfSeconds();
    for (const char *name :
         {"job", "cell", "sim.build", "core.run", "stats.dump"})
        m[std::string("self_s.") + name] = self[name];

    std::map<std::string, std::pair<double, double>> perMech;
    double runS = 0, cycles = 0, bytes = 0, roundTrips = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult &r = job.cells[i];
        if (cells[i].kind == Kind::Sampled)
            continue;
        perMech[cells[i].mech].first += double(r.detailedInsts);
        perMech[cells[i].mech].second += r.runS;
        runS += r.runS;
        cycles += double(r.mech.cycles);
        if (cells[i].kind == Kind::RoundTrip) {
            cycles += double(r.mech.cycles); // its identical straight twin
            bytes += double(r.ckptBytes);
            roundTrips += 1;
        }
    }
    for (const char *key : {"traditional", "mt1", "mt3", "hardware"})
        m[std::string("core.kips.") + key] =
            ratio(perMech[key].first, perMech[key].second) / 1e3;
    m["core.ns_per_cycle"] = ratio(runS * 1e9, cycles);
    m["checkpoint.bytes"] = ratio(bytes, roundTrips);

    // A memoized baseline runs once, inside its first caller's
    // "baseline" span; later callers hit or wait on the memo and have
    // shorter spans, so the longest span per key is the run itself
    // (construction included).
    std::map<std::string, double> longestPerKey;
    for (auto [cell, secs] : tracer.spansOf("baseline")) {
        double &best = longestPerKey[job.cells.at(size_t(cell)).perfectKey];
        best = std::max(best, secs);
    }
    double perfInsts = 0, perfS = 0;
    for (const auto &[key, secs] : longestPerKey) {
        for (const auto &c : job.cells)
            if (c.perfectKey == key) {
                perfInsts += double(c.perfect.userInsts);
                break;
            }
        perfS += secs;
    }
    m["core.kips.perfect"] = ratio(perfInsts, perfS) / 1e3;

    double user = statSum(job, "core.retiredUser");
    double kinst = user / 1e3;
    double occupancy = 0;
    for (const auto &c : job.cells) {
        double mean = 0, samples = 0;
        for (const auto &[name, v] : c.stats) {
            if (name.ends_with("windowOccupancy::mean"))
                mean = v;
            else if (name.ends_with("windowOccupancy::samples"))
                samples = v;
        }
        occupancy += mean * samples;
    }
    m["core.window_occupancy"] =
        ratio(occupancy, statSum(job, "windowOccupancy::samples"));
    m["core.fetched_per_retired"] =
        ratio(statSum(job, "core.fetchedInsts"),
              user + statSum(job, "core.retiredPal"));
    m["core.squashed_per_kinst"] =
        ratio(statSum(job, "core.squashedInsts"), kinst);
    m["core.mt_spawns_per_kinst"] =
        ratio(statSum(job, "core.mtSpawns"), kinst);
    m["core.trap_squashes_per_kinst"] =
        ratio(statSum(job, "core.trapSquashes"), kinst);
    m["core.handler_active_frac"] =
        ratio(statSum(job, "core.handlerActiveCycles"),
              statSum(job, "core.cycles"));
    m["tlb.misses_per_kinst"] = ratio(statSum(job, "dtlb.misses"), kinst);
    m["walker.squashed_frac"] = ratio(statSum(job, "walker.walksSquashed"),
                                      statSum(job, "walker.walksStarted"));
    auto missRate = [&](const std::string &cache) {
        double miss = statSum(job, cache + ".misses");
        return ratio(miss, miss + statSum(job, cache + ".hits"));
    };
    m["l1d.miss_rate"] = missRate("l1d");
    m["l2.miss_rate"] = missRate("l2");
    m["bus.wait_per_kinst"] = ratio(statSum(job, "Bus.waitCycles"), kinst);
    m["mshr.full_stalls_per_kinst"] =
        ratio(statSum(job, "mshrFullStalls"), kinst);
    m["bpred.mispredicts_per_kinst"] =
        ratio(statSum(job, "condMispredicts") +
                  statSum(job, "indirectMispredicts") +
                  statSum(job, "rasMispredicts"),
              kinst);

    // Call counts behind the est_share.* estimates; the probes supply
    // the ns per call once the timed repetitions are over.
    m["_calls.tlb"] = statSum(job, "dtlb.hits") + statSum(job, "dtlb.misses");
    double cacheCalls = 0;
    for (const char *cache : {"l1i", "l1d", "l2"})
        cacheCalls += statSum(job, std::string(cache) + ".hits") +
                      statSum(job, std::string(cache) + ".misses");
    m["_calls.cache"] = cacheCalls;
    m["_calls.bpred"] = statSum(job, "bpred.lookups");
    m["_run_ns"] = runS * 1e9;
    return m;
}

/** Simulated results: identical for a given seed on every run. */
Metrics
fidelityMetrics(const std::vector<Cell> &cells, const JobRun &job,
                const std::string &workload)
{
    Metrics m;
    std::map<std::string, std::pair<double, double>> pen;
    double ipc = 0;
    unsigned n = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult &r = job.cells[i];
        if (cells[i].kind == Kind::Grid) {
            PenaltyResult pr{r.mech, r.perfect};
            pen[cells[i].mech].first += pr.penaltyPerMiss();
            pen[cells[i].mech].second += 1;
            ipc += r.mech.ipc;
            ++n;
        } else if (cells[i].kind == Kind::Sampled) {
            ipc += r.mech.sampling.ipcMean;
            ++n;
        }
    }
    m["sim_ipc"] = ratio(ipc, n);
    double err = 0;
    for (size_t k = 0; k < std::size(fig5Mechs); ++k) {
        const auto &p = pen[fig5Mechs[k].key];
        double avg = ratio(p.first, p.second);
        m[std::string("sim_penalty.") + fig5Mechs[k].key] = avg;
        err += std::fabs(avg - paperAvg[k]) / paperAvg[k];
    }
    m["paper_err_pct"] =
        workload == "fig5-grid" ? 100.0 * err / std::size(fig5Mechs) : 0.0;
    return m;
}

/** One setup_s sample: Simulator construction for every cell of the
 *  workload, serially. */
double
setupRound(const std::vector<Cell> &cells)
{
    double sum = 0;
    for (const Cell &c : cells) {
        SimParams p = c.params;
        p.ffwd = {};
        auto start = Clock::now();
        Simulator sim(p, c.wls);
        sum += secondsSince(start);
    }
    return sum;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig5-grid", "fig7-mix",
                                                   "sampled-long"};
    return names;
}

std::vector<WorkloadParams>
seededWorkloads(const std::vector<std::string> &names, uint64_t seed)
{
    // Seed 0 leaves the presets untouched (the repo's published runs).
    uint64_t salt = seed ? splitmix(seed) : 0;
    std::vector<WorkloadParams> wls;
    for (size_t i = 0; i < names.size(); ++i) {
        WorkloadParams wp = benchmarkParams(names[i]);
        // Simulator's own per-position salt for a named mix.
        wp.seed ^= uint64_t(i) * 0x2545f4914f6cdd1dULL;
        wp.seed ^= salt;
        wls.push_back(wp);
    }
    return wls;
}

void
runWorkload(const Options &opts, Tracer &tracer, Report &report)
{
    const std::vector<Cell> cells = buildCells(opts.workload, opts.seed);
    std::vector<WorkloadParams> allWls;
    for (const Cell &c : cells)
        allWls.insert(allWls.end(), c.wls.begin(), c.wls.end());

    Tracer off(false);
    std::vector<uint64_t> reference;

    // Counts every cell of @p job as attempted and every failed check;
    // with @p compare, a digest differing from the 1-worker run fails.
    auto account = [&](const std::vector<Cell> &cs, const JobRun &job,
                       const char *phase, bool compare) {
        for (size_t i = 0; i < cs.size(); ++i) {
            const CellResult &r = job.cells[i];
            ++report.attempted;
            std::string why = r.error;
            if (r.ok && compare && r.digest != reference.at(i))
                why = "result digest differs from the 1-worker run";
            if (!why.empty()) {
                ++report.failed;
                report.failures.push_back(std::string(phase) + " " +
                                          cs[i].label + ": " + why);
            }
        }
    };

    // Reference pass with one worker; it also warms the allocator and
    // page cache before anything is timed.
    JobRun serial = runJob(cells, 1, opts.outDir, off);
    account(cells, serial, "1-worker", false);
    for (const CellResult &r : serial.cells)
        reference.push_back(r.digest);
    Metrics fidelity = fidelityMetrics(cells, serial, opts.workload);

    runFfwdPrefixCheck(allWls, off, nullptr, report);

    // setup_s rounds run before and between the timed repetitions, so
    // their median spans the run instead of one moment of it.
    std::vector<double> setupRounds;
    auto sampleSetup = [&] {
        for (int i = 0; i < SetupRoundsPerSample; ++i)
            setupRounds.push_back(setupRound(cells));
    };
    sampleSetup();

    // Timed repetitions (tracing off) for at least --seconds.
    auto repeat = [&](Tracer &t, std::vector<Metrics> &perRep,
                      std::vector<Metrics> *layers) {
        auto start = Clock::now();
        while (perRep.size() < MinRepetitions ||
               secondsSince(start) < opts.seconds) {
            t.clear();
            JobRun job = runJob(cells, opts.workers, opts.outDir, t);
            account(cells, job, "timed", true);
            sampleSetup();
            perRep.push_back(hostMetrics(job));
            if (layers)
                layers->push_back(layerMetrics(cells, job, t, opts.workers));
        }
    };
    std::vector<Metrics> untraced;
    repeat(off, untraced, nullptr);

    auto medianOf = [](const std::vector<Metrics> &reps,
                       const std::string &key) {
        std::vector<double> xs;
        for (const auto &m : reps)
            xs.push_back(m.at(key));
        return median(xs);
    };

    Metrics &e2e = report.endToEnd;
    for (const char *key : {"wall_s", "detailed_kips", "sampled_mips"})
        e2e[key] = medianOf(untraced, key);
    e2e["setup_s"] = median(setupRounds);
    e2e["sim_ipc"] = fidelity["sim_ipc"];
    e2e["peak_rss_mb"] = peakRssMb();

    char line[160];
    std::snprintf(line, sizeof line,
                  "%zu cells, %zu timed repetitions at %u workers",
                  cells.size(), untraced.size(), opts.workers);
    report.notes.push_back(line);
    std::string walls = "repetition wall_s:";
    for (const auto &m : untraced) {
        std::snprintf(line, sizeof line, " %.3f", m.at("wall_s"));
        walls += line;
    }
    report.notes.push_back(walls);
    for (const auto &[name, value] : fidelity) {
        std::snprintf(line, sizeof line, "fidelity %-24s %.6g", name.c_str(),
                      value);
        report.notes.push_back(line);
    }

    if (!opts.trace)
        return;

    // Traced run: the same job with spans recorded, then the probes.
    std::vector<Metrics> traced, layers;
    repeat(tracer, traced, &layers);
    Metrics &pl = report.perLayer;
    for (const auto &[key, value] : layers.back())
        pl[key] = medianOf(layers, key);
    pl["trace.overhead_frac"] =
        medianOf(traced, "wall_s") / e2e.at("wall_s") - 1.0;

    // The grids never checkpoint: time one round trip of the first
    // cell's system instead, so checkpoint.* reads the same layer on
    // every workload.
    if (cells.front().kind == Kind::Grid) {
        Cell probe = cells.front();
        probe.kind = Kind::RoundTrip;
        probe.params.maxInsts = RoundTripInsts;
        probe.params.warmupInsts = RoundTripInsts / 3;
        probe.params.ffwd.insts = 2'000'000;
        Tracer probeTracer(true);
        JobRun rt = runJob({probe}, 1, opts.outDir, probeTracer);
        account({probe}, rt, "checkpoint probe", false);
        Metrics cp = layerMetrics({probe}, rt, probeTracer, 1);
        for (const char *key :
             {"checkpoint.capture_ms", "checkpoint.save_ms",
              "checkpoint.load_ms", "checkpoint.restore_ms",
              "checkpoint.bytes"})
            pl[key] = cp[key];
    }

    runFfwdPrefixCheck(allWls, tracer, &pl, report);
    runComponentProbes(allWls, opts.seed, pl);

    double runNs = pl["_run_ns"];
    pl["est_share.tlb"] = ratio(pl["_calls.tlb"] * pl["tlb.lookup_ns"], runNs);
    pl["est_share.cache"] =
        ratio(pl["_calls.cache"] * pl["cache.access_ns"], runNs);
    pl["est_share.bpred"] =
        ratio(pl["_calls.bpred"] * pl["bpred.predict_ns"], runNs);
    for (auto it = pl.begin(); it != pl.end();)
        it = it->first[0] == '_' ? pl.erase(it) : std::next(it);
    for (const auto &[name, value] : fidelity)
        if (name != "sim_ipc")
            pl[name] = value;
}

} // namespace perfbench
