/**
 * @file
 * Shared infrastructure for the per-figure/table benchmark binaries.
 *
 * A binary declares its grid, runs it, and prints the paper's tables
 * from the outcomes:
 *
 *   int main(int argc, char **argv)
 *   {
 *       benchParseArgs(argc, argv);  // first: cells read --insts
 *       for (...)
 *           declareCell(label, params, {bench});
 *       return benchMain(argv[0], summary);
 *   }
 *
 * benchMain runs every declared cell on the campaign runner
 * (sim/campaign.hh): in-process on a thread pool by default, with
 * isolation, retries, a journal or a shard when those flags are given.
 * It writes results/<binary>.json (schema zmt-sweep-results-v1) and,
 * when every cell has a result, calls summary(), whose cellResult()
 * lookups read the finished grid. No cell ever runs outside the
 * runner, so a crashing configuration under --isolate stays contained.
 * Results are byte-identical for any --jobs value: each cell is an
 * independent deterministic simulation, and outcomes are kept in
 * declaration order.
 *
 * Run lengths: 700k instructions with a 300k warm-up window (override
 * with --insts/--warmup for quick CI sweeps). The paper ran
 * 100M-instruction windows from checkpoints; our synthetic workloads
 * are stationary, so a few hundred post-warm-up misses per benchmark
 * give stable penalty estimates.
 */

#ifndef ZMT_BENCH_BENCH_UTIL_HH
#define ZMT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/campaign.hh"

namespace zmtbench
{

using namespace zmt;

constexpr uint64_t BenchInsts = 700'000;
constexpr uint64_t BenchWarmup = 300'000;

/** The binary's command line, parsed by benchParseArgs. */
struct BenchConfig
{
    unsigned jobs = 0;           //!< 0 = hardware_concurrency
    uint64_t insts = BenchInsts;
    uint64_t warmup = BenchWarmup;
    std::string jsonPath;        //!< empty = results/<binary>.json
    bool emitJson = true;
    bool attrib = false;         //!< per-exception penalty attribution

    /** --isolate/--timeout/--retries/--shard/--journal/--resume;
     *  the defaults run every cell in-process. */
    CampaignOptions campaign;

    /** --inject-panic SUBSTR: arm verify.panicAtCycle on every cell
     *  whose label contains SUBSTR (fault-injection drills: prove a
     *  crashing cell is contained and quarantined, not fatal). */
    std::string injectPanic;
};

inline BenchConfig &
benchConfig()
{
    static BenchConfig config;
    return config;
}

/**
 * Parse the command line into benchConfig(). Call first in every
 * main(), before declaring cells (baseParams reads --insts/--warmup).
 * An argument it does not recognise prints a usage line and exits 2.
 */
inline void
benchParseArgs(int argc, char **argv)
{
    BenchConfig &config = benchConfig();
    config.jobs = parseJobsFlag(argc, argv, config.jobs);
    parseCampaignFlags(argc, argv, config.campaign);

    auto take_value = [&](int &i, const char *flag,
                          const char *prefix) -> const char * {
        if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0)
            return argv[i] + std::strlen(prefix);
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
            return argv[++i];
        return nullptr;
    };

    for (int i = 1; i < argc; ++i) {
        if (const char *v = take_value(i, "--insts", "--insts=")) {
            config.insts = parseUnsigned("--insts", v);
        } else if (const char *w =
                       take_value(i, "--warmup", "--warmup=")) {
            config.warmup = parseUnsigned("--warmup", w);
        } else if (const char *j = take_value(i, "--json", "--json=")) {
            config.jsonPath = j;
        } else if (std::strcmp(argv[i], "--no-json") == 0) {
            config.emitJson = false;
        } else if (std::strcmp(argv[i], "--attrib") == 0) {
            config.attrib = true;
        } else if (const char *p = take_value(i, "--inject-panic",
                                              "--inject-panic=")) {
            config.injectPanic = p;
        } else {
            std::fprintf(
                stderr,
                "%s: bad argument '%s'\n"
                "usage: %s [--jobs N] [--insts N] [--warmup N] "
                "[--json PATH | --no-json] [--attrib]\n"
                "       [--isolate] [--timeout S] [--retries N] "
                "[--backoff S] [--shard I/N]\n"
                "       [--journal PATH] [--resume PATH] "
                "[--inject-panic SUBSTR]\n",
                argv[0], argv[i], argv[0]);
            std::exit(2);
        }
    }
}

/** Default parameters for all experiments (Table 1 machine). */
inline SimParams
baseParams()
{
    SimParams params;
    params.maxInsts = benchConfig().insts;
    params.warmupInsts = benchConfig().warmup;
    // --attrib: every measured run carries the penalty-attribution
    // sink (the perfect-TLB baselines stay obs-free — experiment.cc
    // clears obs on the baseline copy).
    params.obs.attrib = benchConfig().attrib;
    return params;
}

namespace detail
{

/** The declared cells and, once benchMain has run them, outcomes. */
struct Grid
{
    std::vector<SweepJob> jobs;            //!< declaration order
    std::map<std::string, size_t> byKey;   //!< cell key -> jobs index
    std::vector<CampaignOutcome> outcomes; //!< parallel to jobs
};

inline Grid &
grid()
{
    static Grid grid;
    return grid;
}

/** The workload half of a cell key; SimParams::canonicalKey() is the
 *  other half. */
inline std::string
workloadKey(const std::vector<std::string> &benches)
{
    std::string key = "|n:";
    for (const auto &bench : benches)
        key += bench + "+";
    return key;
}

inline std::string
workloadKey(const std::vector<WorkloadParams> &workloads)
{
    std::string key = "|w:";
    for (const auto &wp : workloads)
        key += canonicalKey(wp) + "+";
    return key;
}

inline void
declare(SweepJob job, const std::string &workloads)
{
    Grid &g = grid();
    g.byKey.emplace(job.params.canonicalKey() + workloads, g.jobs.size());
    g.jobs.push_back(std::move(job));
}

inline const PenaltyResult &
lookup(const SimParams &params, const std::string &workloads)
{
    const Grid &g = grid();
    auto it = g.byKey.find(params.canonicalKey() + workloads);
    panic_if(it == g.byKey.end(),
             "bench grid: summary() reads a cell main() never "
             "declared (%s)",
             workloads.c_str());
    return g.outcomes[it->second].outcome.result;
}

} // namespace detail

/** Declare one cell of the grid: @p params on named benchmarks. */
inline void
declareCell(std::string label, SimParams params,
            std::vector<std::string> benches)
{
    std::string key = detail::workloadKey(benches);
    detail::declare(SweepJob(std::move(params), std::move(benches),
                             std::move(label)),
                    key);
}

/** Explicit-workload variant (e.g. the Section 6 emulation study);
 *  @p skipBaseline drops the perfect-TLB companion run. */
inline void
declareCell(std::string label, SimParams params,
            std::vector<WorkloadParams> workloads,
            bool skipBaseline = false)
{
    std::string key = detail::workloadKey(workloads);
    detail::declare(SweepJob(std::move(params), std::move(workloads),
                             std::move(label), skipBaseline),
                    key);
}

/** A declared cell's result, for summary() (panics on any other). */
inline const PenaltyResult &
cellResult(const SimParams &params, const std::vector<std::string> &benches)
{
    return detail::lookup(params, detail::workloadKey(benches));
}

inline const PenaltyResult &
cellResult(const SimParams &params,
           const std::vector<WorkloadParams> &workloads)
{
    return detail::lookup(params, detail::workloadKey(workloads));
}

/** Pretty table writer used for the paper-vs-measured summaries. */
class Table
{
  public:
    explicit Table(std::string title) : title(std::move(title)) {}

    Table &
    header(const std::vector<std::string> &cols)
    {
        rows.push_back(cols);
        return *this;
    }

    Table &
    row(const std::vector<std::string> &cols)
    {
        rows.push_back(cols);
        return *this;
    }

    void
    print() const
    {
        std::printf("\n=== %s ===\n", title.c_str());
        std::vector<size_t> widths;
        for (const auto &row : rows) {
            if (widths.size() < row.size())
                widths.resize(row.size(), 0);
            for (size_t i = 0; i < row.size(); ++i)
                widths[i] = std::max(widths[i], row[i].size());
        }
        for (size_t r = 0; r < rows.size(); ++r) {
            for (size_t i = 0; i < rows[r].size(); ++i)
                std::printf("%-*s  ", int(widths[i]), rows[r][i].c_str());
            std::printf("\n");
            if (r == 0) {
                size_t total = 0;
                for (size_t w : widths)
                    total += w + 2;
                std::printf("%s\n", std::string(total, '-').c_str());
            }
        }
    }

  private:
    std::string title;
    std::vector<std::vector<std::string>> rows;
};

inline std::string
fmt(double value, int precision = 1)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

/**
 * Run the declared grid on the campaign runner, write the results
 * document, and print the paper tables through @p summary when every
 * cell has a result. Otherwise the tables are skipped and stderr names
 * each cell without one. Progress goes to stderr, so stdout is
 * byte-identical for any --jobs value and with or without isolation.
 * Exit codes: 0 every cell of this shard is ok, 1 some cell failed,
 * 130 interrupted (resumable through --resume on the journal).
 */
inline int
benchMain(const char *argv0, void (*summary)())
{
    // Binary name ("bench_fig5_mechanisms") for the results file.
    std::string name = argv0;
    if (auto slash = name.rfind('/'); slash != std::string::npos)
        name = name.substr(slash + 1);

    const BenchConfig &config = benchConfig();
    detail::Grid &grid = detail::grid();
    std::vector<SweepJob> &jobs = grid.jobs;
    // Fault-injection drill: arm the deterministic panic on matching
    // cells (their declared keys still find them in summary()).
    if (!config.injectPanic.empty()) {
        for (SweepJob &job : jobs) {
            if (job.label.find(config.injectPanic) != std::string::npos)
                job.params.verify.panicAtCycle = 1000;
        }
    }

    CampaignRunner runner(config.campaign, config.jobs);
    auto start = std::chrono::steady_clock::now();
    grid.outcomes = runner.run(
        jobs, [&](size_t i, const CampaignOutcome &outcome) {
            const char *what =
                outcome.state == CellState::FromJournal ? "journal"
                : outcome.ok()                          ? "ok"
                : outcome.failure.quarantined           ? "QUARANTINED"
                                                        : "FAILED";
            std::fprintf(stderr, "# [%zu/%zu] %s: %s\n", i + 1,
                         jobs.size(), jobs[i].label.c_str(), what);
        });
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    const std::vector<CampaignOutcome> &outcomes = grid.outcomes;

    size_t failed = 0, unresolved = 0, written = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CampaignOutcome &outcome = outcomes[i];
        const char *label = jobs[i].label.c_str();
        if (outcome.state == CellState::Failed) {
            ++failed;
            const JobFailure &f = outcome.failure;
            std::fprintf(stderr, "# failure: %s: %s (%u attempt%s%s)\n",
                         label, f.message.c_str(), f.attempts,
                         f.attempts == 1 ? "" : "s",
                         f.quarantined ? ", quarantined" : "");
        } else if (outcome.state == CellState::OtherShard) {
            std::fprintf(stderr, "# other shard: %s\n", label);
        } else if (outcome.state == CellState::Pending) {
            std::fprintf(stderr, "# not run: %s\n", label);
        }
        unresolved += !outcome.ok();
        written += outcome.ok() || outcome.state == CellState::Failed;
    }
    std::fprintf(stderr, "# campaign: %zu cells, %zu failed, %u threads, "
                         "%.1fs%s\n",
                 jobs.size(), failed, runner.threads(), wall,
                 runner.interrupted() ? " [interrupted]" : "");

    std::string path;
    if (config.emitJson) {
        path = config.jsonPath.empty() ? "results/" + name + ".json"
                                       : config.jsonPath;
        if (!writeCampaignResultsJson(path, name, jobs, outcomes,
                                      runner.threads(), wall,
                                      config.campaign,
                                      runner.interrupted())) {
            std::fprintf(stderr, "error: could not write %s\n",
                         path.c_str());
            path.clear();
        }
    }

    if (unresolved == 0)
        summary();
    else
        std::fprintf(stderr, "# tables skipped: %zu of %zu cells have "
                             "no result\n",
                     unresolved, jobs.size());
    // Reported after the tables, which lead stdout.
    if (!path.empty())
        std::printf("\nwrote %s (%zu cells)\n", path.c_str(), written);

    if (runner.interrupted())
        return 130;
    return failed ? 1 : 0;
}

} // namespace zmtbench

#endif // ZMT_BENCH_BENCH_UTIL_HH
