/**
 * @file
 * Torture harness: sweeps random (workload x machine config x
 * exception mechanism x fault schedule) tuples, running each with
 * per-cycle invariant auditing and differentially checking every
 * application thread's architectural result against the functional
 * golden model (verify/diffcheck). Fault injection forces the rare
 * paths — HARDEXC reversion, deadlock-avoidance squash, secondary-miss
 * relink, no-idle-context fallback, mid-flight handler reclaim — and
 * the final report shows how often each fired across the sweep.
 *
 * Fully deterministic: every run's configuration derives from
 * (sweep seed, run index), and a failing run prints the key=value
 * settings needed to reproduce it alone (rerun with only=<index>).
 * Runs execute in parallel on the sweep-runner thread pool (jobs=N,
 * default one worker per core); each run is independent, results are
 * collected and reported in index order, so the output is identical
 * for any jobs value.
 *
 * Usage: torture [runs=200] [seed=1] [insts=8000] [only=-1]
 *                [require_coverage=1] [verbose=0] [jobs=0]
 *                [json=results/torture.json]
 *                [isolate=0|1] [timeout=SECONDS]
 *
 * isolate=1 runs every configuration in a forked child
 * (sim/campaign.hh), so a panic, sanitizer abort or OOM in one run is
 * reported as that run's failure instead of killing the whole sweep;
 * timeout=S additionally SIGKILLs runs that exceed S seconds of wall
 * clock (timeout implies isolation). Failures always propagate into
 * the exit code and the JSON "failures" array.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common/random.hh"
#include "sim/campaign.hh"
#include "sim/jsonfields.hh"
#include "sim/simulator.hh"
#include "verify/diffcheck.hh"

using namespace zmt;

namespace
{

const char *kBenches[] = {"compress", "gcc",    "vortex",   "deltablue",
                          "murphi",   "hydro2d", "applu",   "alphadoom"};

struct RunConfig
{
    SimParams params;
    std::vector<WorkloadParams> workloads;
    std::string desc; //!< reproducible one-line description
};

/** Derive run @p index's configuration from the sweep seed. */
RunConfig
makeConfig(uint64_t sweep_seed, uint64_t index, uint64_t base_insts)
{
    // Distinct, deterministic stream per run index.
    Rng rng(sweep_seed * 0x9e3779b97f4a7c15ULL + index + 1);
    RunConfig cfg;
    SimParams &p = cfg.params;

    // Mechanism mix biased toward the handler-thread mechanisms the
    // injector targets, but every mechanism appears.
    static const ExceptMech mechs[] = {
        ExceptMech::Multithreaded, ExceptMech::Multithreaded,
        ExceptMech::Multithreaded, ExceptMech::QuickStart,
        ExceptMech::QuickStart,    ExceptMech::Traditional,
        ExceptMech::Hardware,      ExceptMech::PerfectTlb};
    p.except.mech = mechs[rng.below(std::size(mechs))];

    // Machine shape (Figure 3 width/window pairs).
    static const unsigned widths[] = {2, 4, 8};
    p.core.setWidth(widths[rng.below(3)]);
    p.tlb.dtlbEntries = rng.chance(0.3) ? 16 : 64;
    p.except.idleThreads = rng.chance(0.3) ? 3 : 1;
    p.except.windowReservation = !rng.chance(0.2);
    p.except.handlerFetchPriority = !rng.chance(0.2);
    p.except.relinkSecondaryMiss = !rng.chance(0.15);
    p.except.deadlockSquash = true;
    // Spent draw: it fed a since-deleted knob, and keeping it keeps
    // every (seed, index) on the same tuple.
    rng.chance(0.3);

    p.maxInsts = base_insts / 2 + rng.below(base_insts);
    p.seed = rng.next();
    p.watchdogCycles = 20'000'000;

    // Fault schedule: each injector armed independently, so runs with
    // no injection at all (pure baseline) also appear.
    VerifyParams &v = p.verify;
    v.invariantPeriod = 1;
    v.seed = rng.next();
    if (rng.chance(0.6))
        v.badPteProb = 0.05 + 0.45 * double(rng.below(100)) / 100.0;
    if (rng.chance(0.4))
        v.stealIdleProb = 0.1 + 0.5 * double(rng.below(100)) / 100.0;
    if (rng.chance(0.6)) {
        v.forceSecondaryMissProb =
            0.2 + 0.6 * double(rng.below(100)) / 100.0;
    }
    if (rng.chance(0.5)) {
        v.squeezePeriod = unsigned(rng.range(400, 1200));
        v.squeezeDuration = unsigned(rng.range(60, 200));
        v.squeezeWindowTo = unsigned(rng.range(20, 40));
    }
    if (rng.chance(0.35))
        v.handlerSquashPeriod = unsigned(rng.range(500, 1500));

    // Workloads: mostly single-app; sometimes a 2-3 app SMT mix.
    unsigned napps = rng.chance(0.7) ? 1 : unsigned(rng.range(2, 3));
    for (unsigned i = 0; i < napps; ++i) {
        WorkloadParams wp =
            benchmarkParams(kBenches[rng.below(std::size(kBenches))]);
        wp.seed ^= rng.next();
        // Occasionally add FSQRTs and emulate them: the Section 6
        // generalized mechanism rides the same handler machinery.
        if (i == 0 && rng.chance(0.15)) {
            wp.fsqrtOps = unsigned(rng.range(1, 2));
            wp.fpChains = wp.fpChains ? wp.fpChains : 1;
            wp.fpOpsPerChain = wp.fpOpsPerChain ? wp.fpOpsPerChain : 1;
            p.except.emulateFsqrt = true;
        }
        cfg.workloads.push_back(wp);
    }

    char buf[512];
    std::string wl;
    for (const auto &wp : cfg.workloads)
        wl += (wl.empty() ? "" : "+") + wp.name;
    std::snprintf(
        buf, sizeof buf,
        "%s width=%u dtlb=%u idle=%u insts=%" PRIu64
        " wl=%s badPte=%.2f steal=%.2f forceMiss=%.2f "
        "squeeze=%u/%u@%u hsquash=%u relink=%d resv=%d emul=%d",
        mechName(p.except.mech), p.core.width, p.tlb.dtlbEntries,
        p.except.idleThreads, p.maxInsts, wl.c_str(), v.badPteProb,
        v.stealIdleProb, v.forceSecondaryMissProb, v.squeezeWindowTo,
        v.squeezeDuration, v.squeezePeriod, v.handlerSquashPeriod,
        int(p.except.relinkSecondaryMiss),
        int(p.except.windowReservation), int(p.except.emulateFsqrt));
    cfg.desc = buf;
    return cfg;
}

double
coreStat(const Simulator &sim, const std::string &name)
{
    const stats::StatBase *s = sim.statsRoot().find("core." + name);
    if (auto *scalar = dynamic_cast<const stats::Scalar *>(s))
        return scalar->value();
    return 0.0;
}

struct Coverage
{
    uint64_t total = 0;
    uint64_t runsNonzero = 0;

    void
    note(double v)
    {
        total += uint64_t(v);
        runsNonzero += v > 0 ? 1 : 0;
    }
};

/** key=N, bounded by what @p T (the type of @p fallback) can hold. */
template <typename T>
T
parseArg(const char *arg, const char *key, T fallback, bool *found)
{
    std::string s(arg);
    std::string prefix = std::string(key) + "=";
    if (s.rfind(prefix, 0) != 0)
        return fallback;
    *found = true;
    return parseUnsigned<T>(key, s.c_str() + prefix.size());
}

std::string
parseStrArg(const char *arg, const char *key, std::string fallback,
            bool *found)
{
    std::string s(arg);
    std::string prefix = std::string(key) + "=";
    if (s.rfind(prefix, 0) != 0)
        return fallback;
    *found = true;
    return s.substr(prefix.size());
}

/** Everything one run produces; filled by a worker thread, consumed
 *  by the in-order reporting loop on the main thread. */
struct RunOutcome
{
    std::string desc;
    bool failed = false;
    std::string why;
    uint64_t cycles = 0;
    uint64_t misses = 0;
    double hardReverts = 0;
    double deadlockSquashes = 0;
    double relinks = 0;
    double mtFallbacks = 0;
    double handlerSquashes = 0;
};

/** RunOutcome's field list: an isolated run's result crosses the pipe
 *  as this JSON object. */
template <RecordOf<RunOutcome> R, typename V>
void
visitFields(R &o, V &&v)
{
    v("desc", o.desc);
    v("failed", o.failed);
    v("why", o.why);
    v("cycles", o.cycles);
    v("misses", o.misses);
    v("hardReverts", o.hardReverts);
    v("deadlockSquashes", o.deadlockSquashes);
    v("relinks", o.relinks);
    v("mtFallbacks", o.mtFallbacks);
    v("handlerSquashes", o.handlerSquashes);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    uint64_t runs = 200, sweep_seed = 1, base_insts = 8000;
    uint64_t require_coverage = 1, verbose = 0, isolate = 0;
    unsigned jobs = 0;
    int64_t only = -1;
    std::string json_path, timeout_text;

    for (int i = 1; i < argc; ++i) {
        bool ok = false;
        runs = parseArg(argv[i], "runs", runs, &ok);
        sweep_seed = parseArg(argv[i], "seed", sweep_seed, &ok);
        base_insts = parseArg(argv[i], "insts", base_insts, &ok);
        require_coverage =
            parseArg(argv[i], "require_coverage", require_coverage, &ok);
        verbose = parseArg(argv[i], "verbose", verbose, &ok);
        jobs = parseArg(argv[i], "jobs", jobs, &ok);
        isolate = parseArg(argv[i], "isolate", isolate, &ok);
        json_path = parseStrArg(argv[i], "json", json_path, &ok);
        timeout_text =
            parseStrArg(argv[i], "timeout", timeout_text, &ok);
        bool only_set = false;
        int64_t o = parseArg(argv[i], "only", int64_t(0), &only_set);
        if (only_set) {
            only = o;
            ok = true;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: torture [runs=N] [seed=N] [insts=N] "
                         "[only=N] [require_coverage=0|1] [verbose=0|1] "
                         "[jobs=N] [json=PATH] [isolate=0|1] "
                         "[timeout=SECONDS]\n");
            return 2;
        }
    }
    if (base_insts == 0) {
        // Each run draws its length below insts: there is no run of 0.
        std::fprintf(stderr, "bad insts value '0' (must be >= 1)\n");
        return 2;
    }
    double timeout_s = 0.0;
    if (!timeout_text.empty()) {
        char *end = nullptr;
        timeout_s = std::strtod(timeout_text.c_str(), &end);
        if (end == timeout_text.c_str() || *end != '\0' ||
            !(timeout_s > 0.0)) {
            std::fprintf(stderr, "bad timeout value '%s'\n",
                         timeout_text.c_str());
            return 2;
        }
    }
    // A wall-clock budget is only enforceable on a killable child.
    const bool isolate_runs = isolate != 0 || timeout_s > 0.0;

    Coverage hardReverts, deadlockSquashes, relinks, mtFallbacks,
        handlerSquashes, invariantAudits;
    uint64_t failures = 0, executed = 0;

    uint64_t first = only >= 0 ? uint64_t(only) : 0;
    uint64_t last = only >= 0 ? uint64_t(only) + 1 : runs;

    // Fan the runs out over the worker pool. Each run is a fully
    // independent deterministic simulation keyed by (seed, index);
    // workers only write their own outcome slot, and all reporting
    // happens afterwards in index order, so output is identical for
    // any jobs count.
    std::vector<RunOutcome> outcomes(size_t(last - first));
    SweepRunner runner{jobs};
    auto start = std::chrono::steady_clock::now();
    runner.parallelFor(outcomes.size(), [&](size_t k) {
        uint64_t i = first + k;
        RunConfig cfg = makeConfig(sweep_seed, i, base_insts);

        auto runOne = [&cfg]() -> RunOutcome {
            Simulator sim(cfg.params, cfg.workloads);
            CoreResult result = sim.run();

            RunOutcome out;
            out.desc = cfg.desc;
            out.cycles = uint64_t(result.cycles);
            out.misses = result.tlbMisses;
            if (!result.ok()) {
                out.failed = true;
                out.why = std::string(runStatusName(result.status)) +
                          ": " + result.error;
            } else {
                DiffResult diff = diffAgainstGolden(sim);
                if (!diff.ok()) {
                    out.failed = true;
                    out.why =
                        "golden-model divergence: " + diff.summary();
                }
            }
            out.hardReverts = coreStat(sim, "hardReverts");
            out.deadlockSquashes = coreStat(sim, "deadlockSquashes");
            out.relinks = coreStat(sim, "relinks");
            out.mtFallbacks = coreStat(sim, "mtFallbacks");
            out.handlerSquashes =
                coreStat(sim, "verify.injectedHandlerSquashes");
            return out;
        };

        if (!isolate_runs) {
            outcomes[k] = runOne();
            return;
        }

        // Isolated: a crash or hang in this configuration becomes this
        // run's failure record instead of killing the sweep.
        ChildResult child = runInForkedChild(
            [&runOne] {
                std::ostringstream os;
                writeJsonObject(os, runOne());
                return os.str();
            },
            timeout_s);
        RunOutcome &out = outcomes[k];
        if (child.state == ChildResult::State::Ok &&
            parseJsonObject(child.payload, &out))
            return;
        JobFailure failure = childFailure(child);
        out.desc = cfg.desc;
        out.failed = true;
        out.why = std::string(runStatusName(failure.status)) + ": " +
                  failure.message;
        const std::string &tail = failure.stderrTail;
        if (!tail.empty())
            out.why += " (" + tail.substr(0, tail.find('\n')) + ")";
    });
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    for (size_t k = 0; k < outcomes.size(); ++k) {
        const RunOutcome &out = outcomes[k];
        uint64_t i = first + k;
        ++executed;

        hardReverts.note(out.hardReverts);
        deadlockSquashes.note(out.deadlockSquashes);
        relinks.note(out.relinks);
        mtFallbacks.note(out.mtFallbacks);
        handlerSquashes.note(out.handlerSquashes);
        invariantAudits.note(1.0); // every run audited per cycle

        if (out.failed) {
            ++failures;
            std::fprintf(stderr,
                         "FAIL run=%" PRIu64 " seed=%" PRIu64 " [%s]\n"
                         "     %s\n"
                         "     reproduce: torture seed=%" PRIu64
                         " only=%" PRIu64 "\n",
                         i, sweep_seed, out.desc.c_str(),
                         out.why.c_str(), sweep_seed, i);
        } else if (verbose) {
            std::printf("ok   run=%" PRIu64 " [%s] cycles=%" PRIu64
                        " misses=%" PRIu64 "\n",
                        i, out.desc.c_str(), out.cycles, out.misses);
        }
    }

    // Wall-clock and thread count go to stderr so stdout is
    // byte-identical for any jobs value.
    std::fprintf(stderr, "# %" PRIu64 " runs on %u threads in %.1fs\n",
                 executed, runner.threads(), wall);
    std::printf("\n=== torture sweep: %" PRIu64 " runs, seed %" PRIu64
                " ===\n",
                executed, sweep_seed);
    auto report = [](const char *name, const Coverage &c) {
        std::printf("  %-22s total=%-8" PRIu64 " in %" PRIu64 " runs\n",
                    name, c.total, c.runsNonzero);
    };
    report("hardReverts", hardReverts);
    report("deadlockSquashes", deadlockSquashes);
    report("relinks", relinks);
    report("mtFallbacks", mtFallbacks);
    report("injectedHandlerSquash", handlerSquashes);
    std::printf("  failures: %" PRIu64 "\n", failures);

    if (!json_path.empty()) {
        std::ostringstream os;
        os << "{\"schema\":\"zmt-torture-results-v1\",\"runs\":"
           << executed << ",\"seed\":" << sweep_seed
           << ",\"jobs\":" << runner.threads()
           << ",\"wall_seconds\":" << jsonNumber(wall)
           << ",\"failure_count\":" << failures << ",\"failures\":[";
        bool first_failure = true;
        for (size_t k = 0; k < outcomes.size(); ++k) {
            const RunOutcome &out = outcomes[k];
            if (!out.failed)
                continue;
            os << (first_failure ? "" : ",") << "\n  {\"run\":"
               << first + k << ",\"desc\":\"" << jsonEscape(out.desc)
               << "\",\"why\":\"" << jsonEscape(out.why) << "\"}";
            first_failure = false;
        }
        os << (first_failure ? "]" : "\n]") << ",\"coverage\":{"
           << "\"hardReverts\":" << hardReverts.total
           << ",\"deadlockSquashes\":" << deadlockSquashes.total
           << ",\"relinks\":" << relinks.total
           << ",\"mtFallbacks\":" << mtFallbacks.total
           << ",\"injectedHandlerSquashes\":" << handlerSquashes.total
           << "},\"cells\":[";
        for (size_t k = 0; k < outcomes.size(); ++k) {
            const RunOutcome &out = outcomes[k];
            os << (k ? "," : "") << "\n  {\"run\":" << first + k
               << ",\"failed\":" << (out.failed ? "true" : "false")
               << ",\"cycles\":" << out.cycles
               << ",\"tlb_misses\":" << out.misses << ",\"desc\":\""
               << jsonEscape(out.desc) << "\"";
            if (out.failed)
                os << ",\"why\":\"" << jsonEscape(out.why) << "\"";
            os << "}";
        }
        os << "\n]}\n";
        auto slash = json_path.rfind('/');
        if (slash != std::string::npos && slash > 0)
            ::mkdir(json_path.substr(0, slash).c_str(), 0777);
        std::ofstream json_out(json_path);
        json_out << os.str();
        if (json_out)
            std::printf("  wrote %s\n", json_path.c_str());
        else
            std::fprintf(stderr, "error: could not write %s\n",
                         json_path.c_str());
    }

    if (failures > 0)
        return 1;
    if (require_coverage && only < 0) {
        bool covered = hardReverts.total > 0 &&
                       deadlockSquashes.total > 0 && relinks.total > 0 &&
                       mtFallbacks.total > 0;
        if (!covered) {
            std::fprintf(stderr,
                         "coverage failure: a rare path was never "
                         "exercised (raise runs or adjust seed)\n");
            return 1;
        }
    }
    std::printf("all runs passed the differential and invariant checks\n");
    return 0;
}
