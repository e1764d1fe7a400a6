/**
 * @file
 * Simulator-speed benchmark: end-to-end KIPS (kilo simulated user
 * instructions retired per host second) per exception mechanism on the
 * Figure 5 workload. This measures the *simulator*, not the simulated
 * machine — it is the repo's performance trajectory point and the CI
 * perf-smoke guardrail (see .github/workflows/ci.yml), so a hot-path
 * regression shows up as a number, not as mysteriously slower sweeps.
 *
 * Usage:
 *   bench_simspeed [--insts N] [--repeat N] [--bench NAME]
 *                  [--json PATH] [--no-json]
 *
 * Each configuration runs --repeat times and reports the fastest run
 * (minimum wall time), which is the standard way to suppress host
 * noise for a deterministic workload. Results go to
 * results/BENCH_simspeed.json (schema zmt-simspeed-v1):
 *
 *   { "schema": "zmt-simspeed-v1", "name": "bench_simspeed",
 *     "benchmark": ..., "insts": N, "repeat": R,
 *     "configs": [ { "label", "mech", "idle_threads", "kips",
 *                    "wall_seconds", "cycles", "user_insts", "ipc" },
 *                  ... ] }
 */

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "kernel/ffwd.hh"
#include "kernel/funcmachine.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

namespace
{

using namespace zmt;

struct SpeedConfig
{
    const char *label;
    ExceptMech mech;
    unsigned idleThreads;
};

// The Figure 5 mechanism set plus the perfect-TLB baseline and
// quick-start, so every mechanism's hot path is on the trajectory.
const SpeedConfig configs[] = {
    {"perfect", ExceptMech::PerfectTlb, 0},
    {"traditional", ExceptMech::Traditional, 0},
    {"multithreaded(1)", ExceptMech::Multithreaded, 1},
    {"multithreaded(3)", ExceptMech::Multithreaded, 3},
    {"quickstart(1)", ExceptMech::QuickStart, 1},
    {"hardware", ExceptMech::Hardware, 0},
};

struct SpeedResult
{
    std::string label;
    const char *mech;
    unsigned idleThreads = 0;
    double kips = 0.0;
    double wallSeconds = 0.0;
    uint64_t cycles = 0;
    uint64_t userInsts = 0;
    double ipc = 0.0;
};

std::string
resultsJson(const std::string &bench, uint64_t insts, unsigned repeat,
            const std::vector<SpeedResult> &results)
{
    std::string os;
    os += "{\"schema\":\"zmt-simspeed-v1\",\"name\":\"bench_simspeed\"";
    os += ",\"benchmark\":\"" + jsonEscape(bench) + "\"";
    os += ",\"insts\":" + std::to_string(insts);
    os += ",\"repeat\":" + std::to_string(repeat);
    os += ",\"configs\":[";
    for (size_t i = 0; i < results.size(); ++i) {
        const SpeedResult &r = results[i];
        if (i)
            os += ",";
        os += "{\"label\":\"" + jsonEscape(r.label) + "\"";
        os += ",\"mech\":\"";
        os += r.mech;
        os += "\",\"idle_threads\":" + std::to_string(r.idleThreads);
        os += ",\"kips\":" + jsonNumber(r.kips);
        os += ",\"wall_seconds\":" + jsonNumber(r.wallSeconds);
        os += ",\"cycles\":" + std::to_string(r.cycles);
        os += ",\"user_insts\":" + std::to_string(r.userInsts);
        os += ",\"ipc\":" + jsonNumber(r.ipc);
        os += "}";
    }
    os += "]}\n";
    return os;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    uint64_t insts = 300'000;
    unsigned repeat = 3;
    std::string bench = "compress";
    std::string json_path = "results/BENCH_simspeed.json";
    bool emit_json = true;

    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            size_t len = std::strlen(flag);
            if (std::strncmp(argv[i], flag, len) == 0 &&
                argv[i][len] == '=')
                return argv[i] + len + 1;
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = value("--insts")) {
            insts = parseUnsigned("--insts", v);
        } else if (const char *v = value("--repeat")) {
            repeat = parseUnsigned<unsigned>("--repeat", v);
        } else if (const char *v = value("--bench")) {
            bench = v;
        } else if (const char *v = value("--json")) {
            json_path = v;
        } else if (std::strcmp(argv[i], "--no-json") == 0) {
            emit_json = false;
        } else {
            std::fprintf(stderr,
                         "usage: bench_simspeed [--insts N] [--repeat N] "
                         "[--bench NAME] [--json PATH] [--no-json]\n");
            return 2;
        }
    }
    fatal_if(repeat == 0, "--repeat must be >= 1");

    std::vector<SpeedResult> results;
    std::printf("%-18s %10s %12s %10s %8s\n", "config", "KIPS",
                "wall (best)", "cycles", "ipc");
    for (const SpeedConfig &config : configs) {
        SimParams params;
        params.maxInsts = insts;
        params.except.mech = config.mech;
        params.except.idleThreads = config.idleThreads;

        SpeedResult sr;
        sr.label = config.label;
        sr.mech = mechName(config.mech);
        sr.idleThreads = config.idleThreads;
        sr.wallSeconds = -1.0;
        for (unsigned r = 0; r < repeat; ++r) {
            // Rebuild the system every repetition: construction
            // (workload generation, page tables) is excluded from the
            // timed region, and no warm simulator state carries over.
            Simulator sim(params, benchmarkWorkloads({bench}));
            auto start = std::chrono::steady_clock::now();
            CoreResult result = sim.run();
            double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
            fatal_if(result.status != RunStatus::Ok,
                     "simspeed run failed (%s): %s",
                     config.label, result.error.c_str());
            if (sr.wallSeconds < 0.0 || wall < sr.wallSeconds) {
                sr.wallSeconds = wall;
                sr.cycles = result.cycles;
                sr.userInsts = result.userInsts;
                sr.ipc = result.ipc;
            }
        }
        sr.kips = sr.wallSeconds > 0.0
                      ? double(sr.userInsts) / sr.wallSeconds / 1000.0
                      : 0.0;
        std::printf("%-18s %10.0f %10.3fs %10llu %8.3f\n",
                    config.label, sr.kips, sr.wallSeconds,
                    (unsigned long long)sr.cycles, sr.ipc);
        results.push_back(sr);
    }

    // Functional-only mode: the fast-forward engine (FuncMachine
    // through the superblock translation cache) on the same workload.
    // No timing model runs, so cycles and ipc are zero by construction;
    // CI gates on the KIPS ratio of this row to the detailed rows.
    {
        SpeedResult sr;
        sr.label = "functional";
        sr.mech = "functional";
        sr.wallSeconds = -1.0;
        for (unsigned r = 0; r < repeat; ++r) {
            SimParams params;
            Simulator sim(params, benchmarkWorkloads({bench}));
            SuperblockCache blocks;
            FuncMachine machine(sim.process(0), sim.mem());
            auto start = std::chrono::steady_clock::now();
            uint64_t done = machine.runFast(insts, blocks);
            double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
            fatal_if(done == 0, "functional run executed nothing");
            if (sr.wallSeconds < 0.0 || wall < sr.wallSeconds) {
                sr.wallSeconds = wall;
                sr.userInsts = done;
            }
        }
        sr.kips = sr.wallSeconds > 0.0
                      ? double(sr.userInsts) / sr.wallSeconds / 1000.0
                      : 0.0;
        std::printf("%-18s %10.0f %10.3fs %10llu %8.3f\n", sr.label.c_str(),
                    sr.kips, sr.wallSeconds, (unsigned long long)sr.cycles,
                    sr.ipc);
        results.push_back(sr);
    }

    if (emit_json) {
        auto slash = json_path.rfind('/');
        if (slash != std::string::npos && slash > 0)
            ::mkdir(json_path.substr(0, slash).c_str(), 0777);
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "error: could not write %s\n",
                         json_path.c_str());
            return 1;
        }
        out << resultsJson(bench, insts, repeat, results);
        std::printf("\nwrote %s (%zu configs)\n", json_path.c_str(),
                    results.size());
    }
    return 0;
}
