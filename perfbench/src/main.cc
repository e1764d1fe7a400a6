/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR]
 *
 * Prints provenance, a human-readable report and, as the last line of
 * standard output, one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * metrics of the traced run with --trace 1. Exits non-zero if any
 * output check failed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "common/json.hh"
#include "perfbench.hh"

#ifndef PERFBENCH_GIT_DESCRIBE
#define PERFBENCH_GIT_DESCRIBE "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace
{

using namespace perfbench;

// Timings from a build without optimisation (or with assertions on)
// are not comparable with anything; refuse to produce them.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool Optimised = true;
#else
constexpr bool Optimised = false;
#endif

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return uint64_t(v);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
provenanceJson(const Options &opts)
{
    std::string s = "{\"git_describe\":\"";
    s += zmt::jsonEscape(PERFBENCH_GIT_DESCRIBE);
    s += "\",\"build_type\":\"" + zmt::jsonEscape(PERFBENCH_BUILD_TYPE);
    s += "\",\"compiler\":\"" + zmt::jsonEscape(PERFBENCH_COMPILER);
    s += "\",\"cxx_flags\":\"" + zmt::jsonEscape(PERFBENCH_CXX_FLAGS);
    s += "\",\"optimised\":";
    s += Optimised ? "true" : "false";
    s += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
    s += ",\"cpu\":\"" + zmt::jsonEscape(cpuModel());
    s += "\",\"workers\":" + std::to_string(opts.workers);
    s += ",\"workload\":\"" + zmt::jsonEscape(opts.workload);
    s += "\",\"seed\":" + std::to_string(opts.seed) + "}";
    return s;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::string s = "{";
    char buf[64];
    for (const auto &[name, value] : metrics) {
        // All digits: two runs must never read identical by rounding.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        s += (s.size() > 1 ? ",\"" : "\"") + zmt::jsonEscape(name) +
             "\":{\"value\":" + buf + "}";
    }
    return s + "}";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    // At most four sweep workers, never more than the host has.
    opts.workers =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            opts.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            opts.seed = parseUnsigned("--seed", value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            opts.seconds = double(parseUnsigned("--seconds", value));
            haveSeconds = true;
        } else if (flag == "--trace") {
            uint64_t t = parseUnsigned("--trace", value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            opts.trace = t == 1;
            haveTrace = true;
        } else if (flag == "--out-dir") {
            opts.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opts.workload) == names.end())
        usage(("unknown workload " + opts.workload).c_str());
    ::mkdir(opts.outDir.c_str(), 0777);

    std::printf("provenance %s\n", provenanceJson(opts).c_str());
    if (!Optimised) {
        std::fprintf(stderr, "perfbench: refusing to time a build without "
                             "optimisation or with assertions enabled\n");
        return 3;
    }
    std::fflush(stdout);

    Tracer tracer(opts.trace);
    Report report;
    runWorkload(opts, tracer, report);

    for (const auto &note : report.notes)
        std::printf("%s\n", note.c_str());
    for (const auto &failure : report.failures)
        std::printf("FAILED %s\n", failure.c_str());
    const Metrics &shown = opts.trace ? report.perLayer : report.endToEnd;
    for (const auto &[name, value] : shown)
        std::printf("%-32s %.6g\n", name.c_str(), value);
    if (opts.trace) {
        std::string path = opts.outDir + "/spans-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
        if (tracer.write(path))
            std::printf("spans written to %s\n", path.c_str());
    }

    bool correct = report.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed,
                metricsJson(shown).c_str());
    return correct ? 0 : 1;
}
