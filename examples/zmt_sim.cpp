/**
 * @file
 * General-purpose simulator driver: pick benchmarks and machine
 * parameters on the command line, run, and dump every statistic.
 *
 *   $ ./zmt_sim [--stats] [--csv] [--attrib] [--pipeview=FILE]
 *               [--events=FILE] [key=value ...] bench [bench ...]
 *
 * Examples:
 *   ./zmt_sim compress
 *   ./zmt_sim except.mech=multithreaded except.idleThreads=3 vortex
 *   ./zmt_sim --stats core.width=4 maxInsts=200000 gcc
 *   ./zmt_sim alphadoom gcc vortex          # a 3-app SMT mix
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace zmt;

    SimParams params;
    params.maxInsts = 300'000;
    std::vector<std::string> benches;
    bool dump_stats = false;
    bool dump_csv = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--csv") {
            dump_csv = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            params.obs.trace = arg.substr(8);
        } else if (arg == "--attrib") {
            params.obs.attrib = true;
        } else if (arg.rfind("--pipeview=", 0) == 0) {
            params.obs.pipeview = arg.substr(11);
        } else if (arg.rfind("--events=", 0) == 0) {
            params.obs.events = arg.substr(9);
        } else if (arg.find('=') != std::string::npos) {
            params.setKeyValue(arg);
        } else {
            benches.push_back(arg);
        }
    }
    // A restore run takes its workloads from the checkpoint file, so
    // an empty benchmark list is only an error without ffwd.restore.
    if (benches.empty() && params.ffwd.restore.empty()) {
        std::fprintf(stderr,
                     "usage: %s [--stats] [--csv] [--attrib] "
                     "[--pipeview=FILE] [--events=FILE] "
                     "[--trace=exc,...] [key=value ...] bench...\n"
                     "benchmarks: alphadoom applu compress deltablue gcc "
                     "hydro2d murphi vortex\n"
                     "(bench list may be empty when ffwd.restore=FILE "
                     "is given)\n",
                     argv[0]);
        return 1;
    }

    Simulator sim(params, benchmarkWorkloads(benches));
    CoreResult result = sim.run();

    // Print the resolved workload names (not the raw CLI args) so a
    // straight run and a checkpoint-restore run of the same region
    // produce byte-identical output.
    std::printf("# %s on", params.summary().c_str());
    for (unsigned i = 0; i < sim.numProcesses(); ++i)
        std::printf(" %s", sim.workload(i).name.c_str());
    std::printf("\n");
    std::printf("cycles       %llu\n", (unsigned long long)result.cycles);
    std::printf("userInsts    %llu\n",
                (unsigned long long)result.userInsts);
    std::printf("ipc          %.3f\n", result.ipc);
    std::printf("tlbMisses    %llu\n",
                (unsigned long long)result.tlbMisses);
    std::printf("measCycles   %llu\n",
                (unsigned long long)result.measuredCycles);
    std::printf("measMisses   %llu\n",
                (unsigned long long)result.measuredMisses);
    std::printf("miss/kinst   %.3f\n",
                result.measuredInsts
                    ? 1000.0 * double(result.measuredMisses) /
                          double(result.measuredInsts)
                    : 0.0);
    if (result.sampling.enabled()) {
        const auto &s = result.sampling;
        std::printf("samples      %llu (%llu cold)\n",
                    (unsigned long long)s.samples,
                    (unsigned long long)s.coldSamples);
        std::printf("ffwdInsts    %llu\n",
                    (unsigned long long)s.ffwdInsts);
        std::printf("ipc(sampled) %.3f +/- %.3f\n", s.ipcMean, s.ipcCi95);
        std::printf("mpk(sampled) %.3f +/- %.3f\n", s.mpkMean, s.mpkCi95);
    }

    if (params.obs.anyEnabled())
        obs::printAttribTable(stdout, result.attrib);
    if (dump_stats)
        sim.dumpStats(std::cout);
    if (dump_csv)
        sim.statsRoot().dumpCsv(std::cout);
    if (!result.ok()) {
        // Numbers above are from a truncated run: say so loudly.
        std::fprintf(stderr, "error: %s: %s\n",
                     runStatusName(result.status), result.error.c_str());
        return 1;
    }
    return 0;
}
