/**
 * @file
 * Quickstart: simulate the compress-like workload under the
 * traditional software TLB miss handler and under the paper's
 * multithreaded handler, and report the penalty-per-miss metric.
 *
 *   $ ./quickstart [maxInsts]
 */

#include <cstdio>

#include "sim/experiment.hh"
#include "sim/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace zmt;

    uint64_t max_insts =
        argc > 1 ? parseUnsigned("maxInsts", argv[1]) : 300'000;

    SimParams params;
    params.maxInsts = max_insts;
    const std::vector<WorkloadParams> compress =
        benchmarkWorkloads({"compress"});

    std::printf("workload: compress-like, %llu instructions\n\n",
                (unsigned long long)max_insts);
    std::printf("%-16s %10s %10s %10s %12s %10s\n", "mechanism", "cycles",
                "IPC", "misses", "penalty/miss", "miss/kinst");

    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::QuickStart, ExceptMech::Hardware}) {
        params.except.mech = mech;
        params.except.idleThreads = 1;
        PenaltyResult r = measurePenalty(params, compress);
        std::printf("%-16s %10llu %10.2f %10llu %12.2f %10.3f\n",
                    mechName(mech), (unsigned long long)r.mech.cycles,
                    r.mech.ipc, (unsigned long long)r.mech.tlbMisses,
                    r.penaltyPerMiss(), r.missesPerKilo());
    }

    params.except.mech = ExceptMech::PerfectTlb;
    CoreResult perfect = runSimulation(params, compress);
    std::printf("%-16s %10llu %10.2f\n", "perfect",
                (unsigned long long)perfect.cycles, perfect.ipc);
    return 0;
}
