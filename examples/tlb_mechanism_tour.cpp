/**
 * @file
 * A guided tour of the five TLB-miss exception architectures on one
 * workload, with the mechanism-specific statistics that show *why*
 * each one costs what it costs: squashes for the traditional trap,
 * spawns/splices/fallbacks for the multithreaded mechanism, warm
 * starts for quick-start, and page-table walks for the hardware FSM.
 *
 *   $ ./tlb_mechanism_tour [benchmark] [maxInsts]
 */

#include <cstdio>
#include <string>

#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace
{

using namespace zmt;

double
stat(const Simulator &sim, const std::string &path)
{
    const stats::StatBase *s = sim.statsRoot().find("core." + path);
    if (auto *scalar = dynamic_cast<const stats::Scalar *>(s))
        return scalar->value();
    return 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "compress";
    uint64_t max_insts =
        argc > 2 ? parseUnsigned("maxInsts", argv[2]) : 500'000;

    SimParams params;
    params.maxInsts = max_insts;
    params.warmupInsts = max_insts / 3;

    std::printf("Workload: %s, %llu instructions (%llu warm-up)\n",
                bench.c_str(), (unsigned long long)max_insts,
                (unsigned long long)params.warmupInsts);

    // Baseline.
    params.except.mech = ExceptMech::PerfectTlb;
    Simulator perfect(params, std::vector<std::string>{bench});
    CoreResult base = perfect.run();
    std::printf("\n[perfect TLB]     %8llu cycles, IPC %.2f — the "
                "baseline: no misses ever.\n",
                (unsigned long long)base.measuredCycles, base.ipc);

    auto penalty = [&](const CoreResult &r) {
        return r.measuredMisses
                   ? (double(r.measuredCycles) -
                      double(base.measuredCycles)) /
                         double(r.measuredMisses)
                   : 0.0;
    };

    // Traditional.
    params.except.mech = ExceptMech::Traditional;
    Simulator trad(params, std::vector<std::string>{bench});
    CoreResult trad_result = trad.run();
    std::printf("\n[traditional]     %8llu cycles, IPC %.2f, "
                "%.1f cycles/miss\n",
                (unsigned long long)trad_result.measuredCycles,
                trad_result.ipc, penalty(trad_result));
    std::printf("    Every miss squashes the excepting instruction and "
                "everything younger:\n"
                "    %.0f trap squashes (plus %.0f branch-mispredict "
                "squashes) threw away\n"
                "    %.0f instructions; the pipeline refilled twice per "
                "miss (handler entry and\n"
                "    the unpredicted RFE return).\n",
                stat(trad, "trapSquashes"),
                stat(trad, "branchSquashes"),
                stat(trad, "squashedInsts"));

    // Multithreaded.
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 1;
    Simulator mt(params, std::vector<std::string>{bench});
    CoreResult mt_result = mt.run();
    std::printf("\n[multithreaded]   %8llu cycles, IPC %.2f, "
                "%.1f cycles/miss\n",
                (unsigned long long)mt_result.measuredCycles,
                mt_result.ipc, penalty(mt_result));
    std::printf("    %.0f handler threads spawned into the idle "
                "context; the main thread kept\n"
                "    its in-flight work. %.0f misses fell back to the "
                "trap (context busy),\n"
                "    %.0f re-linked to older same-page misses, %.0f "
                "deadlock squashes.\n",
                stat(mt, "mtSpawns"), stat(mt, "mtFallbacks"),
                stat(mt, "relinks"), stat(mt, "deadlockSquashes"));

    // Quick-start.
    params.except.mech = ExceptMech::QuickStart;
    Simulator qs(params, std::vector<std::string>{bench});
    CoreResult qs_result = qs.run();
    std::printf("\n[quick-start]     %8llu cycles, IPC %.2f, "
                "%.1f cycles/miss\n",
                (unsigned long long)qs_result.measuredCycles,
                qs_result.ipc, penalty(qs_result));
    std::printf("    The handler was prefetched into the idle thread's "
                "fetch buffer: %.0f warm\n"
                "    activations skipped the fetch pipe, %.0f came in "
                "cold (back-to-back misses).\n",
                stat(qs, "qsWarmStarts"), stat(qs, "qsColdStarts"));

    // Hardware.
    params.except.mech = ExceptMech::Hardware;
    Simulator hw(params, std::vector<std::string>{bench});
    CoreResult hw_result = hw.run();
    std::printf("\n[hardware walker] %8llu cycles, IPC %.2f, "
                "%.1f cycles/miss\n",
                (unsigned long long)hw_result.measuredCycles,
                hw_result.ipc, penalty(hw_result));
    std::printf("    No instructions fetched at all: %.0f FSM walks "
                "(%.0f merged, %.0f squashed\n"
                "    mid-walk); the PTE loads competed with program "
                "loads for the 3 ports.\n",
                stat(hw, "walker.walksStarted"),
                stat(hw, "walker.walksMerged"),
                stat(hw, "walker.walksSquashed"));

    std::printf("\nSummary (cycles/miss): traditional %.1f -> "
                "multithreaded %.1f -> quick-start %.1f -> "
                "hardware %.1f\n",
                penalty(trad_result), penalty(mt_result),
                penalty(qs_result), penalty(hw_result));
    return 0;
}
