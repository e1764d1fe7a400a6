/**
 * @file
 * Figure 2: overhead of the traditional software TLB miss handler as a
 * function of pipeline length (3, 7 and 11 stages between fetch and
 * execute) on the 8-wide machine. Expected shape: penalty grows with
 * depth with a slope of roughly two cycles per added stage — the pipe
 * refills twice per exception (once at the trap, once at the return,
 * which has no RAS-like target prediction).
 */

#include "bench_util.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmtbench;

const unsigned depths[] = {3, 7, 11};

SimParams
depthParams(unsigned depth)
{
    SimParams params = baseParams();
    params.except.mech = ExceptMech::Traditional;
    params.core.setFrontendDepth(depth);
    return params;
}

void
summary()
{
    Table table("Figure 2: traditional penalty vs pipeline depth");
    table.header({"benchmark", "3 stages", "7 stages", "11 stages",
                  "slope/stage"});

    double avg_slope = 0;
    std::vector<double> sums(std::size(depths), 0.0);
    for (const auto &bench : benchmarkNames()) {
        std::vector<double> penalties;
        for (unsigned depth : depths)
            penalties.push_back(
                cellResult(depthParams(depth), {bench}).penaltyPerMiss());
        double slope = (penalties[2] - penalties[0]) / (11 - 3);
        avg_slope += slope;
        for (size_t i = 0; i < penalties.size(); ++i)
            sums[i] += penalties[i];
        table.row({bench, fmt(penalties[0]), fmt(penalties[1]),
                   fmt(penalties[2]), fmt(slope, 2)});
    }
    size_t n = benchmarkNames().size();
    table.row({"average", fmt(sums[0] / n), fmt(sums[1] / n),
               fmt(sums[2] / n), fmt(avg_slope / n, 2)});
    table.print();

    std::printf("\nPaper: the slope is around 2 cycles per pipe stage "
                "for most benchmarks\n(two pipeline refills per "
                "exception, Section 3).\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (unsigned depth : depths)
        for (const auto &bench : benchmarkNames())
            declareCell("fig2/depth" + std::to_string(depth) +
                            "/" + bench,
                        depthParams(depth), {bench});
    return benchMain(argv[0], summary);
}
