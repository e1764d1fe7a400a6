/**
 * @file
 * Figure 3: relative TLB execution percentage as a function of
 * superscalar width (2-wide/32-entry, 4-wide/64-entry, 8-wide/
 * 128-entry), traditional handler. Expected shape: wider machines
 * spend a *larger fraction* of their time handling TLB misses,
 * because the handler does not benefit from issue width the way the
 * application does; gcc behaves anomalously due to wrong-path cache
 * pollution in the perfect-TLB baseline (paper Section 5.3).
 */

#include "bench_util.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmtbench;

const unsigned widths[] = {2, 4, 8};

SimParams
widthParams(unsigned width)
{
    SimParams params = baseParams();
    params.except.mech = ExceptMech::Traditional;
    params.core.setWidth(width);
    return params;
}

void
summary()
{
    Table table("Figure 3: relative TLB execution percentage (traditional)");
    table.header({"benchmark", "2w/32", "4w/64", "8w/128",
                  "ratio 8w/2w"});

    size_t grew = 0;
    std::vector<double> sums(std::size(widths), 0.0);
    for (const auto &bench : benchmarkNames()) {
        std::vector<double> fracs;
        for (unsigned width : widths)
            fracs.push_back(
                cellResult(widthParams(width), {bench}).tlbFraction() *
                100.0);
        for (size_t i = 0; i < fracs.size(); ++i)
            sums[i] += fracs[i];
        double ratio = fracs[0] != 0.0 ? fracs[2] / fracs[0] : 0.0;
        grew += fracs[2] > fracs[0] ? 1 : 0;
        table.row({bench, fmt(fracs[0], 2) + "%", fmt(fracs[1], 2) + "%",
                   fmt(fracs[2], 2) + "%", fmt(ratio, 2)});
    }
    size_t n = benchmarkNames().size();
    table.row({"average", fmt(sums[0] / n, 2) + "%",
               fmt(sums[1] / n, 2) + "%", fmt(sums[2] / n, 2) + "%",
               fmt(sums[0] != 0 ? sums[2] / sums[0] : 0, 2)});
    table.print();

    std::printf("\nPaper: the TLB-handling share of execution grows "
                "with machine width for\nmost benchmarks (%zu of %zu "
                "grew here); gcc is the documented exception.\n",
                grew, n);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (unsigned width : widths)
        for (const auto &bench : benchmarkNames())
            declareCell("fig3/width" + std::to_string(width) +
                            "/" + bench,
                        widthParams(width), {bench});
    return benchMain(argv[0], summary);
}
