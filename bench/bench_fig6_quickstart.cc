/**
 * @file
 * Figure 6: the quick-starting multithreaded implementation — the
 * predicted next handler is prefetched into the idle thread's fetch
 * buffer, hiding fetch latency (Section 5.4). Expected shape:
 * quick-start lands between multithreaded(1) and the hardware walker,
 * recovering on the order of 1.7 cycles per miss on average but
 * falling short of the instant-fetch limit study (decode latency
 * remains, and the buffer is not always warm for back-to-back misses).
 */

#include "bench_util.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmtbench;

struct Config
{
    const char *label;
    ExceptMech mech;
};

const Config configs[] = {
    {"traditional", ExceptMech::Traditional},
    {"multithreaded(1)", ExceptMech::Multithreaded},
    {"quickstart(1)", ExceptMech::QuickStart},
    {"hardware", ExceptMech::Hardware},
};

SimParams
configParams(const Config &config)
{
    SimParams params = baseParams();
    params.except.mech = config.mech;
    params.except.idleThreads = 1;
    return params;
}

void
summary()
{
    Table table("Figure 6: quick-starting multithreaded handler "
                "(penalty cycles per miss)");
    std::vector<std::string> header{"benchmark"};
    for (const auto &config : configs)
        header.push_back(config.label);
    table.header(header);

    std::vector<double> sums(std::size(configs), 0.0);
    for (const auto &bench : benchmarkNames()) {
        std::vector<std::string> row{bench};
        for (size_t i = 0; i < std::size(configs); ++i) {
            double penalty = cellResult(configParams(configs[i]), {bench})
                                 .penaltyPerMiss();
            sums[i] += penalty;
            row.push_back(fmt(penalty));
        }
        table.row(row);
    }
    size_t n = benchmarkNames().size();
    std::vector<std::string> avg{"average"};
    for (double sum : sums)
        avg.push_back(fmt(sum / n));
    table.row(avg);
    table.print();

    double mt = sums[1] / n, qs = sums[2] / n;
    double trad = sums[0] / n, hw = sums[3] / n;
    std::printf("\nQuick-start recovers %.1f cycles/miss over "
                "multithreaded(1) (paper: ~1.7)\nand closes %.0f%% of "
                "the software-hardware gap (paper Abstract: ~80%%).\n",
                mt - qs,
                trad - hw > 0 ? 100.0 * (trad - qs) / (trad - hw) : 0.0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (const auto &config : configs)
        for (const auto &bench : benchmarkNames())
            declareCell(std::string("fig6/") + config.label +
                            "/" + bench,
                        configParams(config), {bench});
    return benchMain(argv[0], summary);
}
