/**
 * @file
 * Helper-thread micro-services: IPC delta of the run-ahead prefetch
 * helper versus its aggressiveness (prefetch degree/run-ahead
 * distance), across the paper's eight workloads. The helper borrows an
 * idle context and spends leftover load/store ports, so the expected
 * shape is a clear win on the pointer-chasing, cache-straining
 * workloads (deltablue, hydro2d) and a wash on the small-footprint
 * ones — the classic helper-thread profile.
 */

#include "bench_util.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmtbench;

struct Config
{
    const char *label;
    bool prefetch;
    unsigned degree;
    unsigned distance;
};

const Config configs[] = {
    {"off", false, 0, 0},
    {"degree1/dist2", true, 1, 2},
    {"degree2/dist4", true, 2, 4},
    {"degree4/dist8", true, 4, 8},
};

SimParams
configParams(const Config &config)
{
    SimParams params = baseParams();
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 1;
    params.helper.prefetch = config.prefetch;
    if (config.prefetch) {
        params.helper.prefetchDegree = config.degree;
        params.helper.prefetchDistance = config.distance;
    }
    return params;
}

void
summary()
{
    Table table("Helper prefetcher: IPC vs aggressiveness "
                "(delta vs off)");
    std::vector<std::string> header{"benchmark"};
    for (const auto &config : configs)
        header.push_back(config.label);
    table.header(header);

    for (const auto &bench : benchmarkNames()) {
        double base_ipc = 0.0;
        std::vector<std::string> row{bench};
        for (size_t i = 0; i < std::size(configs); ++i) {
            const PenaltyResult &r = cellResult(
                configParams(configs[i]), benchmarkWorkloads({bench}));
            double ipc = r.mech.ipc;
            if (i == 0) {
                base_ipc = ipc;
                row.push_back(fmt(ipc, 3));
            } else {
                double delta =
                    base_ipc > 0 ? 100.0 * (ipc / base_ipc - 1.0) : 0.0;
                row.push_back(fmt(ipc, 3) + " (" +
                              (delta >= 0 ? "+" : "") + fmt(delta, 1) +
                              "%)");
            }
        }
        table.row(row);
    }
    table.print();

    std::printf("\nExpected shape: large gains on deltablue (the "
                "pointer-chase slice runs ahead of the\ndemand chain); "
                "modest or neutral elsewhere; higher aggressiveness "
                "helps until the\nprobe queue and leftover-port budget "
                "saturate.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (const auto &config : configs)
        for (const auto &bench : benchmarkNames())
            declareCell(std::string("helpers/") + config.label +
                            "/" + bench,
                        configParams(config), benchmarkWorkloads({bench}));
    return benchMain(argv[0], summary);
}
