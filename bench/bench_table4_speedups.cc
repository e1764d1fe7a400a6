/**
 * @file
 * Table 4: per-benchmark speedups over the traditional software
 * handler, TLB miss rates, and base IPC, for the perfect TLB, the
 * hardware walker, multithreaded(1)/(3) and quick-start(1)/(3).
 * The paper's speedup table is reproduced below as reference data;
 * absolute speedups depend on each benchmark's miss rate, so the
 * expectation is rank/shape agreement (compress and vortex show the
 * largest gains; gcc the smallest).
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
    unsigned idleThreads;
};

const Config configs[] = {
    {"perfect", ExceptMech::PerfectTlb, 0},
    {"hw", ExceptMech::Hardware, 0},
    {"multi(1)", ExceptMech::Multithreaded, 1},
    {"multi(3)", ExceptMech::Multithreaded, 3},
    {"quick(1)", ExceptMech::QuickStart, 1},
    {"quick(3)", ExceptMech::QuickStart, 3},
};

// Paper Table 4: speedup over traditional, percent, per benchmark, for
// {Perfect, H/W, Multi(1), Multi(3), Quick(1), Quick(3)}.
const std::map<std::string, std::array<double, 6>> paperSpeedups = {
    {"alphadoom", {1.0, 0.6, 0.4, 0.4, 0.5, 0.5}},
    {"applu", {0.9, 0.4, 0.1, 0.1, 0.2, 0.2}},
    {"compress", {12.9, 9.0, 6.8, 7.3, 7.8, 8.4}},
    {"deltablue", {1.4, 0.8, 0.6, 0.6, 0.7, 0.7}},
    {"gcc", {0.5, 0.4, 0.4, 0.4, 0.4, 0.4}},
    {"hydro2d", {0.7, 0.4, 0.1, 0.1, 0.2, 0.2}},
    {"murphi", {3.2, 2.2, 1.6, 1.7, 1.8, 1.9}},
    {"vortex", {9.6, 7.1, 4.8, 5.3, 5.7, 6.3}},
};

SimParams
configParams(const Config &config)
{
    SimParams params = baseParams();
    params.except.mech = config.mech;
    params.except.idleThreads = config.idleThreads;
    return params;
}

void
summary()
{
    SimParams trad_params = baseParams();
    trad_params.except.mech = ExceptMech::Traditional;

    Table table("Table 4: speedup over traditional (%), miss rate and "
                "base IPC");
    std::vector<std::string> header{"benchmark", "IPC", "miss/kinst"};
    for (const auto &config : configs)
        header.push_back(config.label);
    table.header(header);

    for (const auto &bench : benchmarkNames()) {
        const PenaltyResult &trad = cellResult(trad_params, {bench});
        const PenaltyResult &perfect =
            cellResult(configParams(configs[0]), {bench});

        std::vector<std::string> row{bench, fmt(perfect.mech.ipc, 2),
                                     fmt(trad.missesPerKilo(), 3)};
        std::vector<std::string> paper{"  (paper)", "", ""};
        const auto &ref = paperSpeedups.at(bench);
        for (size_t i = 0; i < std::size(configs); ++i) {
            const PenaltyResult &r =
                cellResult(configParams(configs[i]), {bench});
            double speedup = (r.speedupOver(trad.mech) - 1.0) * 100.0;
            row.push_back(fmt(speedup, 2) + "%");
            paper.push_back(fmt(ref[i], 1) + "%");
        }
        table.row(row);
        table.row(paper);
    }
    table.print();

    std::printf("\nExpected shape: the high-miss-rate benchmarks "
                "(compress, vortex) show by far the\nlargest speedups; "
                "perfect > hardware > quick > multi > 0 for each "
                "benchmark.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    SimParams trad = baseParams();
    trad.except.mech = ExceptMech::Traditional;
    for (const auto &bench : benchmarkNames())
        declareCell(std::string("table4/traditional/") + bench,
                    trad, {bench});
    for (const auto &config : configs)
        for (const auto &bench : benchmarkNames())
            declareCell(std::string("table4/") + config.label +
                            "/" + bench,
                        configParams(config), {bench});
    return benchMain(argv[0], summary);
}
