/**
 * @file
 * Figure 5: relative TLB-miss performance of the traditional,
 * multithreaded(1), multithreaded(3) and hardware handlers across the
 * eight benchmarks — the paper's headline comparison. Expected shape:
 * traditional ~22.7 cycles/miss on average, multithreaded roughly half
 * of that (11.7 with one idle thread, 11.0 with three), hardware
 * lowest (~7.3), and the gcc anomaly where cache pollution in the
 * perfect-TLB baseline depresses the apparent penalties.
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
    {"traditional", ExceptMech::Traditional, 0},
    {"multithreaded(1)", ExceptMech::Multithreaded, 1},
    {"multithreaded(3)", ExceptMech::Multithreaded, 3},
    {"hardware", ExceptMech::Hardware, 0},
};

// Paper Figure 5 / Section 5.3 reported averages (cycles per miss).
const double paperAvg[] = {22.7, 11.7, 11.0, 7.3};

SimParams
configParams(const Config &config)
{
    SimParams params = baseParams();
    params.except.mech = config.mech;
    params.except.idleThreads = config.idleThreads;
    return params;
}

void attribSummary();

void
summary()
{
    Table table("Figure 5: penalty cycles per TLB miss");
    std::vector<std::string> header{"benchmark"};
    for (const auto &config : configs)
        header.push_back(config.label);
    table.header(header);

    std::vector<double> sums(std::size(configs), 0.0);
    for (const auto &bench : benchmarkNames()) {
        std::vector<std::string> row{bench};
        for (size_t i = 0; i < std::size(configs); ++i) {
            const PenaltyResult &r = cellResult(
                configParams(configs[i]), benchmarkWorkloads({bench}));
            double penalty = r.penaltyPerMiss();
            sums[i] += penalty;
            row.push_back(fmt(penalty));
        }
        table.row(row);
    }
    std::vector<std::string> avg{"average"};
    std::vector<std::string> paper{"paper avg"};
    for (size_t i = 0; i < std::size(configs); ++i) {
        avg.push_back(fmt(sums[i] / benchmarkNames().size()));
        paper.push_back(fmt(paperAvg[i]));
    }
    table.row(avg);
    table.row(paper);
    table.print();

    std::printf("\nExpected shape: traditional >> multithreaded(1) >= "
                "multithreaded(3) > hardware;\nthe multithreaded "
                "mechanism roughly halves the traditional penalty "
                "(paper Section 5.3).\n");

    if (benchConfig().attrib)
        attribSummary();
}

void
attribSummary()
{
    // Where the handling cycles go, per mechanism, summed across the
    // benchmarks (cycles per completed handling).
    Table table("Figure 5 addendum: penalty attribution "
                "(cycles per handling)");
    std::vector<std::string> header{"config", "handlings"};
    for (unsigned c = 0; c < obs::NumAttribCats; ++c)
        header.push_back(obs::attribCatName(obs::AttribCat(c)));
    header.push_back("total");
    table.header(header);

    for (const auto &config : configs) {
        obs::AttribSummary sum;
        for (const auto &bench : benchmarkNames())
            sum += cellResult(configParams(config),
                              benchmarkWorkloads({bench}))
                       .mech.attrib;
        std::vector<std::string> row{config.label,
                                     std::to_string(sum.completed)};
        for (unsigned c = 0; c < obs::NumAttribCats; ++c)
            row.push_back(fmt(sum.perHandling(obs::AttribCat(c))));
        row.push_back(fmt(sum.spanPerHandling()));
        table.row(row);
    }
    table.print();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (const auto &config : configs)
        for (const auto &bench : benchmarkNames())
            declareCell(std::string("fig5/") + config.label +
                            "/" + bench,
                        configParams(config), benchmarkWorkloads({bench}));
    return benchMain(argv[0], summary);
}
