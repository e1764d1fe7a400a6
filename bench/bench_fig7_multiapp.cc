/**
 * @file
 * Figure 7: TLB miss penalties with three application threads running
 * on the SMT plus one idle thread. Expected shape (paper Section 5.5):
 * the multithreaded benefit shrinks but remains — roughly a 25%
 * reduction of the average penalty (30% with quick-start) — because
 * the other threads already tolerate much of each miss's latency, yet
 * the avoided squashes save fetch/decode bandwidth that a loaded SMT
 * actually needs. One idle thread suffices for three applications.
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
    // Every app thread must retire its share (the core's per-thread
    // quota), so give the mix a large budget: low-miss mixes need many
    // instructions per post-warm-up miss. Honors --insts/--warmup,
    // scaled by the three application threads.
    params.maxInsts = 3 * benchConfig().insts + 300'000;
    params.warmupInsts = 3 * benchConfig().warmup;
    params.except.mech = config.mech;
    params.except.idleThreads = 1;
    return params;
}

std::string
mixLabel(const std::vector<std::string> &mix)
{
    std::string label;
    for (const auto &bench : mix) {
        if (!label.empty())
            label += "-";
        label += shortName(bench);
    }
    return label;
}

double
penalty(const Config &config, const std::vector<std::string> &mix)
{
    return cellResult(configParams(config), benchmarkWorkloads(mix))
        .penaltyPerMiss();
}

void
summary()
{
    Table table("Figure 7: penalty per miss, 3 app threads + 1 idle");
    std::vector<std::string> header{"mix"};
    for (const auto &config : configs)
        header.push_back(config.label);
    table.header(header);

    std::vector<double> sums(std::size(configs), 0.0);
    for (const auto &mix : figure7Mixes()) {
        std::vector<std::string> row{mixLabel(mix)};
        for (size_t i = 0; i < std::size(configs); ++i) {
            double cell = penalty(configs[i], mix);
            sums[i] += cell;
            row.push_back(fmt(cell));
        }
        table.row(row);
    }
    size_t n = figure7Mixes().size();
    std::vector<std::string> avg{"average"};
    for (double sum : sums)
        avg.push_back(fmt(sum / n));
    table.row(avg);
    table.print();

    // The per-miss differences on low-miss and gcc-bearing mixes fall
    // below this simulator's measurement floor (run-composition drift,
    // shared-cache wrong-path pollution) — compare only the mixes with
    // enough misses for the penalty to be resolvable.
    double heavy_trad = 0, heavy_mt = 0, heavy_qs = 0;
    unsigned heavy = 0;
    for (const auto &mix : figure7Mixes()) {
        double trad_p = penalty(configs[0], mix);
        if (trad_p > 10.0) {
            heavy_trad += trad_p;
            heavy_mt += penalty(configs[1], mix);
            heavy_qs += penalty(configs[2], mix);
            ++heavy;
        }
    }
    std::printf("\nSMT hides most of each miss (penalties collapse "
                "from ~27 single-app to single\ndigits — the paper's "
                "Section 5.5 observation). On the %u miss-heavy mixes\n"
                "the multithreaded mechanism still reduces the penalty "
                "by %.0f%% (quick-start\n%.0f%%; paper: ~25%%/30%% "
                "across all mixes); the remaining mixes are below\n"
                "the measurement floor (see EXPERIMENTS.md).\n",
                heavy,
                heavy_trad > 0
                    ? 100.0 * (heavy_trad - heavy_mt) / heavy_trad
                    : 0.0,
                heavy_trad > 0
                    ? 100.0 * (heavy_trad - heavy_qs) / heavy_trad
                    : 0.0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (const auto &config : configs)
        for (const auto &mix : figure7Mixes())
            declareCell(std::string("fig7/") + config.label +
                            "/" + mixLabel(mix),
                        configParams(config), benchmarkWorkloads(mix));
    return benchMain(argv[0], summary);
}
