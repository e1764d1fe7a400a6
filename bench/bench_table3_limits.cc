/**
 * @file
 * Table 3: limit studies of the multithreaded mechanism's overheads.
 * Each configuration removes one overhead of handler-thread execution:
 * execute bandwidth, window space, fetch/decode bandwidth, and
 * (the big one) fetch/decode latency. The paper's averages:
 *
 *   traditional 22.4, multithreaded 11.0, w/o execute BW 10.7,
 *   w/o window 10.5, w/o fetch/decode BW 10.2, instant fetch 8.5,
 *   hardware 7.1
 *
 * — i.e. fetch/decode *latency* is the dominant residual overhead,
 * which motivates quick-start (Section 5.4).
 */

#include "bench_util.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmtbench;

struct Config
{
    const char *label;
    double paperAvg;
    void (*apply)(SimParams &);
};

const Config configs[] = {
    {"traditional", 22.4,
     [](SimParams &p) { p.except.mech = ExceptMech::Traditional; }},
    {"multithreaded", 11.0, [](SimParams &p) {}},
    {"w/o execute BW", 10.7,
     [](SimParams &p) { p.except.freeHandlerExecBw = true; }},
    {"w/o window", 10.5,
     [](SimParams &p) { p.except.freeHandlerWindow = true; }},
    {"w/o fetch BW", 10.2,
     [](SimParams &p) { p.except.freeHandlerFetchBw = true; }},
    {"instant fetch", 8.5,
     [](SimParams &p) { p.except.instantHandlerFetch = true; }},
    {"hardware", 7.1,
     [](SimParams &p) { p.except.mech = ExceptMech::Hardware; }},
};

SimParams
configParams(const Config &config)
{
    SimParams params = baseParams();
    // Limit studies run with three idle threads to maximize
    // performance (paper Section 5.3).
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 3;
    config.apply(params);
    return params;
}

void
summary()
{
    Table table("Table 3: limit studies (average penalty per miss, "
                "multithreaded with 3 idle threads)");
    table.header({"configuration", "measured avg", "paper avg"});
    for (const auto &config : configs) {
        double sum = 0;
        for (const auto &bench : benchmarkNames())
            sum += cellResult(configParams(config), {bench})
                       .penaltyPerMiss();
        table.row({config.label, fmt(sum / benchmarkNames().size()),
                   fmt(config.paperAvg)});
    }
    table.print();

    std::printf("\nExpected shape: execute-bandwidth, window and "
                "fetch-bandwidth overheads are minor;\ninstant handler "
                "fetch/decode recovers most of the gap to the hardware "
                "walker.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (const auto &config : configs)
        for (const auto &bench : benchmarkNames())
            declareCell(std::string("table3/") + config.label +
                            "/" + bench,
                        configParams(config), {bench});
    return benchMain(argv[0], summary);
}
