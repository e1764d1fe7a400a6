/**
 * @file
 * Ablation bench (beyond the paper's tables): isolates the design
 * choices DESIGN.md calls out for the multithreaded mechanism —
 * window reservation, handler fetch priority and secondary-miss
 * relinking — by toggling each off individually on the miss-heavy
 * benchmarks, next to the hardware walker for reference.
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
    const char *toggle; //!< parameter set to "0", or nullptr
};

const Config configs[] = {
    {"multithreaded (all on)", ExceptMech::Multithreaded, nullptr},
    {"no window reservation", ExceptMech::Multithreaded,
     "except.windowReservation"},
    {"no fetch priority", ExceptMech::Multithreaded,
     "except.handlerFetchPriority"},
    {"no secondary relink", ExceptMech::Multithreaded,
     "except.relinkSecondaryMiss"},
    {"hardware", ExceptMech::Hardware, nullptr},
};

const std::vector<std::string> ablationBenches = {"compress", "vortex",
                                                  "gcc"};

SimParams
configParams(const Config &config)
{
    SimParams params = baseParams();
    params.except.mech = config.mech;
    params.except.idleThreads = 1;
    if (config.toggle)
        params.set(config.toggle, "0");
    return params;
}

void
summary()
{
    Table table("Ablation: multithreaded/hardware design choices "
                "(penalty per miss)");
    std::vector<std::string> header{"configuration"};
    for (const auto &bench : ablationBenches)
        header.push_back(bench);
    table.header(header);

    for (const auto &config : configs) {
        std::vector<std::string> row{config.label};
        for (const auto &bench : ablationBenches)
            row.push_back(fmt(cellResult(configParams(config), {bench})
                                  .penaltyPerMiss()));
        table.row(row);
    }
    table.print();

    std::printf("\nReading: each option should not *hurt* when enabled; "
                "the reservation and the\ndeadlock squash primarily "
                "guarantee forward progress (their cost shows up as\n"
                "livelock avoidance, not raw penalty).\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (const auto &config : configs)
        for (const auto &bench : ablationBenches)
            declareCell(std::string("ablation/") + config.label +
                            "/" + bench,
                        configParams(config), {bench});
    return benchMain(argv[0], summary);
}
