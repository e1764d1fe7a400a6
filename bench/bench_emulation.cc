/**
 * @file
 * Extension study (paper Section 6, "Generalized Mechanism"): software
 * instruction emulation as a second exception class. FSQRT is treated
 * as unimplemented; the handler reads the operand through EmulArg,
 * runs Newton-Raphson iterations, and commits the result via EMULWR —
 * under the multithreaded mechanism the parked instruction becomes a
 * NOP and its consumers wake in place (no squash, no refetch).
 *
 * The paper evaluates only TLB misses and *predicts* "similar benefits
 * for other classes of exceptions, which cannot be implemented in
 * hardware state machines"; this bench quantifies that prediction on
 * our machine across emulation densities.
 */

#include "bench_util.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmtbench;

struct Density
{
    const char *label;
    unsigned fsqrtOps;   //!< FSQRTs per loop body
    unsigned aluChains;  //!< dilution: bigger bodies -> rarer emulation
    unsigned aluOps;
};

// From "rare" (one emulated op per ~90 instructions) to "hot" (two per
// ~25 instructions, e.g. an emulated FP ISA subset).
const Density densities[] = {
    {"rare", 1, 8, 8},
    {"moderate", 1, 4, 2},
    {"hot", 2, 1, 1},
};

const ExceptMech mechs[] = {ExceptMech::Traditional,
                            ExceptMech::Multithreaded,
                            ExceptMech::QuickStart};

WorkloadParams
emulWorkload(const Density &density)
{
    WorkloadParams wp;
    wp.name = "emul";
    wp.fpChains = 2;
    wp.fpOpsPerChain = 2;
    wp.fsqrtOps = density.fsqrtOps;
    wp.aluChains = density.aluChains;
    wp.aluOpsPerChain = density.aluOps;
    wp.innerIters = 32;
    wp.farLoadsPerOuter = 1;
    return wp;
}

SimParams
densityParams(ExceptMech mech)
{
    SimParams params = baseParams();
    // Shorter default than the TLB studies (emulation exceptions are
    // denser); an explicit --insts/--warmup still takes precedence.
    if (params.maxInsts == BenchInsts)
        params.maxInsts = 400'000;
    if (params.warmupInsts == BenchWarmup)
        params.warmupInsts = 150'000;
    params.except.mech = mech;
    params.except.emulateFsqrt = true;
    return params;
}

struct Cell
{
    double cycles = 0;
    double emuls = 0;
};

Cell
run(const Density &density, ExceptMech mech)
{
    // No perfect-TLB companion: this study compares mechanisms on raw
    // cycles, so its cells skip the baseline run.
    const PenaltyResult &r =
        cellResult(densityParams(mech), {emulWorkload(density)});
    return Cell{double(r.mech.measuredCycles), double(r.mech.emulations)};
}

void
summary()
{
    Table table("Section 6 extension: software FSQRT emulation "
                "(measured cycles; MT speedup over trap)");
    table.header({"density", "traditional", "multithreaded",
                  "quickstart", "mt speedup", "emuls"});
    for (const auto &density : densities) {
        Cell trad = run(density, ExceptMech::Traditional);
        Cell mt = run(density, ExceptMech::Multithreaded);
        Cell qs = run(density, ExceptMech::QuickStart);
        table.row({density.label, fmt(trad.cycles, 0), fmt(mt.cycles, 0),
                   fmt(qs.cycles, 0),
                   fmt(mt.cycles ? trad.cycles / mt.cycles : 0, 2) + "x",
                   fmt(mt.emuls, 0)});
    }
    table.print();

    std::printf("\nThe denser the emulated instructions, the more the "
                "squash-free multithreaded\nmechanism wins — the "
                "paper's Section 6 prediction (\"similar benefits for "
                "other\nclasses of exceptions\"), quantified.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchParseArgs(argc, argv);
    for (const auto &density : densities) {
        for (ExceptMech mech : mechs) {
            std::string name = std::string("emulation/") +
                               density.label + "/" + mechName(mech);
            declareCell(name, densityParams(mech),
                        {emulWorkload(density)}, /*skipBaseline=*/true);
        }
    }
    return benchMain(argv[0], summary);
}
