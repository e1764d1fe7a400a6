/**
 * @file
 * Synthetic workload generation.
 *
 * The paper evaluates on eight Alpha binaries (five SPEC95 programs
 * plus alphadoom, deltablue and murphi) which we cannot run; instead,
 * a parameterized generator emits ZIA programs whose *TLB-relevant
 * behaviour* is calibrated to each benchmark: data-TLB misses per
 * instruction (Table 2), approximate base IPC (Table 4), branch
 * predictability, dependence-chain depth, FP content, cache footprint,
 * and — for the gcc anomaly — the density of mispredicted branches
 * whose wrong path performs far-page loads (speculative TLB misses and
 * cache pollution).
 *
 * Program shape:
 *
 *   outer:  a "far phase" of loads to random pages of a large mapped
 *           region (the controlled TLB-miss source), then
 *   inner:  innerIters iterations of a hot-working-set body: parallel
 *           integer/FP chains, hot loads/stores, a serial dependence
 *           chain, pointer-chase loads, mispredictable branch
 *           diamonds (some selecting far vs. hot addresses).
 *
 * Bases, masks and the LCG seed are preloaded into registers by the
 * loader, so the text is pure steady-state loop.
 */

#ifndef ZMT_WLOAD_WORKLOAD_HH
#define ZMT_WLOAD_WORKLOAD_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "kernel/process.hh"

namespace zmt
{

/** Tunable knobs for one synthetic benchmark. */
struct WorkloadParams
{
    std::string name = "custom";

    // --- TLB miss source -------------------------------------------------
    unsigned farLoadsPerOuter = 1; //!< far-page loads per outer iteration
    unsigned innerIters = 16;      //!< hot iterations between far phases
    unsigned farPagesLog2 = 9;     //!< far region: 2^N pages (random)
    unsigned hotBytesLog2 = 15;    //!< hot region size (bytes)

    // --- Body composition (per inner iteration) ---------------------------
    unsigned aluChains = 4;       //!< parallel integer chains
    unsigned aluOpsPerChain = 2;
    unsigned fpChains = 0;        //!< parallel FP chains
    unsigned fpOpsPerChain = 0;
    bool useFpDiv = false;        //!< long-latency FP (hydro2d-like)
    unsigned fsqrtOps = 0;        //!< FSQRT per body (Section 6 emulation)
    unsigned serialMuls = 0;      //!< dependent integer multiply chain
    unsigned hotLoads = 2;
    unsigned hotStores = 1;
    unsigned chaseLoads = 0;      //!< dependent pointer-chase loads
    bool farFeedsChase = false;   //!< far loads gate the chase chain
                                  //!< (deltablue-like graph traversal)
    unsigned randomBranches = 0;  //!< 50/50 diamonds (mispredict noise)
    unsigned indirectFarJumps = 0;//!< stale-target indirect jumps whose
                                  //!< wrong path performs far loads (gcc)
    unsigned ifjFarMask = 127;    //!< far arm taken when (bits&mask)==0

    uint64_t seed = 0x243f6a8885a308d3ULL;

    // --- Shared memory (checker-helper differential workloads) -----------
    // Workloads with the same nonzero sharedGroup map the region
    // [sharedBase, sharedBase + sharedBytes()) onto the *same* physical
    // frames (the Simulator wires the group after loading). Each inner
    // iteration performs sharedStores stq and sharedLoads ldq to random
    // 8-byte cells of the slice. With sliceCount > 0, member i of the
    // group touches only slice sliceIndex of sliceCount equal
    // subdivisions — disjoint slices make the workload race-free by
    // construction; sliceCount == 0 lets every member roam the whole
    // region (racy by construction).
    unsigned sharedGroup = 0;
    unsigned sharedBytesLog2 = 14;
    unsigned sharedStores = 0;
    unsigned sharedLoads = 0;
    unsigned sliceIndex = 0;
    unsigned sliceCount = 0;

    /** VA layout (defaults leave room for text below). */
    Addr textBase = 0x10000;
    Addr hotBase = 0x100000;
    Addr farBase = 0x1000000;
    Addr sharedBase = 0x4000000; //!< above the far region

    unsigned hotBytes() const { return 1u << hotBytesLog2; }
    uint64_t farPages() const { return uint64_t(1) << farPagesLog2; }
    uint64_t sharedBytes() const { return uint64_t(1) << sharedBytesLog2; }
    bool usesShared() const
    {
        return sharedGroup != 0 && (sharedStores + sharedLoads) > 0;
    }
};

/**
 * Build a loadable process image from the parameters.
 * The image's registers are preloaded; entry is the loop head.
 */
ProcessImage buildWorkload(const WorkloadParams &params);

/** Parameters for one of the paper's benchmarks ("compress", ...). */
WorkloadParams benchmarkParams(const std::string &name);

/**
 * The workloads of a run of named benchmarks, the one place a list of
 * names becomes a cell's workloads: each name's preset, with the seed
 * of position i > 0 salted by i, so a mix that repeats a benchmark
 * runs distinct streams. A single or first name keeps its preset.
 */
std::vector<WorkloadParams>
benchmarkWorkloads(const std::vector<std::string> &names);

/** All eight benchmark names in the paper's order. */
const std::vector<std::string> &benchmarkNames();

/** Short names used in Figure 7's mixes (adm, apl, cmp, ...). */
std::string shortName(const std::string &bench);

/**
 * The one field list of WorkloadParams: every field that affects the
 * generated program, in key order. canonicalKey() prints it, and the
 * checkpoint writes and reads it as a JSON object (sim/jsonfields.hh).
 */
template <RecordOf<WorkloadParams> W, typename V>
void
visitFields(W &w, V &&v)
{
    v("name", w.name);
    v("farLoadsPerOuter", w.farLoadsPerOuter);
    v("innerIters", w.innerIters);
    v("farPagesLog2", w.farPagesLog2);
    v("hotBytesLog2", w.hotBytesLog2);
    v("aluChains", w.aluChains);
    v("aluOpsPerChain", w.aluOpsPerChain);
    v("fpChains", w.fpChains);
    v("fpOpsPerChain", w.fpOpsPerChain);
    v("useFpDiv", w.useFpDiv);
    v("fsqrtOps", w.fsqrtOps);
    v("serialMuls", w.serialMuls);
    v("hotLoads", w.hotLoads);
    v("hotStores", w.hotStores);
    v("chaseLoads", w.chaseLoads);
    v("farFeedsChase", w.farFeedsChase);
    v("randomBranches", w.randomBranches);
    v("indirectFarJumps", w.indirectFarJumps);
    v("ifjFarMask", w.ifjFarMask);
    v("seed", w.seed);
    v("textBase", w.textBase);
    v("hotBase", w.hotBase);
    v("farBase", w.farBase);
    v("sharedGroup", w.sharedGroup);
    v("sharedBytesLog2", w.sharedBytesLog2);
    v("sharedStores", w.sharedStores);
    v("sharedLoads", w.sharedLoads);
    v("sliceIndex", w.sliceIndex);
    v("sliceCount", w.sliceCount);
    v("sharedBase", w.sharedBase);
}

/**
 * Canonical full serialization of a workload definition, as
 * "name=value;" for each member of its field list. Combined with
 * SimParams::canonicalKey() this uniquely identifies a simulation, so
 * the sweep runner's caches can key on it safely.
 */
std::string canonicalKey(const WorkloadParams &params);

} // namespace zmt

#endif // ZMT_WLOAD_WORKLOAD_HH
