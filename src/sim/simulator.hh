/**
 * @file
 * The top-level simulation facade: builds a complete system (physical
 * memory, PALcode, processes, SMT core) from parameters and workloads,
 * runs it, and exposes the results — the public entry point used by
 * examples, benches and integration tests. Benchmark names become
 * workloads through benchmarkWorkloads (wload/workload.hh).
 */

#ifndef ZMT_SIM_SIMULATOR_HH
#define ZMT_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/core.hh"
#include "sim/checkpoint.hh"
#include "wload/workload.hh"

namespace zmt
{

/** A fully constructed simulated system. */
class Simulator
{
  public:
    /**
     * Build the system: PAL image in physical memory, one process per
     * workload, and the configured core. When params.ffwd.insts > 0
     * the processes are first fast-forwarded functionally (warm state
     * recorded and installed per ffwd.warm); when ffwd.save is set a
     * checkpoint is written at the fast-forward boundary (ffwd.save
     * without ffwd.insts is fatal); when ffwd.restore is set the
     * system is rebuilt from that checkpoint instead, its warm state
     * installed per ffwd.warm, and @p workloads must be empty.
     */
    Simulator(const SimParams &params,
              const std::vector<WorkloadParams> &workloads);

    /** Build directly from an in-memory checkpoint (the sampling
     *  driver's per-sample probe path). */
    Simulator(const SimParams &params, const CheckpointData &checkpoint);

    ~Simulator();

    /**
     * Run to completion (params.maxInsts retired user instructions).
     * If observability exports were requested (ObsParams::pipeview /
     * events), the Konata and Chrome-trace files are written after the
     * core stops. When params.sample is enabled, runs the SMARTS-style
     * sampling loop instead: alternate functional fast-forward with
     * detailed probe intervals and aggregate into
     * CoreResult::sampling.
     */
    CoreResult run();

    /** Snapshot the current resume state of every process plus memory,
     *  page tables and warm state (save/restore + the sampling probe). */
    CheckpointData captureCheckpoint() const;

    /** Total instructions functionally fast-forwarded so far. */
    uint64_t ffwdExecuted() const { return ffwdDone; }

    SmtCore &core() { return *_core; }
    const SmtCore &core() const { return *_core; }
    PhysMem &mem() { return physMem; }
    Process &process(unsigned i) { return *procs.at(i); }
    unsigned numProcesses() const { return unsigned(procs.size()); }
    const PalCode &palCode() const { return pal; }

    /** The workload of process @p i — what a functional replay must
     *  build to match (verify/diffcheck). */
    const WorkloadParams &workload(unsigned i) const { return wloads.at(i); }

    /** Dump all statistics as text. */
    void dumpStats(std::ostream &os) const { root.dump(os); }

    /** Root of the stats tree (for find()). */
    const stats::StatGroup &statsRoot() const { return root; }

  private:
    void build(const SimParams &params,
               const std::vector<WorkloadParams> &workloads);
    void buildFromCheckpoint(const SimParams &params,
                             const CheckpointData &checkpoint);

    /** Shared build tail: core construction, warm-state install,
     *  crash-flush hook. */
    void finishBuild(const SimParams &params);

    /** Create the superblock cache and, under ffwd.warm, the warm
     *  trace with its caps (shared by fastForward and runSampled). */
    void initFastForward();

    /** Build-time functional fast-forward (ffwd.insts / ffwd.save). */
    void fastForward();

    /** The SMARTS sampling loop (run() dispatches here when
     *  sample.periodInsts > 0). */
    CoreResult runSampled();

    void writeObsExports() const;

    /** Best-effort variant for the crash flush hook: never fatals,
     *  writes whatever exports are configured and reachable. */
    void flushObsExportsBestEffort() const;

    uint64_t crashHookId = 0; //!< common/logging.hh flush hook handle

    stats::StatGroup root{"sim"};
    SimParams simParams; //!< full configuration, captured at build
    PhysMem physMem;
    FrameAllocator frames;
    PalCode pal;
    std::vector<WorkloadParams> wloads;
    std::vector<std::unique_ptr<Process>> procs;
    std::unique_ptr<SmtCore> _core;

    // Fast-forward machinery (kernel/ffwd.hh). The translation cache
    // and warm trace persist across sampling intervals so discovered
    // superblocks are reused and warm state reflects recent history.
    std::unique_ptr<SuperblockCache> sbCache;
    std::unique_ptr<WarmTrace> wtrace;
    uint64_t ffwdDone = 0;
    std::vector<uint64_t> procFfwd;      //!< per-process ffwd counts
    std::vector<uint64_t> procStoreHash; //!< store hash at the boundary
    std::vector<bool> procHalted;

    /** Warm state pending install / capture (oldest-first). */
    std::vector<WarmPage> warmPages;
    std::vector<WarmLine> warmLines;
};

/**
 * One-shot helper: build, run, return the result. Fatal if the run
 * does not complete (livelock / invariant violation) — callers that
 * want to handle errors gracefully use Simulator::run directly.
 */
CoreResult runSimulation(const SimParams &params,
                         const std::vector<WorkloadParams> &workloads);

} // namespace zmt

#endif // ZMT_SIM_SIMULATOR_HH
