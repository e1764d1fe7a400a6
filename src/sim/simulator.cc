#include "sim/simulator.hh"

#include <cmath>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <map>

#include "common/logging.hh"
#include "kernel/funcmachine.hh"
#include "obs/chrometrace.hh"
#include "obs/konata.hh"

namespace zmt
{

namespace
{

/**
 * The simulator allocates and frees millions of small objects
 * (dynamic instructions, completion events); with default glibc
 * settings the heap is repeatedly trimmed and re-faulted between
 * runs, costing far more system time than the simulation itself.
 * Raise the trim/mmap thresholds once per process.
 */
void
tuneAllocatorOnce()
{
    static const bool done = [] {
#ifdef M_TRIM_THRESHOLD
        mallopt(M_TRIM_THRESHOLD, 512 * 1024 * 1024);
        mallopt(M_MMAP_THRESHOLD, 512 * 1024 * 1024);
#endif
        return true;
    }();
    (void)done;
}

} // anonymous namespace

Simulator::Simulator(const SimParams &params,
                     const std::vector<WorkloadParams> &workloads)
{
    build(params, workloads);
}

Simulator::Simulator(const SimParams &params,
                     const CheckpointData &checkpoint)
{
    tuneAllocatorOnce();
    simParams = params;
    buildFromCheckpoint(params, checkpoint);
}

Simulator::~Simulator()
{
    // Before members are destroyed: the hook reads the stats tree and
    // the core's obs state.
    removeCrashFlushHook(crashHookId);
}

void
Simulator::build(const SimParams &params,
                 const std::vector<WorkloadParams> &workloads)
{
    tuneAllocatorOnce();
    simParams = params;

    if (!params.ffwd.restore.empty()) {
        fatal_if(!workloads.empty(),
                 "ffwd.restore rebuilds the system from the checkpoint; "
                 "drop the workload list");
        fatal_if(params.ffwd.insts > 0 || !params.ffwd.save.empty(),
                 "ffwd.restore is mutually exclusive with ffwd.insts "
                 "and ffwd.save");
        CheckpointData data;
        std::string err;
        fatal_if(!loadCheckpoint(params.ffwd.restore, &data, &err),
                 "%s", err.c_str());
        buildFromCheckpoint(params, data);
        return;
    }

    fatal_if(!params.ffwd.save.empty() && params.ffwd.insts == 0,
             "ffwd.save needs ffwd.insts: the checkpoint is written at "
             "the end of the fast-forward");
    fatal_if(workloads.empty(), "no workloads given");

    // PAL image lives in physical memory below the frame region.
    pal = buildPalCode();
    for (size_t i = 0; i < pal.prog.size(); ++i)
        physMem.write32(pal.prog.base + i * 4, pal.prog.words[i]);

    wloads = workloads;
    for (size_t i = 0; i < workloads.size(); ++i) {
        ProcessImage image = buildWorkload(workloads[i]);
        procs.push_back(std::make_unique<Process>(image, Asn(i + 1),
                                                  physMem, frames));
    }

    // Wire shared-memory groups: every member of a nonzero sharedGroup
    // maps its shared region onto one common run of physical frames
    // (allocated on first sight of the group). Done before any
    // fast-forward so functional execution sees the mappings too.
    std::map<unsigned, Addr> groupFrames;
    for (size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadParams &wp = workloads[i];
        if (!wp.usesShared())
            continue;
        uint64_t pages = (wp.sharedBytes() + PageBytes - 1) / PageBytes;
        auto [it, fresh] = groupFrames.try_emplace(wp.sharedGroup, 0);
        if (fresh)
            it->second = frames.allocContiguous(size_t(pages));
        for (uint64_t pg = 0; pg < pages; ++pg) {
            procs[i]->space().mapSharedPage(
                wp.sharedBase + pg * PageBytes,
                it->second + pg * PageBytes);
        }
    }

    procFfwd.assign(procs.size(), 0);
    procStoreHash.assign(procs.size(), 0);
    procHalted.assign(procs.size(), false);

    if (params.ffwd.insts > 0)
        fastForward();

    finishBuild(params);
}

void
Simulator::buildFromCheckpoint(const SimParams &params,
                               const CheckpointData &checkpoint)
{
    // Pages first: the imported frames contain the page tables and all
    // mapped text/data, so the Process restore constructors can adopt
    // the tables without allocating anything.
    for (const CheckpointPage &page : checkpoint.pages)
        physMem.importPage(page.ppn, page.bytes.data(), page.bytes.size());
    frames.reset(checkpoint.framesNext);

    // Re-assembling the PAL image writes the identical words the
    // checkpointed memory already holds (the builder is deterministic);
    // doing it anyway yields the PalCode entry points the core needs.
    pal = buildPalCode();
    for (size_t i = 0; i < pal.prog.size(); ++i)
        physMem.write32(pal.prog.base + i * 4, pal.prog.words[i]);

    ffwdDone = checkpoint.ffwdTotal;
    for (const CheckpointProc &cp : checkpoint.procs) {
        wloads.push_back(cp.wload);
        procs.push_back(
            std::make_unique<Process>(cp.restore, physMem, frames));
        procFfwd.push_back(cp.ffwdInsts);
        procStoreHash.push_back(cp.storeHash);
        procHalted.push_back(cp.halted);
    }

    // A cold restore (ffwd.warm=0) is the cold straight run: it leaves
    // the recorded warm state unused, as that run never recorded it.
    if (params.ffwd.warm) {
        warmPages = checkpoint.warmPages;
        warmLines = checkpoint.warmLines;
    }

    finishBuild(params);
}

void
Simulator::finishBuild(const SimParams &params)
{
    std::vector<Process *> raw;
    for (const auto &proc : procs)
        raw.push_back(proc.get());

    _core = std::make_unique<SmtCore>(params, raw, physMem, pal, &root);

    applyWarmState(*_core, warmPages, warmLines);

    // Crash flush hook: on panic()/fatal() anywhere in the process,
    // salvage this run's partial stat dump (stderr) and whatever obs
    // exports were requested, so a crashing cell's diagnostics survive
    // for the campaign layer's captured-stderr failure record.
    crashHookId = addCrashFlushHook([this] {
        std::cerr << "=== crash flush: partial stats ===\n";
        dumpStats(std::cerr);
        flushObsExportsBestEffort();
    });
}

void
Simulator::initFastForward()
{
    if (!sbCache)
        sbCache = std::make_unique<SuperblockCache>();
    if (simParams.ffwd.warm && !wtrace) {
        // Caps sized to what the detailed structures can hold: the
        // DTLB's entry count, and the L2's worth of line grains (the
        // largest structure a grain can warm).
        wtrace = std::make_unique<WarmTrace>(
            simParams.tlb.dtlbEntries,
            size_t(simParams.mem.l2SizeKb) * 1024 / WarmGrainBytes);
    }
}

void
Simulator::fastForward()
{
    initFastForward();
    uint64_t share = simParams.ffwd.insts / procs.size();
    for (size_t i = 0; i < procs.size(); ++i) {
        FuncMachine machine(*procs[i], physMem);
        if (wtrace)
            machine.attachWarmTrace(wtrace.get());
        uint64_t done = machine.runFast(share, *sbCache);
        ffwdDone += done;
        procFfwd[i] += done;
        procStoreHash[i] = machine.storeHash();
        procHalted[i] = machine.halted();
        procs[i]->setResumeState(machine.state());
    }

    if (wtrace) {
        warmPages.clear();
        warmLines.clear();
        wtrace->exportState(warmPages, warmLines);
    }

    if (!simParams.ffwd.save.empty()) {
        std::string err;
        fatal_if(!saveCheckpoint(captureCheckpoint(), simParams.ffwd.save,
                                 &err),
                 "%s", err.c_str());
    }
}

CheckpointData
Simulator::captureCheckpoint() const
{
    CheckpointData data;
    data.ffwdTotal = ffwdDone;
    data.framesNext = frames.allocated();

    for (size_t i = 0; i < procs.size(); ++i) {
        const AddressSpace &space = procs[i]->space();
        CheckpointProc cp;
        cp.wload = wloads[i];
        cp.restore = {procs[i]->asn(), space.ptbr(), space.vaLimit(),
                      space.mappedPages(), procs[i]->entry(),
                      procs[i]->initialState()};
        cp.ffwdInsts = procFfwd[i];
        cp.storeHash = procStoreHash[i];
        cp.halted = procHalted[i];
        data.procs.push_back(std::move(cp));
    }

    physMem.forEachPage([&](Addr ppn, const uint8_t *bytes) {
        // Zero-trim: pages are zero-filled on allocation, so trailing
        // zero bytes reproduce themselves on import.
        size_t len = PageBytes;
        while (len > 0 && bytes[len - 1] == 0)
            --len;
        data.pages.push_back(
            {ppn, std::vector<uint8_t>(bytes, bytes + len)});
    });

    data.warmPages = warmPages;
    data.warmLines = warmLines;
    return data;
}

CoreResult
Simulator::run()
{
    if (simParams.sample.enabled())
        return runSampled();
    CoreResult result = _core->run();
    writeObsExports();
    return result;
}

CoreResult
Simulator::runSampled()
{
    const SampleParams &sp = simParams.sample;
    const uint64_t probeInsts = sp.detailInsts + sp.warmupInsts;
    fatal_if(probeInsts == 0, "sample.detail + sample.warmup is zero");
    fatal_if(sp.periodInsts <= probeInsts,
             "sample.period (%llu) must exceed sample.detail + "
             "sample.warmup (%llu)",
             (unsigned long long)sp.periodInsts,
             (unsigned long long)probeInsts);
    fatal_if(!simParams.obs.pipeview.empty() ||
                 !simParams.obs.events.empty(),
             "sampling cannot export pipeline traces (each probe "
             "interval would clobber the file)");

    uint64_t numSamples = simParams.maxInsts / sp.periodInsts;
    fatal_if(numSamples == 0,
             "maxInsts (%llu) is smaller than one sample.period (%llu)",
             (unsigned long long)simParams.maxInsts,
             (unsigned long long)sp.periodInsts);

    // Probe configuration: one conventional detailed run per sample.
    SimParams probe = simParams;
    probe.sample = {};
    probe.ffwd = {};
    probe.obs.pipeview.clear();
    probe.obs.events.clear();
    probe.maxInsts = probeInsts;
    probe.warmupInsts = sp.warmupInsts;

    initFastForward();

    // Persistent functional machines carry the master timeline; the
    // detailed probes run on checkpoint copies and never advance it.
    std::vector<std::unique_ptr<FuncMachine>> machines;
    for (auto &proc : procs) {
        machines.push_back(
            std::make_unique<FuncMachine>(*proc, physMem));
        if (wtrace)
            machines.back()->attachWarmTrace(wtrace.get());
    }
    uint64_t shareInsts = sp.periodInsts / procs.size();

    CoreResult agg;
    std::vector<double> ipcs, mpks;

    for (uint64_t s = 0; s < numSamples; ++s) {
        // Pin the sample-start state into the processes so the
        // checkpoint captures this exact boundary.
        for (size_t i = 0; i < procs.size(); ++i)
            procs[i]->setResumeState(machines[i]->state());
        if (wtrace) {
            warmPages.clear();
            warmLines.clear();
            wtrace->exportState(warmPages, warmLines);
        }

        Simulator probeSim(probe, captureCheckpoint());
        CoreResult r = probeSim.run();
        if (!r.ok()) {
            agg.status = r.status;
            agg.error = "sample " + std::to_string(s) + ": " + r.error;
            break;
        }

        agg.cycles += r.cycles;
        agg.userInsts += r.userInsts;
        agg.tlbMisses += r.tlbMisses;
        agg.emulations += r.emulations;
        agg.measuredCycles += r.measuredCycles;
        agg.measuredInsts += r.measuredInsts;
        agg.measuredMisses += r.measuredMisses;
        agg.attrib += r.attrib;

        ++agg.sampling.samples;
        if (!r.warmedUp || r.measuredInsts == 0) {
            ++agg.sampling.coldSamples;
        } else {
            ipcs.push_back(r.ipc);
            mpks.push_back(1000.0 * double(r.measuredMisses) /
                           double(r.measuredInsts));
        }

        // Advance the master timeline one full period (the measured
        // interval re-runs functionally — standard SMARTS warming).
        for (auto &machine : machines) {
            uint64_t done = machine->runFast(shareInsts, *sbCache);
            ffwdDone += done;
            agg.sampling.ffwdInsts += done;
        }
    }

    // Leave the processes at the final boundary (captureCheckpoint
    // after run() then reflects where sampling stopped).
    for (size_t i = 0; i < procs.size(); ++i) {
        procs[i]->setResumeState(machines[i]->state());
        procFfwd[i] += machines[i]->executed();
        procStoreHash[i] = machines[i]->storeHash();
        procHalted[i] = machines[i]->halted();
    }

    auto meanCi = [](const std::vector<double> &xs, double *mean,
                     double *ci) {
        *mean = 0.0;
        *ci = 0.0;
        if (xs.empty())
            return;
        for (double x : xs)
            *mean += x;
        *mean /= double(xs.size());
        if (xs.size() < 2)
            return;
        double var = 0.0;
        for (double x : xs)
            var += (x - *mean) * (x - *mean);
        var /= double(xs.size() - 1);
        // 95% normal-approximation half-width (SMARTS reports the
        // same z-based bound; sample counts are large enough that the
        // t correction is noise).
        *ci = 1.96 * std::sqrt(var / double(xs.size()));
    };
    meanCi(ipcs, &agg.sampling.ipcMean, &agg.sampling.ipcCi95);
    meanCi(mpks, &agg.sampling.mpkMean, &agg.sampling.mpkCi95);
    agg.ipc = agg.sampling.ipcMean;
    agg.warmedUp = agg.sampling.coldSamples == 0 &&
                   agg.sampling.samples > 0;
    return agg;
}

void
Simulator::writeObsExports() const
{
    if (!simParams.obs.pipeview.empty()) {
        const obs::EventLog *log = _core->eventLog();
        fatal_if(!log, "--pipeview requested but the event log is off");
        std::ofstream os(simParams.obs.pipeview);
        fatal_if(!os, "cannot open pipeview file '%s'",
                 simParams.obs.pipeview.c_str());
        obs::writeKonata(os, *log);
    }
    if (!simParams.obs.events.empty()) {
        const obs::ExcTimeline *tl = _core->excTimeline();
        fatal_if(!tl, "--events requested but the timeline is off");
        std::ofstream os(simParams.obs.events);
        fatal_if(!os, "cannot open events file '%s'",
                 simParams.obs.events.c_str());
        obs::writeChromeTrace(os, *tl);
    }
}

void
Simulator::flushObsExportsBestEffort() const
{
    // Crash path: no fatal()s (we are already inside one), no
    // assumptions — write what exists, skip what doesn't.
    if (!simParams.obs.pipeview.empty() && _core && _core->eventLog()) {
        std::ofstream os(simParams.obs.pipeview);
        if (os)
            obs::writeKonata(os, *_core->eventLog());
    }
    if (!simParams.obs.events.empty() && _core && _core->excTimeline()) {
        std::ofstream os(simParams.obs.events);
        if (os)
            obs::writeChromeTrace(os, *_core->excTimeline());
    }
}

CoreResult
runSimulation(const SimParams &params,
              const std::vector<WorkloadParams> &workloads)
{
    Simulator sim(params, workloads);
    CoreResult result = sim.run();
    fatal_if(!result.ok(), "simulation failed (%s): %s",
             runStatusName(result.status), result.error.c_str());
    return result;
}

} // namespace zmt
