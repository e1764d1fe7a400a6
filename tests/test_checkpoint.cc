/**
 * @file
 * Fast-forward and checkpoint tests (kernel/ffwd.hh,
 * sim/checkpoint.hh): superblock-cache execution bit-identical to
 * step-by-step interpretation, warm tracing observational, checkpoint
 * save/load round trips byte-exactly, a detailed run restored from a
 * checkpoint matches the uninterrupted run's statistics dump for every
 * exception mechanism, warm and cold, and for SMT mixes, damaged
 * checkpoint files are rejected with errors naming the file, the
 * loader survives seeded truncation and byte flips, and the SMARTS
 * sampling driver aggregates deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/hash.hh"
#include "common/random.hh"
#include "kernel/ffwd.hh"
#include "kernel/funcmachine.hh"
#include "mutate.hh"
#include "sim/simulator.hh"

namespace
{

using namespace zmt;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "zmt_ckpt_" +
           std::to_string(::getpid()) + "_" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

void
expectSameState(const ArchState &a, const ArchState &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.palMode, b.palMode);
    EXPECT_EQ(a.intRegs, b.intRegs);
    EXPECT_EQ(a.fpRegs, b.fpRegs);
    EXPECT_EQ(a.privRegs, b.privRegs);
}

/** A valid single-process checkpoint file for the damage tests. */
std::string
makeCheckpoint(const std::string &name, uint64_t insts = 12000)
{
    std::string path = tempPath(name);
    SimParams params;
    params.ffwd.insts = insts;
    params.ffwd.save = path;
    Simulator sim(params, std::vector<std::string>{"compress"});
    EXPECT_EQ(sim.ffwdExecuted(), insts);
    return path;
}

/** A small hand-built checkpoint: two processes, two short pages, a
 *  few warm pages and warm lines. */
CheckpointData
smallCheckpoint()
{
    CheckpointData data;
    data.ffwdTotal = 3000;
    data.framesNext = 0x40000;
    for (const char *name : {"compress", "racetest"}) {
        CheckpointProc proc;
        proc.wload = benchmarkParams(name);
        proc.restore.asn = Asn(data.procs.size() + 1);
        proc.restore.ptbr = 0x20000 * (data.procs.size() + 1);
        proc.restore.vaLimit = 0x4004000;
        proc.restore.mappedPages = 40;
        proc.restore.entry = 0x10000;
        proc.restore.resume.pc = 0x10040;
        proc.restore.resume.intRegs[1] = 7;
        proc.ffwdInsts = 1500;
        proc.storeHash = 0x1234abcd;
        data.procs.push_back(proc);
    }
    data.pages = {{2, {1, 2, 3, 0xff}}, {9, {0, 0, 0x80}}};
    data.warmPages = {{1, 8}, {2, 4096}, {1, 9}};
    data.warmLines = {{100, true, false, true}, {7, false, true, false}};
    return data;
}

// ---------------------------------------------------------------------
// Fast-forward engine: superblock execution vs the plain interpreter.
// ---------------------------------------------------------------------

TEST(Ffwd, RunFastMatchesStepExactly)
{
    SimParams params;
    Simulator ref(params, std::vector<std::string>{"compress"});
    Simulator fast(params, std::vector<std::string>{"compress"});

    FuncMachine refMachine(ref.process(0), ref.mem());
    FuncMachine fastMachine(fast.process(0), fast.mem());
    SuperblockCache blocks;

    const uint64_t total = 30000;
    for (uint64_t i = 0; i < total; ++i)
        ASSERT_TRUE(refMachine.step());

    // Deliberately awkward chunk sizes: every boundary must land on a
    // precise instruction count, block tails falling back to step().
    const uint64_t chunks[] = {7, 1, 64, 129, 3, 1000, 13};
    uint64_t remaining = total;
    size_t c = 0;
    while (remaining > 0) {
        uint64_t chunk = std::min(chunks[c++ % 7], remaining);
        ASSERT_EQ(fastMachine.runFast(chunk, blocks), chunk);
        remaining -= chunk;
    }

    EXPECT_EQ(fastMachine.executed(), refMachine.executed());
    EXPECT_EQ(fastMachine.storeHash(), refMachine.storeHash());
    expectSameState(fastMachine.state(), refMachine.state());
    EXPECT_GT(blocks.blockCount(), 0u);
}

TEST(Ffwd, WarmTraceIsPurelyObservational)
{
    SimParams params;
    Simulator plain(params, std::vector<std::string>{"murphi"});
    Simulator traced(params, std::vector<std::string>{"murphi"});

    SuperblockCache blocksA, blocksB;
    FuncMachine plainMachine(plain.process(0), plain.mem());
    FuncMachine tracedMachine(traced.process(0), traced.mem());

    WarmTrace trace(/*max_pages=*/64, /*max_lines=*/1024);
    tracedMachine.attachWarmTrace(&trace);

    const uint64_t total = 20000;
    EXPECT_EQ(plainMachine.runFast(total, blocksA), total);
    EXPECT_EQ(tracedMachine.runFast(total, blocksB), total);

    EXPECT_EQ(tracedMachine.storeHash(), plainMachine.storeHash());
    expectSameState(tracedMachine.state(), plainMachine.state());

    // The trace recorded something and honored its caps.
    EXPECT_GT(trace.pageCount(), 0u);
    EXPECT_GT(trace.lineCount(), 0u);
    EXPECT_LE(trace.pageCount(), 64u);
    EXPECT_LE(trace.lineCount(), 1024u);
}

/**
 * Naive reference for the WarmTrace contract: vectors ordered oldest
 * touch first, linear-search membership, a re-touch moves the entry to
 * the back (merging line flags), an over-cap insert drops the front.
 */
struct ReferenceWarmTrace
{
    size_t maxPages, maxLines;
    std::vector<WarmPage> pages;
    std::vector<WarmLine> lines;

    void
    touchPage(Asn asn, Addr vpn)
    {
        if (maxPages == 0)
            return;
        auto key = [](const WarmPage &p) {
            return (uint64_t(p.asn) << 48) ^ p.vpn;
        };
        WarmPage page{asn, vpn};
        auto it = std::find_if(pages.begin(), pages.end(),
                               [&](const WarmPage &p) {
                                   return key(p) == key(page);
                               });
        if (it != pages.end()) {
            page = *it;
            pages.erase(it);
        }
        pages.push_back(page);
        if (pages.size() > maxPages)
            pages.erase(pages.begin());
    }

    void
    touchLine(Addr pa, bool data, bool fetch, bool dirty)
    {
        if (maxLines == 0)
            return;
        WarmLine line{pa / WarmGrainBytes, data, fetch, dirty};
        auto it = std::find_if(lines.begin(), lines.end(),
                               [&](const WarmLine &l) {
                                   return l.grain == line.grain;
                               });
        if (it != lines.end()) {
            line.data = line.data || it->data;
            line.fetch = line.fetch || it->fetch;
            line.dirty = line.dirty || it->dirty;
            lines.erase(it);
        }
        lines.push_back(line);
        if (lines.size() > maxLines)
            lines.erase(lines.begin());
    }

    void
    touchData(Asn asn, Addr va, Addr pte_pa, Addr pa, bool dirty)
    {
        touchPage(asn, pageNum(va));
        touchLine(pte_pa, true, false, false);
        touchLine(pa, true, false, dirty);
    }

    void touchFetch(Addr pa) { touchLine(pa, false, true, false); }
};

void
expectSameExport(const WarmTrace &trace, const ReferenceWarmTrace &ref,
                 uint64_t op)
{
    std::vector<WarmPage> pages;
    std::vector<WarmLine> lines;
    trace.exportState(pages, lines);
    ASSERT_EQ(pages.size(), ref.pages.size()) << "after op " << op;
    ASSERT_EQ(lines.size(), ref.lines.size()) << "after op " << op;
    EXPECT_EQ(trace.pageCount(), pages.size());
    EXPECT_EQ(trace.lineCount(), lines.size());
    for (size_t i = 0; i < pages.size(); ++i) {
        ASSERT_EQ(pages[i].asn, ref.pages[i].asn) << "page " << i;
        ASSERT_EQ(pages[i].vpn, ref.pages[i].vpn) << "page " << i;
    }
    for (size_t i = 0; i < lines.size(); ++i) {
        ASSERT_EQ(lines[i].grain, ref.lines[i].grain) << "line " << i;
        ASSERT_EQ(lines[i].data, ref.lines[i].data) << "line " << i;
        ASSERT_EQ(lines[i].fetch, ref.lines[i].fetch) << "line " << i;
        ASSERT_EQ(lines[i].dirty, ref.lines[i].dirty) << "line " << i;
    }
}

TEST(Ffwd, WarmTraceMatchesReferenceLru)
{
    // Small caps and small key pools: keys repeat (re-touch moves and
    // flag merges), the pools exceed the caps (steady eviction), and
    // occasional far keys punch holes in the recency order. The
    // exports must match the naive model entry for entry, in order.
    const struct
    {
        size_t pages, lines;
    } caps[] = {{8, 64}, {1, 1}, {0, 64}, {8, 0}, {64, 300}};

    for (const auto &cap : caps) {
        SCOPED_TRACE(::testing::Message() << cap.pages << " pages, "
                                          << cap.lines << " lines");
        WarmTrace trace(cap.pages, cap.lines);
        ReferenceWarmTrace ref{cap.pages, cap.lines, {}, {}};
        Rng rng(0x5eed0000 + cap.pages * 131 + cap.lines);

        const uint64_t ops = 20000;
        for (uint64_t op = 0; op < ops; ++op) {
            // Grain-aligned and unaligned addresses over ~2x the line
            // cap; every 50th access lands far away.
            Addr span = Addr(cap.lines * 2 + 16) * WarmGrainBytes;
            Addr pa = rng.below(span);
            if (rng.below(50) == 0)
                pa += Addr(1) << 40;
            if (rng.chance(0.3)) {
                trace.touchFetch(pa);
                ref.touchFetch(pa);
            } else {
                Asn asn = Asn(rng.below(3));
                Addr va = rng.below(cap.pages * 2 + 4) * PageBytes +
                          rng.below(PageBytes);
                Addr pte_pa = 0x100000 + rng.below(cap.lines + 8) * 8;
                bool dirty = rng.chance(0.25);
                trace.touchData(asn, va, pte_pa, pa, dirty);
                ref.touchData(asn, va, pte_pa, pa, dirty);
            }
            if (op % 997 == 0 || op + 1 == ops) {
                expectSameExport(trace, ref, op);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
            ASSERT_LE(trace.pageCount(), cap.pages);
            ASSERT_LE(trace.lineCount(), cap.lines);
        }
        // The streams were long enough to fill the caps.
        EXPECT_EQ(trace.pageCount(), cap.pages);
        EXPECT_EQ(trace.lineCount(), cap.lines);

        trace.clear();
        EXPECT_EQ(trace.pageCount(), 0u);
        EXPECT_EQ(trace.lineCount(), 0u);
        // Usable again after clear(), starting from an empty order.
        trace.touchFetch(0x40);
        std::vector<WarmPage> pages;
        std::vector<WarmLine> lines;
        trace.exportState(pages, lines);
        EXPECT_TRUE(pages.empty());
        EXPECT_EQ(lines.size(), cap.lines ? 1u : 0u);
    }
}

// ---------------------------------------------------------------------
// Checkpoint round trip.
// ---------------------------------------------------------------------

TEST(Checkpoint, SaveLoadRoundTripsByteExactly)
{
    std::string path = makeCheckpoint("roundtrip.ckpt", 20000);

    CheckpointData data;
    std::string error;
    ASSERT_TRUE(loadCheckpoint(path, &data, &error)) << error;
    EXPECT_EQ(data.ffwdTotal, 20000u);
    ASSERT_EQ(data.procs.size(), 1u);
    EXPECT_EQ(data.procs[0].ffwdInsts, 20000u);
    EXPECT_FALSE(data.procs[0].halted);
    EXPECT_GT(data.pages.size(), 0u);
    EXPECT_GT(data.warmPages.size(), 0u);
    EXPECT_GT(data.warmLines.size(), 0u);

    // Serialization is deterministic: load -> save reproduces the file.
    std::string copy = tempPath("roundtrip_copy.ckpt");
    ASSERT_TRUE(saveCheckpoint(data, copy, &error)) << error;
    EXPECT_EQ(readFile(path), readFile(copy));

    std::remove(path.c_str());
    std::remove(copy.c_str());
}

TEST(Checkpoint, ExtremeValuesRoundTripExactly)
{
    // Every bit survives save -> load: an all-ones integer register, a
    // NaN with a payload in an FP register (bits, never a double), and
    // the largest store hash.
    CheckpointData data = smallCheckpoint();
    ArchState &arch = data.procs[0].restore.resume;
    arch.intRegs[5] = ~uint64_t(0);
    arch.fpRegs[3] = 0x7ff4000000000badULL;
    data.procs[1].storeHash = ~uint64_t(0);

    std::string path = tempPath("extreme.ckpt");
    std::string error;
    ASSERT_TRUE(saveCheckpoint(data, path, &error)) << error;
    CheckpointData loaded;
    ASSERT_TRUE(loadCheckpoint(path, &loaded, &error)) << error;
    std::remove(path.c_str());

    ASSERT_EQ(loaded.procs.size(), 2u);
    expectSameState(loaded.procs[0].restore.resume, arch);
    EXPECT_EQ(loaded.procs[1].storeHash, ~uint64_t(0));
}

// ---------------------------------------------------------------------
// The headline invariant: restore == straight run, per mechanism.
// ---------------------------------------------------------------------

TEST(Checkpoint, RestoreMatchesStraightRunEveryMechanism)
{
    const uint64_t ffwd = 20000;
    std::string path = makeCheckpoint("mech.ckpt", ffwd);

    // The checkpoint holds warm state; a cold restore (ffwd.warm=0)
    // must leave it unused, like the cold straight run it matches.
    for (bool warm : {true, false})
    for (ExceptMech mech :
         {ExceptMech::PerfectTlb, ExceptMech::Traditional,
          ExceptMech::Multithreaded, ExceptMech::QuickStart,
          ExceptMech::Hardware}) {
        SCOPED_TRACE(warm ? "ffwd.warm=1" : "ffwd.warm=0");
        SimParams run;
        run.maxInsts = 20000;
        run.warmupInsts = 2000;
        run.except.mech = mech;
        run.ffwd.warm = warm;

        SimParams straightParams = run;
        straightParams.ffwd.insts = ffwd;
        Simulator straight(straightParams,
                           std::vector<std::string>{"compress"});
        CoreResult rs = straight.run();
        ASSERT_TRUE(rs.ok()) << mechName(mech) << ": " << rs.error;

        SimParams restoreParams = run;
        restoreParams.ffwd.restore = path;
        Simulator restored(restoreParams,
                           std::vector<WorkloadParams>{});
        CoreResult rr = restored.run();
        ASSERT_TRUE(rr.ok()) << mechName(mech) << ": " << rr.error;

        EXPECT_EQ(rr.cycles, rs.cycles) << mechName(mech);
        EXPECT_EQ(rr.userInsts, rs.userInsts) << mechName(mech);
        EXPECT_EQ(rr.tlbMisses, rs.tlbMisses) << mechName(mech);
        EXPECT_EQ(rr.measuredCycles, rs.measuredCycles)
            << mechName(mech);
        EXPECT_EQ(rr.measuredMisses, rs.measuredMisses)
            << mechName(mech);

        // Byte-identical statistics dump: the restored system is
        // indistinguishable from the one that never stopped.
        std::ostringstream straightStats, restoredStats;
        straight.dumpStats(straightStats);
        restored.dumpStats(restoredStats);
        EXPECT_EQ(restoredStats.str(), straightStats.str())
            << mechName(mech);

        // The restored run reports the checkpoint's workload.
        ASSERT_EQ(restored.numProcesses(), 1u);
        EXPECT_EQ(restored.workload(0).name, straight.workload(0).name);
    }
    std::remove(path.c_str());
}

/**
 * Restore == straight for an SMT mix under the multithreaded
 * mechanism: the straight run saves its checkpoint at the fast-forward
 * boundary and runs on, and the run restored from that file must print
 * the same full statistics dump.
 */
void
expectMixRestoreMatchesStraight(const std::vector<std::string> &benches,
                                const std::string &name)
{
    const std::string path = tempPath(name);
    SimParams run;
    run.maxInsts = 30000;
    run.warmupInsts = 3000;
    run.except.mech = ExceptMech::Multithreaded;

    SimParams straightParams = run;
    straightParams.ffwd.insts = 30000;
    straightParams.ffwd.save = path;
    Simulator straight(straightParams, benches);
    CoreResult rs = straight.run();
    ASSERT_TRUE(rs.ok()) << rs.error;

    SimParams restoreParams = run;
    restoreParams.ffwd.restore = path;
    Simulator restored(restoreParams, std::vector<WorkloadParams>{});
    std::remove(path.c_str());
    CoreResult rr = restored.run();
    ASSERT_TRUE(rr.ok()) << rr.error;

    std::ostringstream straightStats, restoredStats;
    straight.dumpStats(straightStats);
    restored.dumpStats(restoredStats);
    EXPECT_EQ(restoredStats.str(), straightStats.str());
    EXPECT_EQ(restored.numProcesses(), benches.size());
}

TEST(Checkpoint, RestoreMatchesStraightRunThreeAppMix)
{
    expectMixRestoreMatchesStraight({"applu", "compress", "hydro2d"},
                                    "mix3.ckpt");
}

TEST(Checkpoint, RestoreMatchesStraightRunSharedMemoryPair)
{
    // racetest's shared region maps both processes onto the same
    // frames; the restored page tables must share them again.
    expectMixRestoreMatchesStraight({"racetest", "racetest"},
                                    "race.ckpt");
}

// ---------------------------------------------------------------------
// Damaged files: every failure mode names the file.
// ---------------------------------------------------------------------

class CheckpointDamage : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = makeCheckpoint("damage.ckpt");
        content = readFile(path);
        ASSERT_FALSE(content.empty());
    }

    void TearDown() override { std::remove(path.c_str()); }

    /** Overwrite the file and expect loadCheckpoint to reject it with
     *  an error mentioning every string in @p needles. */
    void
    expectRejected(const std::string &damaged,
                   const std::vector<std::string> &needles)
    {
        writeFile(path, damaged);
        CheckpointData data;
        std::string error;
        EXPECT_FALSE(loadCheckpoint(path, &data, &error));
        for (const std::string &needle : needles)
            EXPECT_NE(error.find(needle), std::string::npos)
                << "error was: " << error;
    }

    std::string path;
    std::string content;
};

TEST_F(CheckpointDamage, RejectsWrongHeader)
{
    expectRejected("zmt-journal-v1\nnot a checkpoint\n",
                   {"not a zmt-checkpoint-v2"});
    // A file of the previous format is refused the same way.
    expectRejected("zmt-checkpoint-v1" + content.substr(content.find('\n')),
                   {path, "not a zmt-checkpoint-v2"});
}

TEST_F(CheckpointDamage, RejectsBitFlip)
{
    // Flip one character inside the record's payload (line 2): the
    // checksum must catch it and name the line.
    size_t nl = content.find('\n');
    ASSERT_NE(nl, std::string::npos);
    size_t at = nl + 1 + 20; // past the 16-hex checksum + space
    std::string damaged = content;
    damaged[at] = damaged[at] == '0' ? '1' : '0';
    expectRejected(damaged, {"line 2", "checksum mismatch"});
}

TEST_F(CheckpointDamage, RejectsMidFileTruncation)
{
    // Cut the file mid-record: strict loading reports the damage
    // instead of silently using the prefix.
    std::string damaged = content.substr(0, content.size() / 2);
    writeFile(path, damaged);
    CheckpointData data;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(path, &data, &error));
    EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST_F(CheckpointDamage, RejectsMissingEndTrailer)
{
    // Drop the final line, which is the record: only the header is
    // left.
    size_t lastNl = content.rfind('\n', content.size() - 2);
    ASSERT_NE(lastNl, std::string::npos);
    expectRejected(content.substr(0, lastNl + 1),
                   {path, "truncated file"});
}

TEST_F(CheckpointDamage, RejectsDeletedRecord)
{
    // Delete a span inside the record: the checksum no longer matches
    // what was read.
    size_t mid = content.find('\n') + content.size() / 2;
    ASSERT_LT(mid + 40, content.size());
    expectRejected(content.substr(0, mid) + content.substr(mid + 40),
                   {"line 2", "checksum mismatch"});
}

TEST_F(CheckpointDamage, RejectsRecordAfterEndTrailer)
{
    // Append a (perfectly valid) copy of the record line: nothing may
    // follow the record.
    std::string recordLine = content.substr(content.find('\n') + 1);
    expectRejected(content + recordLine,
                   {"line 3", "data after the record"});
}

TEST(Checkpoint, MissingFileIsAnError)
{
    CheckpointData data;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(tempPath("never_written.ckpt"), &data,
                                &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(CheckpointFuzz, LoaderSurvivesTruncationAndByteFlips)
{
    const std::string path = tempPath("fuzz.ckpt");
    std::string error;
    ASSERT_TRUE(saveCheckpoint(smallCheckpoint(), path, &error)) << error;
    size_t accepted = 0;
    mutateAll(readFile(path), 4, 3000, [&](const std::string &text) {
        // As damaged, and with the record's checksum recomputed so that
        // the mutated JSON reaches the record decoder.
        std::string resealed = text;
        size_t begin = text.find('\n');
        if (begin != std::string::npos) {
            ++begin;
            size_t end = std::min(text.find('\n', begin), text.size());
            if (end - begin > 17)
                resealed = text.substr(0, begin) +
                           sealRecord(text.substr(begin + 17,
                                                  end - begin - 17)) +
                           text.substr(end);
        }
        for (const std::string &damaged : {text, resealed}) {
            writeFile(path, damaged);
            CheckpointData data;
            accepted += loadCheckpoint(path, &data, &error);
        }
    });
    std::remove(path.c_str());
    // Most mutants are rejected, and some (a flipped digit) are not.
    EXPECT_GT(accepted, 0u);
}

// ---------------------------------------------------------------------
// Sampled simulation.
// ---------------------------------------------------------------------

TEST(Sampling, AggregatesAndIsDeterministic)
{
    SimParams params;
    params.maxInsts = 100000; // master timeline length
    params.sample.periodInsts = 20000;
    params.sample.detailInsts = 4000;
    params.sample.warmupInsts = 1000;
    params.except.mech = ExceptMech::Traditional;

    auto runOnce = [&] {
        Simulator sim(params, std::vector<std::string>{"compress"});
        return sim.run();
    };
    CoreResult a = runOnce();
    CoreResult b = runOnce();

    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_TRUE(a.sampling.enabled());
    EXPECT_EQ(a.sampling.samples, 5u);
    EXPECT_GT(a.sampling.ffwdInsts, 0u);
    EXPECT_EQ(a.sampling.coldSamples, 0u);
    EXPECT_GT(a.sampling.ipcMean, 0.0);
    EXPECT_GE(a.sampling.ipcCi95, 0.0);
    // The detailed probes really ran: totals are sums over intervals.
    EXPECT_GT(a.userInsts, 0u);
    EXPECT_GT(a.cycles, 0u);

    // Bit-for-bit repeatable.
    EXPECT_EQ(b.sampling.samples, a.sampling.samples);
    EXPECT_EQ(b.cycles, a.cycles);
    EXPECT_EQ(b.userInsts, a.userInsts);
    EXPECT_EQ(b.tlbMisses, a.tlbMisses);
    EXPECT_DOUBLE_EQ(b.sampling.ipcMean, a.sampling.ipcMean);
    EXPECT_DOUBLE_EQ(b.sampling.ipcCi95, a.sampling.ipcCi95);
    EXPECT_DOUBLE_EQ(b.sampling.mpkMean, a.sampling.mpkMean);
}

TEST(Sampling, SampledIpcTracksFullDetailedRun)
{
    // The whole point of sampling: the estimate lands near the full
    // detailed run's measured IPC. Loose band — this is a sanity
    // check, not a statistics proof.
    SimParams detailed;
    detailed.maxInsts = 100000;
    detailed.warmupInsts = 10000;
    detailed.except.mech = ExceptMech::Multithreaded;
    CoreResult full = runSimulation(detailed, {"compress"});
    ASSERT_TRUE(full.ok());

    SimParams sampled;
    sampled.maxInsts = 100000;
    sampled.sample.periodInsts = 10000;
    sampled.sample.detailInsts = 2000;
    sampled.sample.warmupInsts = 1000;
    sampled.except.mech = ExceptMech::Multithreaded;
    Simulator sim(sampled, std::vector<std::string>{"compress"});
    CoreResult est = sim.run();
    ASSERT_TRUE(est.ok()) << est.error;
    ASSERT_EQ(est.sampling.samples, 10u);

    EXPECT_GT(est.sampling.ipcMean, 0.5 * full.ipc);
    EXPECT_LT(est.sampling.ipcMean, 2.0 * full.ipc);
}

} // anonymous namespace
