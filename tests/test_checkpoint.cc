/**
 * @file
 * Fast-forward and checkpoint tests (kernel/ffwd.hh,
 * sim/checkpoint.hh): superblock-cache execution bit-identical to
 * step-by-step interpretation, warm tracing observational, checkpoint
 * save/load round trips byte-exactly, a detailed run restored from a
 * checkpoint matches the uninterrupted run's statistics dump for every
 * exception mechanism, damaged checkpoint files are rejected with
 * line-numbered errors, and the SMARTS sampling driver aggregates
 * deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/random.hh"
#include "kernel/ffwd.hh"
#include "kernel/funcmachine.hh"
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

// ---------------------------------------------------------------------
// The headline invariant: restore == straight run, per mechanism.
// ---------------------------------------------------------------------

TEST(Checkpoint, RestoreMatchesStraightRunEveryMechanism)
{
    const uint64_t ffwd = 20000;
    std::string path = makeCheckpoint("mech.ckpt", ffwd);

    for (ExceptMech mech :
         {ExceptMech::PerfectTlb, ExceptMech::Traditional,
          ExceptMech::Multithreaded, ExceptMech::QuickStart,
          ExceptMech::Hardware}) {
        SimParams run;
        run.maxInsts = 20000;
        run.warmupInsts = 2000;
        run.except.mech = mech;

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

// ---------------------------------------------------------------------
// Damaged files: every failure mode names the file and the line.
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
                   {"not a zmt-checkpoint-v1"});
}

TEST_F(CheckpointDamage, RejectsBitFlip)
{
    // Flip one character inside the meta record's payload (line 2):
    // the checksum must catch it and name the line.
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
    // Drop the final line (the end trailer), keeping records intact.
    size_t lastNl = content.rfind('\n', content.size() - 2);
    ASSERT_NE(lastNl, std::string::npos);
    expectRejected(content.substr(0, lastNl + 1),
                   {"missing end trailer"});
}

TEST_F(CheckpointDamage, RejectsDeletedRecord)
{
    // Remove one mid-file record: the end trailer's count no longer
    // matches what was read.
    size_t l1 = content.find('\n');
    size_t l2 = content.find('\n', l1 + 1);
    size_t l3 = content.find('\n', l2 + 1);
    ASSERT_NE(l3, std::string::npos);
    expectRejected(content.substr(0, l2 + 1) + content.substr(l3 + 1),
                   {"end trailer expects"});
}

TEST_F(CheckpointDamage, RejectsRecordAfterEndTrailer)
{
    // Append a (perfectly valid) copy of the meta record after the
    // end trailer.
    size_t l1 = content.find('\n');
    size_t l2 = content.find('\n', l1 + 1);
    std::string metaLine = content.substr(l1 + 1, l2 - l1);
    expectRejected(content + metaLine, {"record after end trailer"});
}

TEST(Checkpoint, MissingFileIsAnError)
{
    CheckpointData data;
    std::string error;
    EXPECT_FALSE(loadCheckpoint(tempPath("never_written.ckpt"), &data,
                                &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
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
