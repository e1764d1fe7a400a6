/**
 * @file
 * Fault-tolerant campaign layer tests (sim/campaign.hh): flag parsing,
 * bit-exact outcome and failure serialization, forked-child isolation
 * (ok / abort / nonzero exit / timeout / stderr capture), the
 * crash-resumable journal (truncated trailing record tolerated,
 * mid-file corruption and undecodable records rejected), seeded
 * mutation of every persisted format the campaign reads, resume and
 * shard runs whose merged JSON is byte-identical to an uninterrupted
 * campaign, panic containment under --isolate, graceful interruption
 * via requestStop, and the crash flush hooks that dump partial state
 * before abort.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "mutate.hh"
#include "sim/campaign.hh"

namespace
{

using namespace zmt;

SimParams
tinyParams(ExceptMech mech)
{
    SimParams params;
    params.maxInsts = 6000;
    params.warmupInsts = 2000;
    params.except.mech = mech;
    return params;
}

std::vector<SweepJob>
tinyJobList()
{
    std::vector<SweepJob> jobs;
    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::Hardware}) {
        jobs.emplace_back(tinyParams(mech),
                          benchmarkWorkloads({"compress"}),
                          std::string("compress/") + mechName(mech));
        jobs.emplace_back(tinyParams(mech),
                          benchmarkWorkloads({"murphi"}),
                          std::string("murphi/") + mechName(mech));
    }
    return jobs;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "zmt_campaign_" +
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

std::string
outcomeText(const SweepOutcome &outcome)
{
    std::ostringstream os;
    writeSweepOutcome(os, outcome);
    return os.str();
}

/** Canonical merged JSON of one campaign run (normalizes host noise). */
std::string
mergedJson(const std::vector<SweepJob> &jobs,
           const std::vector<CampaignOutcome> &outcomes,
           const CampaignOptions &options)
{
    std::string doc = campaignResultsJson("unit", jobs, outcomes, 1, 0.0,
                                          options, false);
    std::string merged, error;
    EXPECT_TRUE(mergeSweepResults({doc}, &merged, &error, true)) << error;
    return merged;
}

// ---------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------

TEST(CampaignFlags, ParsesAndStripsEverything)
{
    const char *raw[] = {"bench",          "--isolate", "--timeout",
                         "2.5",            "keep1",     "--retries=3",
                         "--shard",        "1/4",       "--journal",
                         "j.path",         "--resume=r.path", "keep2",
                         nullptr};
    char *argv[13];
    int argc = 12;
    for (int i = 0; i < argc; ++i)
        argv[i] = const_cast<char *>(raw[i]);
    argv[argc] = nullptr;

    CampaignOptions opts;
    parseCampaignFlags(argc, argv, opts);

    EXPECT_TRUE(opts.isolate);
    EXPECT_DOUBLE_EQ(opts.timeoutSeconds, 2.5);
    EXPECT_EQ(opts.retries, 3u);
    EXPECT_EQ(opts.shardIndex, 1u);
    EXPECT_EQ(opts.shardCount, 4u);
    EXPECT_EQ(opts.journalPath, "j.path");
    EXPECT_EQ(opts.resumePath, "r.path");

    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[1], "keep1");
    EXPECT_STREQ(argv[2], "keep2");
}

TEST(CampaignFlags, DefaultsAreInactive)
{
    // Without campaign flags every cell runs once, in-process, in the
    // only shard, unjournaled; other arguments stay for the caller.
    const char *raw[] = {"bench", "--jobs", "2", nullptr};
    char *argv[4];
    int argc = 3;
    for (int i = 0; i < argc; ++i)
        argv[i] = const_cast<char *>(raw[i]);
    argv[argc] = nullptr;

    CampaignOptions opts;
    parseCampaignFlags(argc, argv, opts);
    EXPECT_FALSE(opts.isolate);
    EXPECT_DOUBLE_EQ(opts.timeoutSeconds, 0.0);
    EXPECT_EQ(opts.retries, 0u);
    EXPECT_EQ(opts.shardIndex, 0u);
    EXPECT_EQ(opts.shardCount, 1u);
    EXPECT_TRUE(opts.journalPath.empty());
    EXPECT_TRUE(opts.resumePath.empty());
    EXPECT_EQ(argc, 3);
}

TEST(CampaignFlagsDeathTest, RejectsMalformedShard)
{
    // 4294967297/4294967298 used to wrap to shard 1/2.
    for (const char *shard :
         {"3/3", "4294967297/4294967298", "1/", "/2", "+1/2", "1/2x"}) {
        const char *raw[] = {"bench", "--shard", shard, nullptr};
        char *argv[4];
        int argc = 3;
        for (int i = 0; i < argc; ++i)
            argv[i] = const_cast<char *>(raw[i]);
        argv[argc] = nullptr;
        CampaignOptions opts;
        EXPECT_DEATH(parseCampaignFlags(argc, argv, opts), "bad --shard")
            << shard;
    }
}

TEST(CampaignFlagsDeathTest, RejectsUnboundedTimeout)
{
    EXPECT_EQ(parseSeconds("0"), 0.0);
    EXPECT_EQ(parseSeconds("600"), 600.0);
    EXPECT_EQ(parseSeconds("1.5e3"), 1500.0);
    EXPECT_EQ(parseSeconds("2000000"), MaxBudgetSeconds);
    // An infinite or huge budget would overflow poll()'s int
    // milliseconds; the rest are not plain decimal seconds.
    for (const char *timeout : {"inf", "-inf", "nan", "1e400", "2000001",
                                "0x10", " 5", "5 ", "-1", "", "5s"}) {
        const char *raw[] = {"bench", "--timeout", timeout, nullptr};
        char *argv[4];
        int argc = 3;
        for (int i = 0; i < argc; ++i)
            argv[i] = const_cast<char *>(raw[i]);
        argv[argc] = nullptr;
        CampaignOptions opts;
        EXPECT_DEATH(parseCampaignFlags(argc, argv, opts),
                     "bad --timeout value '" + std::string(timeout) + "'")
            << timeout;
    }
}

// ---------------------------------------------------------------------
// Serialization and identity
// ---------------------------------------------------------------------

TEST(CampaignSerialize, OutcomeRoundTripsBitExact)
{
    SweepOutcome out;
    out.wallSeconds = 0.1234567890123456789; // not representable: the
                                             // round trip must keep the
                                             // stored double exactly
    out.result.mech.status = RunStatus::Livelock;
    // 2^53 + 1 is the first integer a double cannot hold.
    out.result.mech.cycles = (uint64_t(1) << 53) + 1;
    out.result.mech.userInsts = 42;
    out.result.mech.tlbMisses = 7;
    out.result.mech.emulations = 3;
    out.result.mech.ipc = 2.718281828459045;
    out.result.mech.measuredCycles = 1000;
    out.result.mech.measuredInsts = 900;
    out.result.mech.measuredMisses = 5;
    out.result.mech.warmedUp = false;
    out.result.mech.sampling.samples = 4;
    out.result.mech.sampling.ipcCi95 = 1e-300;
    out.result.mech.attrib.completed = 11;
    out.result.mech.attrib.aborted = 2;
    out.result.mech.attrib.spanCycles = 333;
    for (unsigned c = 0; c < obs::NumAttribCats; ++c)
        out.result.mech.attrib.cycles[c] = 100 + c;
    out.result.perfect.ipc = 3.141592653589793;

    const std::string text = outcomeText(out);
    SweepOutcome back;
    ASSERT_TRUE(parseSweepOutcome(text, &back)) << text;
    EXPECT_EQ(back.wallSeconds, out.wallSeconds); // bit-exact, not near
    EXPECT_EQ(back.result.mech.status, out.result.mech.status);
    EXPECT_EQ(back.result.mech.cycles, out.result.mech.cycles);
    EXPECT_EQ(back.result.mech.ipc, out.result.mech.ipc);
    EXPECT_FALSE(back.result.mech.warmedUp);
    EXPECT_EQ(back.result.mech.sampling.ipcCi95, 1e-300);
    EXPECT_EQ(back.result.mech.attrib.completed, 11u);
    for (unsigned c = 0; c < obs::NumAttribCats; ++c)
        EXPECT_EQ(back.result.mech.attrib.cycles[c], 100u + c);
    EXPECT_EQ(back.result.perfect.ipc, out.result.perfect.ipc);
    // Every listed member, named or not above, survives.
    EXPECT_EQ(outcomeText(back), text);

    SweepOutcome junk;
    EXPECT_FALSE(parseSweepOutcome("wall=1.0 nonsense", &junk));
    EXPECT_FALSE(parseSweepOutcome("", &junk));
    EXPECT_FALSE(parseSweepOutcome("{}", &junk));
    // A counter must decode exactly: no sign, fraction or exponent.
    const std::string member = "\"user_insts\":42";
    for (const char *bad : {"-1", "1.5", "1e3"}) {
        std::string mutated = text;
        mutated.replace(mutated.find(member), member.size(),
                        "\"user_insts\":" + std::string(bad));
        EXPECT_FALSE(parseSweepOutcome(mutated, &junk)) << bad;
    }
}

TEST(CampaignSerialize, NullDoubleReadsBackAsNaN)
{
    // jsonNumber prints a non-finite double as null; it must still read
    // back, so a run with a NaN statistic stays resumable.
    SweepOutcome out;
    out.result.mech.ipc = std::nan("");
    out.result.perfect.ipc = HUGE_VAL;
    const std::string text = outcomeText(out);
    EXPECT_NE(text.find("\"ipc\":null"), std::string::npos) << text;
    SweepOutcome back;
    ASSERT_TRUE(parseSweepOutcome(text, &back)) << text;
    EXPECT_TRUE(std::isnan(back.result.mech.ipc));
    EXPECT_TRUE(std::isnan(back.result.perfect.ipc));
    EXPECT_EQ(outcomeText(back), text);
}

TEST(CampaignSerialize, JobKeysSeparateDistinctCells)
{
    std::vector<SweepJob> jobs = tinyJobList();
    std::vector<std::string> keys;
    for (const SweepJob &job : jobs)
        keys.push_back(sweepJobKey(job));
    for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(keys[i].size(), 16u);
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << jobs[i].label;
    }
    // Same job twice: identical key (journal hits must be possible).
    EXPECT_EQ(sweepJobKey(jobs[0]), sweepJobKey(jobs[0]));
    // The baseline flag is part of the identity.
    SweepJob skip = jobs[0];
    skip.skipBaseline = true;
    EXPECT_NE(sweepJobKey(skip), sweepJobKey(jobs[0]));
}

TEST(CampaignSerialize, RunStatusNamesRoundTrip)
{
    for (RunStatus status :
         {RunStatus::Ok, RunStatus::Livelock,
          RunStatus::InvariantViolation, RunStatus::Crashed,
          RunStatus::Timeout}) {
        RunStatus back = RunStatus::Ok;
        EXPECT_TRUE(parseRunStatus(runStatusName(status), back));
        EXPECT_EQ(back, status);
    }
    RunStatus ignore;
    EXPECT_FALSE(parseRunStatus("definitely-not-a-status", ignore));
}

// ---------------------------------------------------------------------
// Forked-child isolation
// ---------------------------------------------------------------------

TEST(ForkedChild, ReturnsPayloadAndCapturesStderr)
{
    ChildResult res = runInForkedChild(
        [] {
            std::fprintf(stderr, "diagnostic line\n");
            return std::string("the payload");
        },
        0.0);
    EXPECT_EQ(res.state, ChildResult::State::Ok);
    EXPECT_EQ(res.payload, "the payload");
    EXPECT_NE(res.stderrTail.find("diagnostic line"),
              std::string::npos);
}

TEST(ForkedChild, ReportsNonzeroExit)
{
    ChildResult res = runInForkedChild(
        []() -> std::string { std::exit(3); }, 0.0);
    EXPECT_EQ(res.state, ChildResult::State::Exited);
    EXPECT_EQ(res.exitCode, 3);
}

TEST(ForkedChild, ReportsAbortAsSignal)
{
    ChildResult res = runInForkedChild(
        []() -> std::string { std::abort(); }, 0.0);
    EXPECT_EQ(res.state, ChildResult::State::Signaled);
    EXPECT_EQ(res.termSignal, SIGABRT);
}

TEST(ForkedChild, KillsOnTimeout)
{
    ChildResult res = runInForkedChild(
        []() -> std::string {
            for (;;)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
        },
        0.2);
    EXPECT_EQ(res.state, ChildResult::State::TimedOut);
    EXPECT_EQ(res.termSignal, SIGKILL);
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

JournalRecord
sampleRecord(const std::string &key, RunStatus status)
{
    JournalRecord rec;
    rec.key = key;
    rec.label = "cell/" + key;
    if (status == RunStatus::Ok) {
        rec.outcome.state = CellState::Done;
        rec.outcome.outcome.result.mech.ipc = 1.5;
    } else {
        rec.outcome.state = CellState::Failed;
        JobFailure &failure = rec.outcome.failure;
        failure.status = status;
        failure.attempts = 2;
        failure.quarantined = true;
        failure.termSignal = SIGABRT;
        failure.message = "child killed by signal 6";
        failure.stderrTail = "panic: something\nwith lines";
    }
    return rec;
}

TEST(Journal, AppendsAndReloads)
{
    const std::string path = tempPath("roundtrip.journal");
    std::remove(path.c_str());
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path));
        journal.append(sampleRecord("aaaa", RunStatus::Ok));
        journal.append(sampleRecord("bbbb", RunStatus::Crashed));
    }
    std::vector<JournalRecord> records;
    std::string error;
    bool truncated = true;
    ASSERT_TRUE(loadJournal(path, &records, &error, &truncated)) << error;
    EXPECT_FALSE(truncated);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].key, "aaaa");
    EXPECT_EQ(records[0].label, "cell/aaaa");
    EXPECT_EQ(records[0].outcome.state, CellState::Done);
    EXPECT_EQ(records[0].outcome.outcome.result.mech.ipc, 1.5);
    const JobFailure &failure = records[1].outcome.failure;
    EXPECT_EQ(records[1].outcome.state, CellState::Failed);
    EXPECT_EQ(failure.status, RunStatus::Crashed);
    EXPECT_EQ(failure.attempts, 2u);
    EXPECT_TRUE(failure.quarantined);
    EXPECT_EQ(failure.termSignal, SIGABRT);
    EXPECT_EQ(failure.stderrTail, "panic: something\nwith lines");

    // Re-opening appends rather than truncating.
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path));
        journal.append(sampleRecord("cccc", RunStatus::Ok));
    }
    records.clear();
    ASSERT_TRUE(loadJournal(path, &records, &error));
    EXPECT_EQ(records.size(), 3u);
}

TEST(Journal, TruncatedTrailingRecordTolerated)
{
    const std::string path = tempPath("truncated.journal");
    std::remove(path.c_str());
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path));
        journal.append(sampleRecord("aaaa", RunStatus::Ok));
        journal.append(sampleRecord("bbbb", RunStatus::Ok));
    }
    // Simulate a crash mid-append: chop bytes off the final record.
    std::string content = readFile(path);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content.substr(0, content.size() - 25);
    }
    std::vector<JournalRecord> records;
    std::string error;
    bool truncated = false;
    ASSERT_TRUE(loadJournal(path, &records, &error, &truncated)) << error;
    EXPECT_TRUE(truncated);
    ASSERT_EQ(records.size(), 1u); // the intact record survives
    EXPECT_EQ(records[0].key, "aaaa");
}

TEST(Journal, MidFileCorruptionRejected)
{
    const std::string path = tempPath("corrupt.journal");
    std::remove(path.c_str());
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path));
        journal.append(sampleRecord("aaaa", RunStatus::Ok));
        journal.append(sampleRecord("bbbb", RunStatus::Ok));
    }
    // Flip a payload byte in the FIRST record: its checksum now fails
    // somewhere that is not the final line — that is damage, not a
    // mid-append crash, and must be a hard error naming the line.
    std::string content = readFile(path);
    size_t target = content.find("\"label\"");
    ASSERT_NE(target, std::string::npos);
    content[target] = 'X';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
    }
    std::vector<JournalRecord> records;
    std::string error;
    EXPECT_FALSE(loadJournal(path, &records, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(Journal, RejectsForeignFile)
{
    // A results document, a journal of the token-line format before
    // v2, and a v2 journal, whose cell keys spelled workloads by name:
    // none is read as records.
    const std::string path = tempPath("foreign.journal");
    for (const char *content :
         {"{\"schema\":\"zmt-sweep-results-v1\"}\n",
          "zmt-journal-v1\n", "zmt-journal-v2\n"}) {
        writeFile(path, content);
        std::vector<JournalRecord> records;
        std::string error;
        EXPECT_FALSE(loadJournal(path, &records, &error)) << content;
        EXPECT_NE(error.find("zmt-journal-v3"), std::string::npos)
            << error;
    }
}

TEST(Journal, UndecodableRecordIsCorruption)
{
    // A record whose checksum holds but whose JSON is not a journal
    // record is damage like any other: fatal mid-file, tolerated as the
    // torn final line.
    const std::string path = tempPath("undecodable.journal");
    std::remove(path.c_str());
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path));
        journal.append(sampleRecord("aaaa", RunStatus::Ok));
    }
    const std::string payload = "{\"key\":\"bbbb\",\"label\":\"x\"}";
    const std::string bad = sealRecord(payload) + "\n";
    const std::string good = readFile(path);

    writeFile(path, good + bad + good.substr(good.find('\n') + 1));
    std::vector<JournalRecord> records;
    std::string error;
    EXPECT_FALSE(loadJournal(path, &records, &error));
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("does not decode"), std::string::npos) << error;

    writeFile(path, good + bad);
    records.clear();
    bool truncated = false;
    ASSERT_TRUE(loadJournal(path, &records, &error, &truncated)) << error;
    EXPECT_TRUE(truncated);
    EXPECT_EQ(records.size(), 1u);
}

TEST(Journal, FailureRoundTripsArbitraryBytes)
{
    // message and stderr_tail hold whatever a dying child printed.
    std::string bytes = "quote\" back\\slash\nnew\rline\ttab";
    for (int c = 0; c < 0x20; ++c)
        bytes += char(c);
    bytes += "\x7f\xff\xc3\xa9 end";

    const std::string path = tempPath("bytes.journal");
    std::remove(path.c_str());
    JournalRecord rec = sampleRecord("aaaa", RunStatus::Timeout);
    rec.label = bytes;
    rec.outcome.failure.exitCode = 255;
    rec.outcome.failure.message = bytes;
    rec.outcome.failure.stderrTail = bytes + bytes;
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path));
        journal.append(rec);
    }
    std::vector<JournalRecord> records;
    std::string error;
    ASSERT_TRUE(loadJournal(path, &records, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].label, bytes);
    EXPECT_EQ(jobFailureJson(records[0].outcome.failure),
              jobFailureJson(rec.outcome.failure));
    EXPECT_EQ(records[0].outcome.failure.message, bytes);
    EXPECT_EQ(records[0].outcome.failure.stderrTail, bytes + bytes);
    EXPECT_EQ(records[0].outcome.failure.status, RunStatus::Timeout);
    EXPECT_EQ(records[0].outcome.failure.exitCode, 255);
}

// ---------------------------------------------------------------------
// Campaign runs: resume, shards, isolation, interruption
// ---------------------------------------------------------------------

TEST(Campaign, PlainRunMatchesSweepRunner)
{
    // Default options run each cell in-process: exactly what a direct
    // measurePenalty call returns.
    const std::vector<SweepJob> jobs = tinyJobList();
    clearBaselineCache();
    CampaignOptions opts;
    std::vector<CampaignOutcome> campaign =
        CampaignRunner(opts, 2).run(jobs);

    clearBaselineCache();
    ASSERT_EQ(campaign.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        PenaltyResult direct =
            measurePenalty(jobs[i].params, jobs[i].workloads);
        EXPECT_EQ(campaign[i].state, CellState::Done);
        EXPECT_EQ(campaign[i].outcome.result.mech.cycles,
                  direct.mech.cycles)
            << jobs[i].label;
        EXPECT_EQ(campaign[i].outcome.result.perfect.cycles,
                  direct.perfect.cycles)
            << jobs[i].label;
    }
}

TEST(Campaign, IsolatedRunMatchesInProcess)
{
    // A forked child's result crosses a pipe as text; the round trip
    // must not change one byte of the results document.
    const std::vector<SweepJob> jobs = tinyJobList();
    CampaignOptions inProcess;
    clearBaselineCache();
    std::string golden = mergedJson(
        jobs, CampaignRunner(inProcess, 2).run(jobs), inProcess);

    CampaignOptions isolated;
    isolated.isolate = true;
    clearBaselineCache();
    std::vector<CampaignOutcome> outcomes =
        CampaignRunner(isolated, 2).run(jobs);
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(outcomes[i].state, CellState::Done) << jobs[i].label;
    EXPECT_EQ(mergedJson(jobs, outcomes, isolated), golden);
}

TEST(Campaign, ResumeFromPartialJournalIsByteIdentical)
{
    const std::vector<SweepJob> jobs = tinyJobList();
    const std::string journalPath = tempPath("resume.journal");
    std::remove(journalPath.c_str());

    // Uninterrupted reference run (journaling everything).
    CampaignOptions full;
    full.journalPath = journalPath;
    clearBaselineCache();
    std::vector<CampaignOutcome> reference =
        CampaignRunner(full, 2).run(jobs);
    std::string golden = mergedJson(jobs, reference, full);

    // Keep only the first half of the journal: a campaign that died
    // partway through.
    std::vector<JournalRecord> records;
    std::string error;
    ASSERT_TRUE(loadJournal(journalPath, &records, &error)) << error;
    ASSERT_EQ(records.size(), jobs.size());
    const std::string partialPath = tempPath("resume_partial.journal");
    std::remove(partialPath.c_str());
    {
        CampaignJournal partial;
        ASSERT_TRUE(partial.open(partialPath));
        for (size_t i = 0; i < records.size() / 2; ++i)
            partial.append(records[i]);
    }

    // Resume: half the cells load from the journal, half re-run.
    CampaignOptions resume;
    resume.resumePath = partialPath;
    clearBaselineCache();
    std::vector<CampaignOutcome> resumed =
        CampaignRunner(resume, 2).run(jobs);
    size_t fromJournal = 0;
    for (const CampaignOutcome &outcome : resumed) {
        EXPECT_TRUE(outcome.ok());
        fromJournal += outcome.state == CellState::FromJournal;
    }
    EXPECT_EQ(fromJournal, jobs.size() / 2);
    EXPECT_EQ(mergedJson(jobs, resumed, resume), golden);
}

TEST(Campaign, ShardUnionEqualsUnsharded)
{
    const std::vector<SweepJob> jobs = tinyJobList();
    clearBaselineCache();
    CampaignOptions whole;
    std::vector<CampaignOutcome> all =
        CampaignRunner(whole, 2).run(jobs);
    std::string golden = mergedJson(jobs, all, whole);

    std::vector<std::string> shardDocs;
    for (unsigned s = 0; s < 3; ++s) {
        CampaignOptions shard;
        shard.shardIndex = s;
        shard.shardCount = 3;
        clearBaselineCache();
        std::vector<CampaignOutcome> outcomes =
            CampaignRunner(shard, 2).run(jobs);
        size_t mine = 0;
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (i % 3 == s) {
                EXPECT_EQ(outcomes[i].state, CellState::Done);
                ++mine;
            } else {
                EXPECT_EQ(outcomes[i].state, CellState::OtherShard);
            }
        }
        EXPECT_GT(mine, 0u);
        shardDocs.push_back(campaignResultsJson(
            "unit", jobs, outcomes, 1, 0.0, shard, false));
    }

    std::string merged, error;
    ASSERT_TRUE(mergeSweepResults(shardDocs, &merged, &error)) << error;
    EXPECT_EQ(merged, golden);

    // A missing shard is an incomplete campaign: refused without
    // --allow-gaps, accepted with it.
    std::vector<std::string> partial = {shardDocs[0], shardDocs[2]};
    EXPECT_FALSE(mergeSweepResults(partial, &merged, &error));
    EXPECT_NE(error.find("missing"), std::string::npos) << error;
    EXPECT_TRUE(mergeSweepResults(partial, &merged, &error, true))
        << error;
}

TEST(Campaign, IsolatedPanicIsContainedAndQuarantined)
{
    std::vector<SweepJob> jobs = tinyJobList();
    // Arm a deterministic panic in one cell; the other cells and this
    // process must survive it.
    jobs[1].params.verify.panicAtCycle = 500;

    CampaignOptions opts;
    opts.isolate = true;
    opts.retries = 2;
    clearBaselineCache();
    std::vector<CampaignOutcome> outcomes =
        CampaignRunner(opts, 2).run(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == 1)
            continue;
        EXPECT_EQ(outcomes[i].state, CellState::Done) << jobs[i].label;
        EXPECT_EQ(outcomes[i].outcome.result.mech.status, RunStatus::Ok);
    }
    const CampaignOutcome &failed = outcomes[1];
    ASSERT_EQ(failed.state, CellState::Failed);
    EXPECT_EQ(failed.failure.status, RunStatus::Crashed);
    EXPECT_EQ(failed.failure.termSignal, SIGABRT);
    // Identical crashes on consecutive attempts: quarantined after 2,
    // not all 3.
    EXPECT_TRUE(failed.failure.quarantined);
    EXPECT_EQ(failed.failure.attempts, 2u);
    EXPECT_NE(failed.failure.stderrTail.find("panic"),
              std::string::npos);
    EXPECT_NE(failed.failure.message.find("signal"), std::string::npos);

    // The failure lands in the results JSON as a structured object.
    std::string json = campaignResultsJson("unit", jobs, outcomes, 1,
                                           0.0, opts, false);
    EXPECT_NE(json.find("\"failure\":{\"status\":\"crashed\""),
              std::string::npos);
    EXPECT_NE(json.find("\"quarantined\":true"), std::string::npos);
}

TEST(Campaign, TimeoutProducesTimeoutFailure)
{
    std::vector<SweepJob> jobs = {tinyJobList()[0]};
    // An effectively-infinite run: livelock watchdog would fire long
    // after the 0.2s wall-clock budget.
    jobs[0].params.maxInsts = 400'000'000;

    CampaignOptions opts;
    opts.timeoutSeconds = 0.2; // implies isolation
    clearBaselineCache();
    std::vector<CampaignOutcome> outcomes =
        CampaignRunner(opts, 1).run(jobs);
    ASSERT_EQ(outcomes[0].state, CellState::Failed);
    EXPECT_EQ(outcomes[0].failure.status, RunStatus::Timeout);
}

TEST(Campaign, RequestStopDrainsAndResumes)
{
    const std::vector<SweepJob> jobs = tinyJobList();
    const std::string journalPath = tempPath("interrupt.journal");
    std::remove(journalPath.c_str());

    // Reference: uninterrupted.
    CampaignOptions whole;
    clearBaselineCache();
    std::string golden = mergedJson(
        jobs, CampaignRunner(whole, 2).run(jobs), whole);

    // Interrupt after the first completed cell; serial worker so the
    // remaining cells are deterministically pending.
    CampaignOptions first;
    first.journalPath = journalPath;
    clearBaselineCache();
    CampaignRunner runner(first, 1);
    size_t progressCalls = 0;
    std::vector<CampaignOutcome> interrupted = runner.run(
        jobs, [&](size_t, const CampaignOutcome &) {
            if (++progressCalls == 1)
                CampaignRunner::requestStop();
        });
    EXPECT_TRUE(runner.interrupted());
    size_t done = 0, pending = 0;
    for (const CampaignOutcome &outcome : interrupted) {
        done += outcome.state == CellState::Done;
        pending += outcome.state == CellState::Pending;
    }
    EXPECT_GE(done, 1u);
    EXPECT_GE(pending, 1u);
    EXPECT_EQ(done + pending, jobs.size());

    // Resume from the journal: completes the rest; merged output is
    // byte-identical to the uninterrupted campaign.
    CampaignOptions resume;
    resume.resumePath = journalPath;
    resume.journalPath = journalPath; // appending to the same file
    clearBaselineCache();
    CampaignRunner second(resume, 2);
    std::vector<CampaignOutcome> resumed = second.run(jobs);
    EXPECT_FALSE(second.interrupted());
    size_t fromJournal = 0;
    for (const CampaignOutcome &outcome : resumed) {
        EXPECT_TRUE(outcome.ok());
        fromJournal += outcome.state == CellState::FromJournal;
    }
    EXPECT_EQ(fromJournal, done);
    EXPECT_EQ(mergedJson(jobs, resumed, resume), golden);
}

TEST(Campaign, FailedCellsReRunOnResume)
{
    // Journal a failed cell, then resume: failure records must not
    // short-circuit the re-run (transient crashes deserve a retry).
    std::vector<SweepJob> jobs = {tinyJobList()[0]};
    const std::string journalPath = tempPath("failed_rerun.journal");
    std::remove(journalPath.c_str());
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(journalPath));
        JournalRecord rec = sampleRecord("x", RunStatus::Crashed);
        rec.key = sweepJobKey(jobs[0]);
        journal.append(rec);
    }
    CampaignOptions opts;
    opts.resumePath = journalPath;
    clearBaselineCache();
    std::vector<CampaignOutcome> outcomes =
        CampaignRunner(opts, 1).run(jobs);
    EXPECT_EQ(outcomes[0].state, CellState::Done); // re-ran, not reused
}

// ---------------------------------------------------------------------
// Seeded mutation of the persisted formats
// ---------------------------------------------------------------------

TEST(CampaignFuzz, ParsersSurviveTruncationAndByteFlips)
{
    const std::vector<SweepJob> jobs = tinyJobList();
    std::vector<CampaignOutcome> outcomes(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        outcomes[i].state = CellState::Done;
        outcomes[i].outcome.result.mech.cycles = 1000 + i;
        outcomes[i].outcome.result.mech.ipc = 1.0 / double(i + 3);
    }
    outcomes[1] = sampleRecord("x", RunStatus::Crashed).outcome;

    // A writeSweepOutcome document.
    size_t accepted = 0;
    mutateAll(outcomeText(outcomes[0].outcome), 1, 3000,
              [&](const std::string &text) {
                  SweepOutcome out;
                  accepted += parseSweepOutcome(text, &out);
              });

    // A three-record journal.
    const std::string path = tempPath("fuzz.journal");
    std::remove(path.c_str());
    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path));
        for (size_t i = 0; i < 3; ++i)
            journal.append({sweepJobKey(jobs[i]), jobs[i].label,
                            outcomes[i]});
    }
    mutateAll(readFile(path), 2, 3000, [&](const std::string &text) {
        // As damaged, and with every record's checksum recomputed so
        // that the mutated JSON reaches the record decoder.
        std::string resealed;
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
            if (!resealed.empty() && line.size() > 17)
                line = sealRecord(line.substr(17));
            resealed += line + "\n";
        }
        for (const std::string &damaged : {text, resealed}) {
            writeFile(path, damaged);
            std::vector<JournalRecord> records;
            std::string error;
            accepted += loadJournal(path, &records, &error);
        }
    });

    // A two-cell results document.
    std::vector<SweepJob> two(jobs.begin(), jobs.begin() + 2);
    std::vector<CampaignOutcome> twoOutcomes(outcomes.begin(),
                                             outcomes.begin() + 2);
    mutateAll(campaignResultsJson("unit", two, twoOutcomes, 1, 0.0,
                                  CampaignOptions{}, false),
              3, 3000, [&](const std::string &text) {
                  std::string merged, error;
                  accepted += mergeSweepResults({text}, &merged, &error);
              });
    // Most mutants are rejected, and some (a flipped digit) are not.
    EXPECT_GT(accepted, 0u);
}

// ---------------------------------------------------------------------
// Merge edge cases
// ---------------------------------------------------------------------

TEST(MergeResults, RejectsConflictingDuplicates)
{
    const char *a =
        "{\"schema\":\"zmt-sweep-results-v1\",\"name\":\"n\",\"jobs\":1,"
        "\"wall_seconds\":1,\"cells\":[\n"
        "  {\"index\":0,\"label\":\"x\",\"failure\":null,"
        "\"wall_seconds\":5,\"ipc\":1}\n]}\n";
    const char *conflicting =
        "{\"schema\":\"zmt-sweep-results-v1\",\"name\":\"n\",\"jobs\":4,"
        "\"wall_seconds\":9,\"cells\":[\n"
        "  {\"index\":0,\"label\":\"x\",\"failure\":null,"
        "\"wall_seconds\":7,\"ipc\":2}\n]}\n";
    std::string merged, error;
    // Same cell, different wall clock: identical after normalization.
    EXPECT_TRUE(mergeSweepResults(
        {a, std::string(a).substr(0)}, &merged, &error))
        << error;
    EXPECT_NE(merged.find("\"wall_seconds\":0"), std::string::npos);
    EXPECT_NE(merged.find("\"ipc\":1"), std::string::npos);
    // Different simulated payload: conflict.
    EXPECT_FALSE(mergeSweepResults({a, conflicting}, &merged, &error));
    EXPECT_NE(error.find("conflicting"), std::string::npos) << error;
}

TEST(MergeResults, OkBeatsFailedDuplicate)
{
    const char *failed =
        "{\"schema\":\"zmt-sweep-results-v1\",\"name\":\"n\",\"jobs\":1,"
        "\"wall_seconds\":1,\"cells\":[\n"
        "  {\"index\":0,\"label\":\"x\",\"failure\":{\"status\":"
        "\"crashed\"},\"wall_seconds\":5,\"ipc\":0}\n]}\n";
    const char *ok =
        "{\"schema\":\"zmt-sweep-results-v1\",\"name\":\"n\",\"jobs\":1,"
        "\"wall_seconds\":1,\"cells\":[\n"
        "  {\"index\":0,\"label\":\"x\",\"failure\":null,"
        "\"wall_seconds\":5,\"ipc\":3}\n]}\n";
    for (auto &order : {std::vector<std::string>{failed, ok},
                        std::vector<std::string>{ok, failed}}) {
        std::string merged, error;
        ASSERT_TRUE(mergeSweepResults(order, &merged, &error)) << error;
        EXPECT_NE(merged.find("\"failure\":null"), std::string::npos);
        EXPECT_NE(merged.find("\"ipc\":3"), std::string::npos);
    }
}

TEST(MergeResults, RejectsBadInputs)
{
    std::string merged, error;
    EXPECT_FALSE(mergeSweepResults({}, &merged, &error));
    EXPECT_FALSE(mergeSweepResults({"not json"}, &merged, &error));
    EXPECT_FALSE(mergeSweepResults({"{\"schema\":\"other\"}"}, &merged,
                                   &error));
    // Cells without an index (pre-campaign output) are refused.
    EXPECT_FALSE(mergeSweepResults(
        {"{\"schema\":\"zmt-sweep-results-v1\",\"name\":\"n\","
         "\"cells\":[{\"label\":\"x\"}]}"},
        &merged, &error));
    EXPECT_NE(error.find("index"), std::string::npos) << error;
    // An index is a plain non-negative integer, decoded exactly.
    for (const char *index : {"-1", "1.5", "1e0"}) {
        EXPECT_FALSE(mergeSweepResults(
            {std::string("{\"schema\":\"zmt-sweep-results-v1\",\"name\":"
                         "\"n\",\"cells\":[{\"index\":") +
             index + ",\"failure\":null}]}"},
            &merged, &error, true))
            << index;
    }
    // Mismatched sweep names cannot belong to one campaign.
    EXPECT_FALSE(mergeSweepResults(
        {"{\"schema\":\"zmt-sweep-results-v1\",\"name\":\"a\","
         "\"cells\":[]}",
         "{\"schema\":\"zmt-sweep-results-v1\",\"name\":\"b\","
         "\"cells\":[]}"},
        &merged, &error));
    EXPECT_NE(error.find("name"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Crash flush hooks
// ---------------------------------------------------------------------

TEST(CrashFlushHooks, RegisterAndRemove)
{
    size_t before = crashFlushHookCount();
    uint64_t handle = addCrashFlushHook([] {});
    EXPECT_EQ(crashFlushHookCount(), before + 1);
    removeCrashFlushHook(handle);
    EXPECT_EQ(crashFlushHookCount(), before);
    removeCrashFlushHook(handle); // double remove is a no-op
    EXPECT_EQ(crashFlushHookCount(), before);
}

TEST(CrashFlushHooksDeathTest, HooksRunBeforeAbort)
{
    EXPECT_DEATH(
        {
            addCrashFlushHook([] {
                std::fprintf(stderr, "FLUSH-HOOK-RAN\n");
            });
            panic("test panic");
        },
        "FLUSH-HOOK-RAN");
}

TEST(CrashFlushHooksDeathTest, ReentrantPanicDoesNotLoop)
{
    // A hook that itself panics must not re-run the hook list forever:
    // the terminal path is marked re-entrant and aborts directly.
    EXPECT_DEATH(
        {
            addCrashFlushHook([] {
                std::fprintf(stderr, "HOOK-ENTERED\n");
                panic("panic from hook");
            });
            panic("outer panic");
        },
        "HOOK-ENTERED");
}

} // anonymous namespace
