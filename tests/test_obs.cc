/**
 * @file
 * Observability-subsystem tests: EventLog ring/label mechanics, the
 * ExcTimeline state machines on synthetic event streams, the central
 * attribution contract (per-handling categories sum exactly to the
 * measured span) across all four mechanisms on real runs, event
 * ordering invariants in the retained ring, exporter output formats
 * (Konata, Chrome trace, the streamed text trace), and the obs-off
 * zero-perturbation guarantee.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "obs/chrometrace.hh"
#include "obs/eventlog.hh"
#include "obs/konata.hh"
#include "obs/texttrace.hh"
#include "obs/timeline.hh"
#include "sim/simulator.hh"

namespace
{

using namespace zmt;
using obs::Event;
using obs::EventKind;
using obs::EventLog;
using obs::ExcTimeline;
using obs::Handling;

SimParams
obsParams(ExceptMech mech, uint64_t insts = 40000)
{
    SimParams params;
    params.except.mech = mech;
    params.except.idleThreads = 1;
    params.maxInsts = insts;
    params.obs.attrib = true;
    return params;
}

Event
ev(Cycle cycle, EventKind kind, ThreadID tid, SeqNum seq = 0,
   uint64_t arg = 0, uint8_t flags = 0)
{
    return Event{cycle, seq, arg, tid, kind, flags};
}

// ---------------------------------------------------------------------
// EventLog unit tests.
// ---------------------------------------------------------------------

TEST(EventLog, RingKeepsMostRecentInOrder)
{
    EventLog log(4);
    for (SeqNum s = 1; s <= 6; ++s)
        log.emit(ev(Cycle(s), EventKind::Fetched, 0, s));

    EXPECT_EQ(log.totalEmitted(), 6u);
    EXPECT_EQ(log.totalDropped(), 2u);
    EXPECT_EQ(log.size(), 4u);

    std::vector<SeqNum> seqs;
    log.forEach([&](const Event &e) { seqs.push_back(e.seq); });
    EXPECT_EQ(seqs, (std::vector<SeqNum>{3, 4, 5, 6}));
}

TEST(EventLog, ZeroCapacityKeepsNoRingButCounts)
{
    EventLog log(0);
    log.emit(ev(1, EventKind::Fetched, 0, 1));
    log.emit(ev(2, EventKind::Retired, 0, 1));
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.totalEmitted(), 2u);
    EXPECT_EQ(log.totalDropped(), 0u);
}

TEST(EventLog, SinkSeesEveryEventDespiteOverflow)
{
    struct Counter : obs::EventSink
    {
        uint64_t seen = 0;
        void onEvent(const Event &) override { ++seen; }
    } counter;

    EventLog log(4);
    log.attachSink(&counter);
    for (SeqNum s = 1; s <= 100; ++s)
        log.emit(ev(Cycle(s), EventKind::Fetched, 0, s));
    EXPECT_EQ(counter.seen, 100u);
    EXPECT_EQ(log.size(), 4u);
}

TEST(EventLog, LabelsPrunedWhenTerminalEventEvicted)
{
    EventLog log(2, /*want_labels=*/true);
    ASSERT_TRUE(log.wantLabels());
    log.setLabel(1, "addq r1, r2");
    log.emit(ev(10, EventKind::Retired, 0, 1));

    ASSERT_NE(log.label(1), nullptr);
    EXPECT_EQ(*log.label(1), "addq r1, r2");

    // Push the Retired event out of the ring: its label goes with it.
    log.emit(ev(11, EventKind::Fetched, 0, 2));
    log.emit(ev(12, EventKind::Fetched, 0, 3));
    EXPECT_EQ(log.label(1), nullptr);
}

TEST(EventLog, KindNames)
{
    EXPECT_STREQ(obs::eventKindName(EventKind::MissDetect),
                 "miss-detect");
    EXPECT_STREQ(obs::eventKindName(EventKind::QsWarm), "qs-warm");
    EXPECT_STREQ(obs::eventKindName(EventKind::SpliceClose),
                 "splice-close");
    EXPECT_STREQ(obs::eventKindName(EventKind::Retired), "retired");
}

// ---------------------------------------------------------------------
// ExcTimeline on synthetic event streams: one test per state machine.
// ---------------------------------------------------------------------

TEST(Timeline, InlineTrapPartition)
{
    stats::StatGroup root("root");
    ExcTimeline tl(&root);

    tl.onEvent(ev(100, EventKind::MissDetect, 0, 9, /*vpn=*/5));
    tl.onEvent(ev(100, EventKind::Trap, 0, 9, 5));
    tl.onEvent(ev(110, EventKind::Dispatched, 0, 10, 0, obs::EvPalMode));
    tl.onEvent(ev(130, EventKind::HandlerRet, 0, 14));
    tl.onEvent(ev(140, EventKind::Dispatched, 0, 20)); // refetch arrives

    ASSERT_EQ(tl.handlings().size(), 1u);
    const Handling &h = tl.handlings()[0];
    EXPECT_TRUE(h.completed);
    EXPECT_EQ(h.shape, Handling::Shape::Inline);
    EXPECT_EQ(h.master, 0);
    EXPECT_EQ(h.faultSeq, 9u);
    EXPECT_EQ(h.vpn, 5u);
    EXPECT_EQ(h.span(), 40u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::Drain)], 0u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::HandlerFetch)], 10u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::HandlerExec)], 20u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::Refetch)], 10u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::SpliceWait)], 0u);
    EXPECT_EQ(h.catSum(), h.span());
    EXPECT_TRUE(tl.summary().consistent());
}

TEST(Timeline, HandlerThreadPartition)
{
    stats::StatGroup root("root");
    ExcTimeline tl(&root);

    tl.onEvent(ev(100, EventKind::MissDetect, 0, 9, /*vpn=*/7));
    tl.onEvent(ev(100, EventKind::Spawn, 0, 9, /*handler=*/3));
    tl.onEvent(ev(105, EventKind::Dispatched, 3, 11, 0, obs::EvPalMode));
    tl.onEvent(ev(120, EventKind::Fill, 3, 13, 7));
    tl.onEvent(ev(150, EventKind::SpliceClose, 3));

    ASSERT_EQ(tl.handlings().size(), 1u);
    const Handling &h = tl.handlings()[0];
    EXPECT_TRUE(h.completed);
    EXPECT_EQ(h.shape, Handling::Shape::Thread);
    EXPECT_EQ(h.master, 0);
    EXPECT_EQ(h.handler, 3);
    EXPECT_EQ(h.vpn, 7u); // carried over from the detection
    EXPECT_EQ(h.span(), 50u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::HandlerFetch)], 5u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::HandlerExec)], 15u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::SpliceWait)], 30u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::Refetch)], 0u);
    EXPECT_EQ(h.catSum(), h.span());
}

TEST(Timeline, HardwareWalkPartition)
{
    stats::StatGroup root("root");
    ExcTimeline tl(&root);

    uint64_t key = obs::walkKey(1, 42);
    tl.onEvent(ev(200, EventKind::MissDetect, 0, 9, 42));
    tl.onEvent(ev(200, EventKind::WalkStart, 0, 9, key));
    tl.onEvent(ev(260, EventKind::WalkDone, InvalidThreadID, 9, key));

    ASSERT_EQ(tl.handlings().size(), 1u);
    const Handling &h = tl.handlings()[0];
    EXPECT_TRUE(h.completed);
    EXPECT_EQ(h.shape, Handling::Shape::Walk);
    EXPECT_EQ(h.vpn, 42u);
    EXPECT_EQ(h.span(), 60u);
    EXPECT_EQ(h.cat[unsigned(obs::AttribCat::Walker)], 60u);
    EXPECT_EQ(h.catSum(), h.span());
}

TEST(Timeline, CancelAbortsWithoutAttribution)
{
    stats::StatGroup root("root");
    ExcTimeline tl(&root);

    tl.onEvent(ev(100, EventKind::MissDetect, 0, 9, 7));
    tl.onEvent(ev(100, EventKind::Spawn, 0, 9, 3));
    tl.onEvent(ev(105, EventKind::Dispatched, 3, 11, 0, obs::EvPalMode));
    tl.onEvent(ev(118, EventKind::Cancel, 3, 0, 0)); // branch squash

    ASSERT_EQ(tl.handlings().size(), 1u);
    const Handling &h = tl.handlings()[0];
    EXPECT_FALSE(h.completed);
    EXPECT_EQ(h.catSum(), 0u);

    obs::AttribSummary s = tl.summary();
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.aborted, 1u);
    EXPECT_EQ(s.spanCycles, 0u);
    EXPECT_TRUE(s.consistent());
}

TEST(Timeline, FinishAbortsOpenHandlings)
{
    stats::StatGroup root("root");
    ExcTimeline tl(&root);

    tl.onEvent(ev(100, EventKind::MissDetect, 0, 9, 7));
    tl.onEvent(ev(100, EventKind::Trap, 0, 9, 7));
    tl.finish(500); // run ended with the handler still in flight

    ASSERT_EQ(tl.handlings().size(), 1u);
    EXPECT_FALSE(tl.handlings()[0].completed);
    EXPECT_EQ(tl.summary().aborted, 1u);
}

TEST(Timeline, RelinkTracksSplicePointMove)
{
    stats::StatGroup root("root");
    ExcTimeline tl(&root);

    tl.onEvent(ev(100, EventKind::MissDetect, 0, 9, 7));
    tl.onEvent(ev(100, EventKind::Spawn, 0, 9, 3));
    tl.onEvent(ev(101, EventKind::Relink, 3, 5, 7)); // older inst, seq 5
    tl.onEvent(ev(105, EventKind::Dispatched, 3, 11, 0, obs::EvPalMode));
    tl.onEvent(ev(120, EventKind::Fill, 3, 13, 7));
    tl.onEvent(ev(150, EventKind::SpliceClose, 3));

    ASSERT_EQ(tl.handlings().size(), 1u);
    const Handling &h = tl.handlings()[0];
    EXPECT_EQ(h.relinks, 1u);
    EXPECT_EQ(h.faultSeq, 5u);
}

// ---------------------------------------------------------------------
// The attribution contract on real runs: every completed handling's
// categories must sum exactly to its measured span, for all four
// mechanisms, and the run result must carry the same totals.
// ---------------------------------------------------------------------

class AttributionTest : public ::testing::TestWithParam<ExceptMech>
{};

TEST_P(AttributionTest, CategoriesSumToSpanExactly)
{
    ExceptMech mech = GetParam();
    SimParams params = obsParams(mech);
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    ASSERT_TRUE(result.ok());

    const obs::ExcTimeline *tl = sim.core().excTimeline();
    ASSERT_NE(tl, nullptr);

    // Per-record identity (the analyzer also panics internally).
    uint64_t completed = 0;
    for (const Handling &h : tl->handlings()) {
        if (!h.completed) {
            EXPECT_EQ(h.catSum(), 0u);
            continue;
        }
        ++completed;
        EXPECT_EQ(h.catSum(), h.span()) << mechName(mech);
        EXPECT_GE(h.start, h.detect);
        EXPECT_GE(h.done, h.start);
    }
    EXPECT_GT(completed, 0u) << mechName(mech);

    // Aggregate identity, and the summary reaches the CoreResult.
    obs::AttribSummary s = tl->summary();
    EXPECT_TRUE(s.consistent()) << mechName(mech);
    EXPECT_EQ(s.completed, completed);
    EXPECT_EQ(result.attrib.completed, s.completed);
    EXPECT_EQ(result.attrib.spanCycles, s.spanCycles);
    EXPECT_EQ(result.attrib.categorySum(), s.categorySum());

    // Mechanism-specific shape: where the cycles are allowed to land.
    using obs::AttribCat;
    if (mech == ExceptMech::Traditional) {
        EXPECT_EQ(s.cycles[unsigned(AttribCat::SpliceWait)], 0u);
        EXPECT_EQ(s.cycles[unsigned(AttribCat::Walker)], 0u);
        EXPECT_GT(s.cycles[unsigned(AttribCat::Refetch)], 0u);
    } else if (mech == ExceptMech::Hardware) {
        EXPECT_GT(s.cycles[unsigned(AttribCat::Walker)], 0u);
        EXPECT_EQ(s.cycles[unsigned(AttribCat::HandlerFetch)], 0u);
    } else {
        // Handler-thread mechanisms splice; the walker never runs.
        EXPECT_GT(s.cycles[unsigned(AttribCat::SpliceWait)], 0u);
        EXPECT_EQ(s.cycles[unsigned(AttribCat::Walker)], 0u);
        bool has_thread = false;
        for (const Handling &h : tl->handlings())
            has_thread |= h.shape == Handling::Shape::Thread;
        EXPECT_TRUE(has_thread) << mechName(mech);
    }

    // The per-category scalars under sim.core.obs.* mirror the totals.
    const auto *scalar = dynamic_cast<const stats::Scalar *>(
        sim.statsRoot().find("core.obs.completedHandlings"));
    ASSERT_NE(scalar, nullptr);
    EXPECT_EQ(uint64_t(scalar->value()), s.completed);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, AttributionTest,
    ::testing::Values(ExceptMech::Traditional,
                      ExceptMech::Multithreaded,
                      ExceptMech::QuickStart, ExceptMech::Hardware),
    [](const ::testing::TestParamInfo<ExceptMech> &info) {
        return mechName(info.param);
    });

// ---------------------------------------------------------------------
// Event ordering invariants over the retained ring.
// ---------------------------------------------------------------------

TEST(EventOrdering, RingIsChronologicalAndPerSeqWellFormed)
{
    SimParams params = obsParams(ExceptMech::Multithreaded, 5000);
    params.obs.pipeview = "/dev/null"; // want the ring
    params.obs.ringCapacity = 1u << 20;
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    ASSERT_TRUE(sim.run().ok());

    const EventLog *log = sim.core().eventLog();
    ASSERT_NE(log, nullptr);
    ASSERT_EQ(log->totalDropped(), 0u); // ring held the whole run

    struct SeqState
    {
        bool fetched = false;
        bool dispatched = false;
        bool terminal = false;
    };
    std::unordered_map<SeqNum, SeqState> states;
    Cycle last_cycle = 0;
    log->forEach([&](const Event &e) {
        EXPECT_GE(e.cycle, last_cycle); // emission order is time order
        last_cycle = e.cycle;
        if (e.seq == 0)
            return; // thread-scoped events carry no instruction
        SeqState &st = states[e.seq];
        switch (e.kind) {
          case EventKind::Fetched:
            EXPECT_FALSE(st.fetched) << "seq " << e.seq;
            st.fetched = true;
            break;
          case EventKind::Dispatched:
            EXPECT_TRUE(st.fetched) << "seq " << e.seq;
            EXPECT_FALSE(st.dispatched) << "seq " << e.seq;
            EXPECT_FALSE(st.terminal) << "seq " << e.seq;
            st.dispatched = true;
            break;
          case EventKind::Issued:
          case EventKind::Completed:
            EXPECT_TRUE(st.dispatched) << "seq " << e.seq;
            EXPECT_FALSE(st.terminal) << "seq " << e.seq;
            break;
          case EventKind::Retired:
          case EventKind::Squashed:
            EXPECT_TRUE(st.fetched) << "seq " << e.seq;
            EXPECT_FALSE(st.terminal) << "seq " << e.seq;
            st.terminal = true;
            break;
          default:
            break; // exception-lifecycle events ride their own rules
        }
    });
    EXPECT_GT(states.size(), 1000u);
}

// ---------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------

TEST(Exporters, KonataFormat)
{
    SimParams params = obsParams(ExceptMech::Multithreaded, 3000);
    params.obs.pipeview = "/dev/null";
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    ASSERT_TRUE(sim.run().ok());

    std::ostringstream os;
    obs::writeKonata(os, *sim.core().eventLog());
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "Kanata\t0004");

    size_t inst_lines = 0, retire_lines = 0;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        std::string tag = line.substr(0, line.find('\t'));
        // Every record is one of the Kanata types we emit.
        EXPECT_TRUE(tag == "C=" || tag == "C" || tag == "I" ||
                    tag == "L" || tag == "S" || tag == "E" || tag == "R")
            << line;
        inst_lines += tag == "I";
        retire_lines += tag == "R";
    }
    EXPECT_GT(inst_lines, 100u);
    EXPECT_GT(retire_lines, 100u);
    EXPECT_LE(retire_lines, inst_lines);
}

TEST(Exporters, ChromeTraceFormat)
{
    SimParams params = obsParams(ExceptMech::Multithreaded, 5000);
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    ASSERT_TRUE(sim.run().ok());

    std::ostringstream os;
    obs::writeChromeTrace(os, *sim.core().excTimeline());
    const std::string text = os.str();
    EXPECT_EQ(text.front(), '{');
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("zmt-chrome-trace-v1"), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    // Balanced object: closes cleanly at the end.
    EXPECT_EQ(text.substr(text.size() - 2), "}\n");

    // Every completed handling must appear as exactly one detect
    // instant; count them against the timeline.
    size_t instants = 0;
    for (size_t pos = 0;
         (pos = text.find("\"ph\":\"i\"", pos)) != std::string::npos;
         ++pos)
        ++instants;
    EXPECT_EQ(instants, sim.core().excTimeline()->handlings().size());
}

// ---------------------------------------------------------------------
// The text trace (obs.trace / zmt_sim --trace=).
// ---------------------------------------------------------------------

const char *const traceCategories[] = {
    "fetch", "dispatch", "issue", "complete", "retire", "squash", "exc",
    "helper"};

TEST(TextTrace, EveryKindHasExactlyOneCategory)
{
    const unsigned num_kinds = unsigned(EventKind::NumKinds);
    const obs::KindMask every = (obs::KindMask(1) << num_kinds) - 1;
    obs::KindMask seen = 0;
    for (const char *cat : traceCategories) {
        obs::KindMask mask = obs::parseTraceCategories(cat);
        EXPECT_NE(mask, 0u) << cat;
        EXPECT_EQ(mask & seen, 0u) << cat << " overlaps another category";
        seen |= mask;
        for (unsigned k = 0; k < num_kinds; ++k) {
            bool in_cat = std::string(obs::traceCategory(EventKind(k))) ==
                          cat;
            EXPECT_EQ(((mask >> k) & 1) != 0, in_cat)
                << cat << " / " << obs::eventKindName(EventKind(k));
        }
    }
    EXPECT_EQ(seen, every);
}

// The --trace= list: empty selects nothing, "all" every kind, and a
// comma list the union of its categories.
TEST(Trace, ParseFlags)
{
    const obs::KindMask every =
        (obs::KindMask(1) << unsigned(EventKind::NumKinds)) - 1;
    EXPECT_EQ(obs::parseTraceCategories(""), 0u);
    EXPECT_EQ(obs::parseTraceCategories("all"), every);
    EXPECT_EQ(obs::parseTraceCategories("exc,retire"),
              obs::parseTraceCategories("exc") |
                  obs::parseTraceCategories("retire"));
    EXPECT_NE(obs::parseTraceCategories("exc") &
                  (obs::KindMask(1) << unsigned(EventKind::Spawn)),
              0u);
}

TEST(Trace, FlagNames)
{
    EXPECT_STREQ(obs::traceCategory(EventKind::Fetched), "fetch");
    EXPECT_STREQ(obs::traceCategory(EventKind::Retired), "retire");
    EXPECT_STREQ(obs::traceCategory(EventKind::MissDetect), "exc");
    EXPECT_STREQ(obs::traceCategory(EventKind::WalkAbort), "exc");
    EXPECT_STREQ(obs::traceCategory(EventKind::HelperRace), "helper");
}

TEST(TextTrace, UnknownCategoryIsFatal)
{
    EXPECT_EXIT(obs::parseTraceCategories("exc,bogus"),
                ::testing::ExitedWithCode(1),
                "unknown trace category 'bogus'");
}

TEST(TextTrace, PrintsSelectedEventsInDocumentedFormat)
{
    FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    obs::TextTrace trace("exc,retire", out);
    trace.onEvent(ev(12, EventKind::Spawn, 0, 7, 2));
    trace.onEvent(ev(13, EventKind::Fetched, 0, 8));
    trace.onEvent(ev(14, EventKind::Retired, 1, 9));
    trace.onEvent(ev(15, EventKind::WalkDone, InvalidThreadID, 0, 99));

    std::rewind(out);
    std::string text;
    for (int c; (c = std::fgetc(out)) != EOF;)
        text += char(c);
    std::fclose(out);
    EXPECT_EQ(text, "12: exc: t0 spawn seq=7 arg=2\n"
                    "14: retire: t1 retired seq=9 arg=0\n"
                    "15: exc: t-1 walk-done seq=0 arg=99\n");
}

// End to end through obs.trace: the core's own sink streams one line
// per exception-lifecycle event to stderr, and nothing else.
TEST(TextTrace, ExcRunPrintsOneLinePerLifecycleEvent)
{
    struct KindCounter : obs::EventSink
    {
        std::map<std::string, uint64_t> exc;
        void
        onEvent(const Event &e) override
        {
            if (std::string(obs::traceCategory(e.kind)) == "exc")
                ++exc[obs::eventKindName(e.kind)];
        }
    } counter;

    SimParams params = obsParams(ExceptMech::Multithreaded, 20000);
    params.obs.attrib = false; // obs.trace alone turns the log on
    params.obs.trace = "exc";
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    ASSERT_NE(sim.core().eventLog(), nullptr);
    sim.core().eventLog()->attachSink(&counter);
    ::testing::internal::CaptureStderr();
    CoreResult result = sim.run();
    const std::string text = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(result.ok());

    const std::regex line_re(
        "[0-9]+: exc: t-?[0-9]+ ([a-z-]+) seq=[0-9]+ arg=[0-9]+");
    std::map<std::string, uint64_t> printed;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::smatch m;
        ASSERT_TRUE(std::regex_match(line, m, line_re)) << line;
        ++printed[m[1]];
    }
    EXPECT_EQ(printed, counter.exc);
    EXPECT_GT(printed["spawn"], 0u);
    EXPECT_GT(printed["splice-close"], 0u);
}

// ---------------------------------------------------------------------
// Zero-perturbation and overflow robustness.
// ---------------------------------------------------------------------

TEST(ObsOff, TimingIsIdenticalAndHooksAreDark)
{
    SimParams off = obsParams(ExceptMech::Multithreaded, 20000);
    off.obs = {};
    SimParams on = obsParams(ExceptMech::Multithreaded, 20000);

    Simulator sim_off(off, benchmarkWorkloads({"compress"}));
    CoreResult r_off = sim_off.run();
    EXPECT_EQ(sim_off.core().eventLog(), nullptr);
    EXPECT_EQ(sim_off.core().excTimeline(), nullptr);
    EXPECT_EQ(r_off.attrib.completed + r_off.attrib.aborted, 0u);

    Simulator sim_on(on, benchmarkWorkloads({"compress"}));
    CoreResult r_on = sim_on.run();
    ASSERT_NE(sim_on.core().excTimeline(), nullptr);

    // Observation must not perturb the simulated machine.
    EXPECT_EQ(r_off.cycles, r_on.cycles);
    EXPECT_EQ(r_off.userInsts, r_on.userInsts);
    EXPECT_EQ(r_off.tlbMisses, r_on.tlbMisses);
    EXPECT_EQ(r_off.measuredCycles, r_on.measuredCycles);
}

TEST(ObsOff, TraceAllKeepsTimingIdentical)
{
    SimParams off = obsParams(ExceptMech::Multithreaded, 20000);
    off.obs = {};
    SimParams on = off;
    on.obs.trace = "all";

    const std::vector<WorkloadParams> compress =
        benchmarkWorkloads({"compress"});
    CoreResult r_off = runSimulation(off, compress);
    ::testing::internal::CaptureStderr();
    CoreResult r_on = runSimulation(on, compress);
    EXPECT_FALSE(::testing::internal::GetCapturedStderr().empty());

    EXPECT_EQ(r_off.cycles, r_on.cycles);
    EXPECT_EQ(r_off.userInsts, r_on.userInsts);
    EXPECT_EQ(r_off.tlbMisses, r_on.tlbMisses);
    EXPECT_EQ(r_off.measuredCycles, r_on.measuredCycles);
    EXPECT_EQ(r_off.measuredMisses, r_on.measuredMisses);
}

TEST(RingOverflow, AttributionSurvivesTinyRing)
{
    SimParams params = obsParams(ExceptMech::Multithreaded, 20000);
    params.obs.pipeview = "/dev/null";
    params.obs.ringCapacity = 64; // orders of magnitude too small
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    ASSERT_TRUE(result.ok());

    const EventLog *log = sim.core().eventLog();
    ASSERT_NE(log, nullptr);
    EXPECT_GT(log->totalDropped(), 0u);
    EXPECT_EQ(log->size(), 64u);

    // The sink saw everything: attribution is complete and consistent.
    EXPECT_TRUE(result.attrib.consistent());
    EXPECT_GT(result.attrib.completed, 0u);

    // The exporter still works on the partial window.
    std::ostringstream os;
    obs::writeKonata(os, *log);
    EXPECT_EQ(os.str().compare(0, 11, "Kanata\t0004"), 0);
}

} // anonymous namespace
