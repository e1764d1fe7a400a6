/**
 * @file
 * TLB and hardware page walker tests: lookups, ASN tagging, LRU
 * replacement, and the walker's merge/issue/squash/relink behaviour
 * (paper Sections 4.5 and 5.1).
 */

#include <gtest/gtest.h>

#include "tlb/tlb.hh"
#include "tlb/walker.hh"

namespace
{

using namespace zmt;

struct TlbHarness
{
    stats::StatGroup root{"root"};
    Tlb tlb;

    explicit TlbHarness(unsigned entries = 4) : tlb(entries, &root) {}
};

TEST(Tlb, MissThenHitAfterInsert)
{
    TlbHarness h;
    EXPECT_FALSE(h.tlb.lookup(1, 0x4000));
    h.tlb.insert(1, 0x4000);
    EXPECT_TRUE(h.tlb.lookup(1, 0x4000));
    EXPECT_TRUE(h.tlb.lookup(1, 0x5fff)); // same page
    EXPECT_FALSE(h.tlb.lookup(1, 0x6000)); // next page
}

TEST(Tlb, AsnTagging)
{
    TlbHarness h;
    h.tlb.insert(1, 0x4000);
    EXPECT_TRUE(h.tlb.lookup(1, 0x4000));
    EXPECT_FALSE(h.tlb.lookup(2, 0x4000)); // other address space
}

TEST(Tlb, LruEviction)
{
    TlbHarness h(2);
    h.tlb.insert(1, 0x0000);
    h.tlb.insert(1, 0x2000);
    EXPECT_TRUE(h.tlb.lookup(1, 0x0000)); // refresh page 0
    h.tlb.insert(1, 0x4000);               // evicts page 1 (LRU)
    EXPECT_TRUE(h.tlb.contains(1, 0x0000));
    EXPECT_FALSE(h.tlb.contains(1, 0x2000));
    EXPECT_TRUE(h.tlb.contains(1, 0x4000));
    EXPECT_EQ(h.tlb.evictions.value(), 1.0);
}

TEST(Tlb, DuplicateInsertRefreshesNotDuplicates)
{
    TlbHarness h(2);
    h.tlb.insert(1, 0x0000);
    h.tlb.insert(1, 0x0000);
    EXPECT_EQ(h.tlb.validCount(), 1u);
    // The refreshed entry survives one eviction round.
    h.tlb.insert(1, 0x2000);
    h.tlb.insert(1, 0x4000);
    EXPECT_TRUE(h.tlb.contains(1, 0x4000));
}

TEST(Tlb, FlushAll)
{
    TlbHarness h;
    h.tlb.insert(1, 0x2000);
    h.tlb.insert(2, 0x4000);
    h.tlb.flushAll();
    EXPECT_EQ(h.tlb.validCount(), 0u);
    EXPECT_FALSE(h.tlb.contains(1, 0x2000));
}

TEST(Tlb, StatsCount)
{
    TlbHarness h;
    h.tlb.lookup(1, 0);     // miss
    h.tlb.insert(1, 0);     // fill
    h.tlb.lookup(1, 0);     // hit
    EXPECT_EQ(h.tlb.misses.value(), 1.0);
    EXPECT_EQ(h.tlb.hits.value(), 1.0);
    EXPECT_EQ(h.tlb.fills.value(), 1.0);
}

TEST(Tlb, ContainsDoesNotTouchLruOrStats)
{
    TlbHarness h(2);
    h.tlb.insert(1, 0x0000);
    h.tlb.insert(1, 0x2000);
    double hits = h.tlb.hits.value();
    h.tlb.contains(1, 0x0000);
    EXPECT_EQ(h.tlb.hits.value(), hits);
    // contains() must not refresh: page 0 is still LRU and evicts.
    h.tlb.insert(1, 0x4000);
    EXPECT_FALSE(h.tlb.contains(1, 0x0000));
}

// ---------------------------------------------------------------------
// Hardware walker.
// ---------------------------------------------------------------------

struct WalkerHarness
{
    stats::StatGroup root{"root"};
    MemParams memParams;
    MemHierarchy hier;
    HwWalker walker;

    WalkerHarness() : hier(memParams, &root), walker(&root) {}
};

TEST(Walker, WalkCompletesWithPteLoadLatency)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 10);
    EXPECT_TRUE(h.walker.walking(1, 0x4000));

    unsigned used = h.walker.issue(0, 3, h.hier);
    EXPECT_EQ(used, 1u);

    // Not done immediately (cold PTE -> memory latency).
    EXPECT_TRUE(h.walker.collectFinished(5).empty());
    auto done = h.walker.collectFinished(200);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].va, 0x4000u);
    EXPECT_EQ(done[0].faultSeq, 10u);
    EXPECT_FALSE(done[0].squashed);
    EXPECT_FALSE(h.walker.walking(1, 0x4000));
}

TEST(Walker, MergesSamePage)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 10);
    h.walker.startWalk(1, 0x4008, 0x100000, 20); // same page
    EXPECT_EQ(h.walker.walksStarted.value(), 1.0);
    EXPECT_EQ(h.walker.walksMerged.value(), 1.0);
    h.walker.issue(0, 3, h.hier);
    EXPECT_EQ(h.walker.collectFinished(500).size(), 1u);
}

TEST(Walker, MergeKeepsOldestFaultSeq)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 20);
    h.walker.startWalk(1, 0x4100, 0x100000, 5); // older inst, same page
    h.walker.issue(0, 3, h.hier);
    auto done = h.walker.collectFinished(500);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].faultSeq, 5u);
}

TEST(Walker, ParallelWalksLimitedByPorts)
{
    WalkerHarness h;
    for (unsigned i = 0; i < 5; ++i)
        h.walker.startWalk(1, Addr(i) * 0x2000, 0x100000 + i * 8, i);
    EXPECT_EQ(h.walker.issue(0, 2, h.hier), 2u);
    EXPECT_EQ(h.walker.issue(1, 2, h.hier), 2u);
    EXPECT_EQ(h.walker.issue(2, 2, h.hier), 1u);
    EXPECT_EQ(h.walker.issue(3, 2, h.hier), 0u);
    EXPECT_EQ(h.walker.collectFinished(1000).size(), 5u);
}

TEST(Walker, SquashMarksWalkAndSkipsFill)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 50);
    h.walker.issue(0, 3, h.hier);
    h.walker.squashWalksAfter(1, 40); // faultSeq 50 >= 40: squashed
    auto done = h.walker.collectFinished(500);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].squashed);
    EXPECT_EQ(h.walker.walksSquashed.value(), 1.0);
}

TEST(Walker, SquashIsAsnScoped)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 50);
    h.walker.startWalk(2, 0x4000, 0x200000, 60);
    h.walker.squashWalksAfter(1, 0);
    h.walker.issue(0, 3, h.hier);
    auto done = h.walker.collectFinished(500);
    ASSERT_EQ(done.size(), 2u);
    unsigned squashed = 0;
    for (const auto &walk : done)
        squashed += walk.squashed ? 1 : 0;
    EXPECT_EQ(squashed, 1u);
}

TEST(Walker, SquashOlderSeqSurvives)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 30);
    h.walker.squashWalksAfter(1, 40); // 30 < 40: survives
    h.walker.issue(0, 3, h.hier);
    auto done = h.walker.collectFinished(500);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].squashed);
}

TEST(Walker, RelinkMovesToOlderSeq)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 50);
    h.walker.relink(1, 0x4000, 20);
    // Now a squash of everything >= 30 must NOT kill the walk.
    h.walker.squashWalksAfter(1, 30);
    h.walker.issue(0, 3, h.hier);
    auto done = h.walker.collectFinished(500);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].squashed);
    EXPECT_EQ(done[0].faultSeq, 20u);
}

TEST(Walker, SquashedUnissuedWalkStillIssues)
{
    WalkerHarness h;
    h.walker.startWalk(1, 0x4000, 0x100000, 50);
    h.walker.squashWalksAfter(1, 0);
    // Squashed before its PTE load went out: the load still goes out
    // (and touches the cache), and the walk finishes marked squashed
    // so the core skips the fill.
    EXPECT_EQ(h.walker.issue(0, 3, h.hier), 1u);
    EXPECT_EQ(h.hier.dcache().misses.value(), 1.0);
    auto done = h.walker.collectFinished(500);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].squashed);
    EXPECT_FALSE(h.walker.anyInFlight());
}

} // anonymous namespace
