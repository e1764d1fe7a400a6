/**
 * @file
 * Memory-hierarchy tests: bus occupancy, cache hit/miss behaviour and
 * LRU replacement, MSHR merging and capacity stalls, writebacks, and
 * the Table 1 load-use latency calibration (3 / 12 / 104 cycles
 * including the 3-cycle load port). A differential test drives a
 * seeded random stream through Cache and through a reference copy of
 * the map-based MSHR model and requires every answer to agree.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <span>
#include <sstream>

#include "mem/hierarchy.hh"

namespace
{

using namespace zmt;

TEST(Bus, SerializesTransfers)
{
    stats::StatGroup root("root");
    Bus bus("bus", 2, &root);
    EXPECT_EQ(bus.acquire(10), 12u);
    EXPECT_EQ(bus.acquire(10), 14u); // queued behind the first
    EXPECT_EQ(bus.acquire(20), 22u); // idle gap: starts immediately
    EXPECT_EQ(bus.transfers.value(), 3.0);
}

TEST(Bus, TracksWaitCycles)
{
    stats::StatGroup root("root");
    Bus bus("bus", 4, &root);
    bus.acquire(0);
    bus.acquire(0); // waits 4 cycles
    EXPECT_EQ(bus.waitCycles.value(), 4.0);
}

struct MemHarness
{
    stats::StatGroup root{"root"};
    MemParams params;
    MemHierarchy hier;

    MemHarness() : hier(params, &root) {}
};

TEST(Hierarchy, L1HitIsFree)
{
    MemHarness h;
    h.hier.dataAccess(0x1000, false, 0); // cold: miss
    Cycle t = h.hier.dataAccess(0x1000, false, 200);
    EXPECT_EQ(t, 200u); // hit adds nothing; the load port adds the 3
}

TEST(Hierarchy, Table1LoadUseLatencies)
{
    MemHarness h;
    // Cold access goes all the way to memory:
    // lookup(0) + L2 lookup(6) + memory(80) + L2/mem bus(11) +
    // L2 fill(1) + L1/L2 bus(2) + L1 fill(1) = 101; +3 port = 104.
    Cycle cold = h.hier.dataAccess(0x40000, false, 0);
    EXPECT_EQ(cold + 3, 104u);

    // L1 hit: + 3 cycles port only.
    Cycle hit = h.hier.dataAccess(0x40000, false, 1000);
    EXPECT_EQ(hit + 3, 1003u);

    // Evict from L1 (2-way: two conflicting lines), keep in L2 -> the
    // reload is an L2 hit: 6 + bus 2 + fill 1 = 9; +3 port = 12.
    unsigned l1_sets = 64 * 1024 / 32 / 2;
    Addr conflict1 = 0x40000 + Addr(l1_sets) * 32;
    Addr conflict2 = 0x40000 + 2 * Addr(l1_sets) * 32;
    h.hier.dataAccess(conflict1, false, 2000);
    h.hier.dataAccess(conflict2, false, 3000);
    Cycle l2hit = h.hier.dataAccess(0x40000, false, 5000);
    EXPECT_EQ(l2hit + 3 - 5000, 12u);
}

TEST(Cache, SameLineIsOneBlock)
{
    MemHarness h;
    h.hier.dataAccess(0x2000, false, 0);
    // Any byte of the same 32 B line hits.
    Cycle t = h.hier.dataAccess(0x201f, false, 500);
    EXPECT_EQ(t, 500u);
    EXPECT_EQ(h.hier.dcache().misses.value(), 1.0);
    EXPECT_EQ(h.hier.dcache().hits.value(), 1.0);
}

TEST(Cache, LruReplacement)
{
    MemHarness h;
    unsigned l1_sets = 64 * 1024 / 32 / 2;
    Addr stride = Addr(l1_sets) * 32;
    Addr a = 0x8000, b = a + stride, c = a + 2 * stride;

    h.hier.dataAccess(a, false, 0);
    h.hier.dataAccess(b, false, 100);
    h.hier.dataAccess(a, false, 200); // refresh a
    h.hier.dataAccess(c, false, 300); // evicts b (LRU)

    EXPECT_TRUE(h.hier.dcache().wouldHit(a));
    EXPECT_FALSE(h.hier.dcache().wouldHit(b));
    EXPECT_TRUE(h.hier.dcache().wouldHit(c));
}

TEST(Cache, MshrMergesSecondaryMisses)
{
    MemHarness h;
    Cycle first = h.hier.dataAccess(0x3000, false, 0);
    Cycle second = h.hier.dataAccess(0x3008, false, 1);
    EXPECT_EQ(second, first); // merged into the outstanding fetch
    EXPECT_EQ(h.hier.dcache().mshrMerges.value(), 1.0);
}

TEST(Cache, MshrCapacityStalls)
{
    MemHarness h;
    // 64 outstanding misses allowed; the 65th must wait.
    Cycle last_first_batch = 0;
    for (unsigned i = 0; i < 64; ++i) {
        last_first_batch =
            h.hier.dataAccess(0x100000 + Addr(i) * 4096, false, 0);
    }
    Cycle overflow = h.hier.dataAccess(0x100000 + 64 * 4096ull, false, 0);
    EXPECT_GT(overflow, last_first_batch);
    EXPECT_GE(h.hier.dcache().mshrFullStalls.value(), 1.0);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    MemHarness h;
    unsigned l1_sets = 64 * 1024 / 32 / 2;
    Addr stride = Addr(l1_sets) * 32;
    Addr a = 0x9000;
    h.hier.dataAccess(a, true, 0); // dirty
    h.hier.dataAccess(a + stride, false, 100);
    h.hier.dataAccess(a + 2 * stride, false, 200); // evicts dirty a
    EXPECT_EQ(h.hier.dcache().writebacks.value(), 1.0);
}

TEST(Cache, StoresMarkDirtyOnHit)
{
    MemHarness h;
    h.hier.dataAccess(0xa000, false, 0);   // clean fill
    h.hier.dataAccess(0xa000, true, 100);  // dirty it
    unsigned l1_sets = 64 * 1024 / 32 / 2;
    Addr stride = Addr(l1_sets) * 32;
    h.hier.dataAccess(0xa000 + stride, false, 200);
    h.hier.dataAccess(0xa000 + 2 * stride, false, 300);
    EXPECT_EQ(h.hier.dcache().writebacks.value(), 1.0);
}

TEST(Cache, BusContentionDelaysParallelMisses)
{
    MemHarness h;
    // Two misses to different blocks at the same cycle: the second's
    // return transfer queues behind the first on the L1/L2 bus.
    Cycle t1 = h.hier.dataAccess(0xb000, false, 0);
    Cycle t2 = h.hier.dataAccess(0xc000, false, 0);
    EXPECT_GT(t2, t1);
}

TEST(Cache, SharedL2BetweenInstAndData)
{
    MemHarness h;
    h.hier.instAccess(0xd000, 0);            // fills L2 via L1I
    h.hier.dataAccess(0xd000, false, 1000);  // L1D miss, L2 hit
    EXPECT_EQ(h.hier.l2cache().hits.value(), 1.0);
    EXPECT_EQ(h.hier.l2cache().misses.value(), 1.0);
}

TEST(Cache, FlushInvalidatesEverything)
{
    MemHarness h;
    h.hier.dataAccess(0xe000, false, 0);
    EXPECT_TRUE(h.hier.dcache().wouldHit(0xe000));
    h.hier.dcache().flush();
    EXPECT_FALSE(h.hier.dcache().wouldHit(0xe000));
}

TEST(Cache, MissRateFormula)
{
    MemHarness h;
    // Space the accesses past the fill so they are plain hits, not
    // hit-under-fill merges.
    h.hier.dataAccess(0xf000, false, 0);
    h.hier.dataAccess(0xf000, false, 200);
    h.hier.dataAccess(0xf000, false, 400);
    h.hier.dataAccess(0xf008, false, 600);
    EXPECT_NEAR(h.hier.dcache().missRate.value(), 0.25, 1e-9);
}

TEST(Cache, GeometryValidation)
{
    stats::StatGroup root("root");
    // Non-power-of-two set count must be rejected.
    EXPECT_EXIT(Cache("bad", 48, 2, 32, 0, 0, 0, nullptr, nullptr, 0,
                      &root),
                ::testing::ExitedWithCode(1), "number of sets must be a "
                                              "power of two");
    // Blocks are found by shift and mask: a 96 B line is refused even
    // where the set count (96 KB / 96 B = 1024) is a power of two.
    EXPECT_EXIT(Cache("bad", 96, 1, 96, 0, 0, 0, nullptr, nullptr, 0,
                      &root),
                ::testing::ExitedWithCode(1),
                "line size must be a power of two");
    EXPECT_EXIT(Cache("bad", 64, 2, 0, 0, 0, 0, nullptr, nullptr, 0,
                      &root),
                ::testing::ExitedWithCode(1),
                "line size must be a power of two");
    // Zero ways is refused, not a division by zero.
    EXPECT_EXIT(Cache("bad", 64, 0, 32, 0, 0, 0, nullptr, nullptr, 0,
                      &root),
                ::testing::ExitedWithCode(1), "cache too small");
}


TEST(Cache, SettleTimingKeepsContentsDropsDelays)
{
    MemHarness h;
    Cycle cold = h.hier.dataAccess(0x5000, false, 0);
    EXPECT_GT(cold, 50u); // in flight
    h.hier.settleTiming();
    // Contents survive; the in-flight delay does not.
    EXPECT_TRUE(h.hier.dcache().wouldHit(0x5000));
    Cycle hit = h.hier.dataAccess(0x5000, false, 1);
    EXPECT_EQ(hit, 1u);
}

TEST(Cache, HitUnderFillWaitsForTheData)
{
    MemHarness h;
    Cycle fill = h.hier.dataAccess(0x6000, false, 0);
    // A second access to the same line before the data arrives cannot
    // complete earlier than the fill.
    Cycle early = h.hier.dataAccess(0x6008, false, 5);
    EXPECT_EQ(early, fill);
    Cycle late = h.hier.dataAccess(0x6010, false, fill + 10);
    EXPECT_EQ(late, fill + 10);
}

TEST(Cache, WarmInstallDropsTheVictimsPrefetchTag)
{
    MemHarness h;
    unsigned l1_sets = 64 * 1024 / 32 / 2;
    Addr stride = Addr(l1_sets) * 32;
    Addr a = 0x7000, b = a + stride, c = a + 2 * stride;
    Cycle done = h.hier.prefetchData(a, 0);
    h.hier.dataAccess(b, false, done + 10);
    // Both ways of the set are taken; c replaces the prefetched a,
    // which was never demand-used. c was not prefetched.
    h.hier.dcache().warmInstall(c, false);
    ASSERT_FALSE(h.hier.dcache().wouldHit(a));
    EXPECT_EQ(h.hier.consumePrefetched(c, done + 20),
              Cache::PrefetchHit::None);
}

TEST(Bus, ResetTimingClearsQueue)
{
    stats::StatGroup root("root");
    Bus bus("bus", 8, &root);
    bus.acquire(0);
    EXPECT_EQ(bus.freeAtCycle(), 8u);
    bus.resetTiming();
    EXPECT_EQ(bus.freeAtCycle(), 0u);
}

/**
 * Reference model: the cache as it was when its outstanding misses
 * lived in a std::map probed on every hit. Same geometry, LRU,
 * write-back and bus arithmetic as Cache; only the bookkeeping of
 * in-flight fills differs, so any disagreement is a bookkeeping bug.
 */
class RefCache
{
  public:
    RefCache(unsigned size_kb, unsigned assoc, unsigned line_bytes,
             unsigned hit_extra, unsigned fill_extra, unsigned max_misses,
             Bus *bus, RefCache *next, unsigned mem_latency)
        : lineBytes(line_bytes), assoc(assoc),
          numSets(size_t(size_kb) * 1024 / line_bytes / assoc),
          hitExtra(hit_extra), fillExtra(fill_extra),
          maxMisses(max_misses), bus(bus), next(next),
          memLatency(mem_latency), lines(numSets * assoc)
    {}

    Cycle
    access(Addr pa, bool is_write, Cycle now)
    {
        Addr block = pa / lineBytes;
        ++useCounter;
        for (Line &line : set(block)) {
            if (line.valid && line.tag == block) {
                line.lastUse = useCounter;
                line.dirty = line.dirty || is_write;
                if (auto it = outstanding.find(block);
                    it != outstanding.end() && it->second > now) {
                    ++mshrMerges;
                    return it->second + hitExtra;
                }
                ++hits;
                return now + hitExtra;
            }
        }
        ++misses;
        return handleMiss(block, is_write, now);
    }

    bool
    wouldHit(Addr pa)
    {
        Addr block = pa / lineBytes;
        for (const Line &line : set(block))
            if (line.valid && line.tag == block)
                return true;
        return false;
    }

    Cycle
    prefetch(Addr pa, Cycle now)
    {
        if (wouldHit(pa))
            return now;
        Cycle done = access(pa, false, now);
        Addr block = pa / lineBytes;
        for (Line &line : set(block)) {
            if (line.valid && line.tag == block) {
                line.prefetched = true;
                break;
            }
        }
        return done;
    }

    Cache::PrefetchHit
    consumePrefetched(Addr pa, Cycle now)
    {
        Addr block = pa / lineBytes;
        for (Line &line : set(block)) {
            if (!line.valid || line.tag != block || !line.prefetched)
                continue;
            line.prefetched = false;
            auto it = outstanding.find(block);
            return it != outstanding.end() && it->second > now
                       ? Cache::PrefetchHit::Late
                       : Cache::PrefetchHit::Ready;
        }
        return Cache::PrefetchHit::None;
    }

    void
    warmInstall(Addr pa, bool dirty)
    {
        Addr block = pa / lineBytes;
        ++useCounter;
        std::span<Line> ways = set(block);
        Line *victim = &ways[0];
        for (Line &line : ways) {
            if (line.valid && line.tag == block) {
                line.lastUse = useCounter;
                line.dirty = line.dirty || dirty;
                return;
            }
            if (!line.valid)
                victim = &line;
            else if (victim->valid && line.lastUse < victim->lastUse)
                victim = &line;
        }
        victim->valid = true;
        victim->tag = block;
        victim->dirty = dirty;
        // The one deliberate departure from the old model, which left
        // the evicted line's prefetch tag on the installed block
        // (Cache.WarmInstallDropsTheVictimsPrefetchTag).
        victim->prefetched = false;
        victim->lastUse = useCounter;
    }

    void settleTiming() { outstanding.clear(); }

    uint64_t hits = 0, misses = 0, writebacks = 0, mshrMerges = 0,
             mshrFullStalls = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false, dirty = false, prefetched = false;
        uint64_t lastUse = 0;
    };

    std::span<Line>
    set(Addr block)
    {
        return {&lines[size_t(block % numSets) * assoc], assoc};
    }

    Cycle
    handleMiss(Addr block, bool is_write, Cycle now)
    {
        for (auto it = outstanding.begin(); it != outstanding.end();) {
            if (it->second <= now)
                it = outstanding.erase(it);
            else
                ++it;
        }
        if (auto it = outstanding.find(block); it != outstanding.end()) {
            ++mshrMerges;
            return it->second;
        }
        Cycle start = now;
        if (maxMisses && outstanding.size() >= maxMisses) {
            ++mshrFullStalls;
            Cycle earliest = MaxCycle;
            for (const auto &[_, done] : outstanding)
                earliest = std::min(earliest, done);
            start = std::max(start, earliest);
        }
        Cycle lookup_done = start + hitExtra;
        Cycle below = next ? next->access(block * lineBytes, false,
                                          lookup_done)
                           : lookup_done + memLatency;
        Cycle data_ready = (bus ? bus->acquire(below) : below) + fillExtra;
        outstanding[block] = data_ready;

        std::span<Line> ways = set(block);
        Line *victim = &ways[0];
        for (Line &line : ways) {
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (line.lastUse < victim->lastUse)
                victim = &line;
        }
        if (victim->valid && victim->dirty) {
            ++writebacks;
            if (bus)
                bus->acquire(data_ready);
        }
        victim->valid = true;
        victim->tag = block;
        victim->dirty = is_write;
        victim->prefetched = false;
        victim->lastUse = useCounter;
        return data_ready;
    }

    unsigned lineBytes, assoc;
    size_t numSets;
    unsigned hitExtra, fillExtra, maxMisses;
    Bus *bus;
    RefCache *next;
    unsigned memLatency;
    std::vector<Line> lines;
    uint64_t useCounter = 0;
    std::map<Addr, Cycle> outstanding;
};

/** Cache and bus geometry of one differential run (sizes in KB). */
struct DiffGeometry
{
    unsigned l1Kb, l1Assoc, l1Line, l2Kb, l2Assoc, l2Line, l2Latency,
        memLatency;
};

/** Two L1s over a shared bus to an L2, as MemHierarchy wires them,
 *  beside the same shape built from RefCache. */
struct DiffHarness
{
    stats::StatGroup root{"root"};
    Bus l1l2{"l1l2Bus", 2, &root}, l2mem{"l2MemBus", 11, &root};
    Bus refL1l2{"refL1l2Bus", 2, &root}, refL2mem{"refL2MemBus", 11, &root};
    Cache l2, l1i, l1d;
    RefCache refL2, refL1i, refL1d;

    DiffHarness(const DiffGeometry &g, unsigned max_misses)
        : l2("l2", g.l2Kb, g.l2Assoc, g.l2Line, g.l2Latency, 1, max_misses,
             &l2mem, nullptr, g.memLatency, &root),
          l1i("l1i", g.l1Kb, g.l1Assoc, g.l1Line, 0, 1, max_misses, &l1l2,
              &l2, 0, &root),
          l1d("l1d", g.l1Kb, g.l1Assoc, g.l1Line, 0, 1, max_misses, &l1l2,
              &l2, 0, &root),
          refL2(g.l2Kb, g.l2Assoc, g.l2Line, g.l2Latency, 1, max_misses,
                &refL2mem, nullptr, g.memLatency),
          refL1i(g.l1Kb, g.l1Assoc, g.l1Line, 0, 1, max_misses, &refL1l2,
                 &refL2, 0),
          refL1d(g.l1Kb, g.l1Assoc, g.l1Line, 0, 1, max_misses, &refL1l2,
                 &refL2, 0)
    {}

    /** First stat (or bus) of any level that differs, or empty. */
    std::string
    statMismatch() const
    {
        std::ostringstream os;
        auto check = [&](const char *level, const Cache &c,
                         const RefCache &r) {
            auto one = [&](const char *name, const stats::Scalar &got,
                           uint64_t want) {
                if (got.value() != double(want) && os.tellp() == 0)
                    os << level << "." << name << " " << got.value()
                       << " != " << want;
            };
            one("hits", c.hits, r.hits);
            one("misses", c.misses, r.misses);
            one("writebacks", c.writebacks, r.writebacks);
            one("mshrMerges", c.mshrMerges, r.mshrMerges);
            one("mshrFullStalls", c.mshrFullStalls, r.mshrFullStalls);
        };
        check("l1i", l1i, refL1i);
        check("l1d", l1d, refL1d);
        check("l2", l2, refL2);
        if (os.tellp() == 0 &&
            (l1l2.freeAtCycle() != refL1l2.freeAtCycle() ||
             l2mem.freeAtCycle() != refL2mem.freeAtCycle() ||
             l1l2.waitCycles.value() != refL1l2.waitCycles.value() ||
             l2mem.waitCycles.value() != refL2mem.waitCycles.value()))
            os << "bus timing differs";
        return os.str();
    }
};

/**
 * A seeded stream of demand accesses, prefetches, prefetch
 * consumption, warm installs and timing settles. The L1s see a
 * monotonic clock, the L2 also direct accesses up to 150 cycles either
 * side of it, so its misses retire out of order. Most addresses come
 * from a small hot pool (hits, hit-under-fill, secondary misses); the
 * rest sweep a range many times the L2, so lines are evicted while
 * their fills are still in flight and then re-accessed.
 */
void
runDifferential(const DiffGeometry &g, unsigned max_misses,
                uint64_t seed)
{
    DiffHarness h(g, max_misses);
    std::mt19937_64 rng(seed);
    auto pick = [&](uint64_t n) { return rng() % n; };

    const Addr wide = Addr(g.l2Kb) * 1024 * 8;
    std::vector<Addr> hot;
    for (int i = 0; i < 24; ++i)
        hot.push_back(pick(wide) & ~Addr(7));
    auto addr = [&] {
        return pick(10) < 6 ? hot[pick(hot.size())] + pick(g.l1Line)
                            : pick(wide);
    };

    Cycle now = 0;
    for (int step = 0; step < 100000; ++step) {
        SCOPED_TRACE("step " + std::to_string(step) + " at cycle " +
                     std::to_string(now));
        unsigned op = unsigned(pick(1000));
        Addr pa = addr();
        if (op < 600) {
            bool write = pick(10) < 3;
            ASSERT_EQ(h.l1d.access(pa, write, now),
                      h.refL1d.access(pa, write, now));
        } else if (op < 700) {
            ASSERT_EQ(h.l1i.access(pa, false, now),
                      h.refL1i.access(pa, false, now));
        } else if (op < 750) {
            // Straight to the L2, earlier or later than the L1 clock,
            // as the misses of an L1 with a full MSHR file arrive.
            Cycle when = now + pick(300);
            when = when > 150 ? when - 150 : 0;
            bool write = pick(10) < 3;
            ASSERT_EQ(h.l2.access(pa, write, when),
                      h.refL2.access(pa, write, when));
        } else if (op < 800) {
            ASSERT_EQ(h.l1d.wouldHit(pa), h.refL1d.wouldHit(pa));
            ASSERT_EQ(h.l1i.wouldHit(pa), h.refL1i.wouldHit(pa));
            ASSERT_EQ(h.l2.wouldHit(pa), h.refL2.wouldHit(pa));
        } else if (op < 880) {
            ASSERT_EQ(h.l1d.prefetch(pa, now), h.refL1d.prefetch(pa, now));
        } else if (op < 980) {
            // Mostly the hot pool, so prefetched lines get consumed.
            pa = hot[pick(hot.size())];
            ASSERT_EQ(h.l1d.consumePrefetched(pa, now),
                      h.refL1d.consumePrefetched(pa, now));
        } else if (op < 995) {
            bool dirty = pick(2);
            if (pick(2)) {
                h.l1d.warmInstall(pa, dirty);
                h.refL1d.warmInstall(pa, dirty);
            } else {
                h.l2.warmInstall(pa, dirty);
                h.refL2.warmInstall(pa, dirty);
            }
        } else {
            for (Cache *c : {&h.l1i, &h.l1d, &h.l2})
                c->settleTiming();
            for (RefCache *r : {&h.refL1i, &h.refL1d, &h.refL2})
                r->settleTiming();
            for (Bus *b : {&h.l1l2, &h.l2mem, &h.refL1l2, &h.refL2mem})
                b->resetTiming();
        }
        ASSERT_EQ(h.statMismatch(), "");

        // Mostly back-to-back, sometimes long enough for fills to land.
        unsigned gap = unsigned(pick(100));
        now += gap < 40 ? 0 : gap < 90 ? gap % 4 : gap * 3;
    }
    // The stream must have reached the paths it exists to compare.
    EXPECT_GT(h.l1d.mshrMerges.value(), 0.0);
    EXPECT_GT(h.l1d.writebacks.value(), 0.0);
    if (max_misses < 64) {
        EXPECT_GT(h.l1d.mshrFullStalls.value() + h.l2.mshrFullStalls.value(),
                  0.0);
    }
}

TEST(Cache, MatchesMapBasedMshrModel)
{
    const DiffGeometry geometries[] = {
        {1, 2, 32, 4, 4, 64, 6, 80}, // Table 1 shape, shrunk
        {1, 1, 16, 2, 2, 32, 3, 40}, // direct-mapped L1, short memory
    };
    uint64_t seed = 1;
    for (const DiffGeometry &g : geometries) {
        for (unsigned max_misses : {1u, 4u, 64u}) {
            SCOPED_TRACE("L1 " + std::to_string(g.l1Kb) + "KB/" +
                         std::to_string(g.l1Assoc) + "-way/" +
                         std::to_string(g.l1Line) + "B, maxMisses " +
                         std::to_string(max_misses));
            runDifferential(g, max_misses, seed++);
        }
    }
}

} // anonymous namespace
