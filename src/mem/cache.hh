/**
 * @file
 * Set-associative write-back write-allocate cache with LRU replacement
 * and MSHR-style miss tracking, modeled in latency-oracle style: an
 * access returns the cycle its data is available, accounting for bus
 * occupancy, next-level latency, and merging into outstanding misses.
 * This matches the granularity of the paper's SimpleScalar-derived
 * model (no writeback-port modeling, unlimited fill bandwidth).
 *
 * A fill's data-ready cycle lives on the line it installs, so a hit
 * (and hit-under-fill) needs no lookup beyond the set's tags; the MSHR
 * file is a small unordered vector that only misses touch.
 */

#ifndef ZMT_MEM_CACHE_HH
#define ZMT_MEM_CACHE_HH

#include <vector>

#include "common/types.hh"
#include "mem/bus.hh"
#include "stats/stats.hh"

namespace zmt
{

/** One level of the hierarchy. */
class Cache : public stats::StatGroup
{
  public:
    /**
     * @param name        stat name
     * @param size_kb     total capacity
     * @param assoc       associativity
     * @param line_bytes  block size
     * @param hit_extra   cycles added on a hit beyond the port latency
     * @param fill_extra  cycles from next-level data to ready (fill)
     * @param max_misses  outstanding-miss limit (0 = unlimited)
     * @param bus         bus toward the next level (nullptr for none)
     * @param next        next cache level (nullptr: bus leads to memory)
     * @param mem_latency memory latency when next == nullptr
     */
    Cache(std::string name, unsigned size_kb, unsigned assoc,
          unsigned line_bytes, unsigned hit_extra, unsigned fill_extra,
          unsigned max_misses, Bus *bus, Cache *next, unsigned mem_latency,
          stats::StatGroup *parent);

    /**
     * Access the block containing pa.
     * @param pa       physical address
     * @param is_write store (marks the block dirty)
     * @param now      cycle the access starts
     * @return cycle the data is available
     */
    Cycle access(Addr pa, bool is_write, Cycle now);

    /** Probe without side effects: would this access hit right now? */
    bool wouldHit(Addr pa) const;

    /** How a prefetched line covered a demand access. */
    enum class PrefetchHit
    {
        None,  //!< line absent or not brought in by a prefetch
        Ready, //!< prefetch fully arrived before the demand access
        Late,  //!< prefetch still in flight (partial latency hiding)
    };

    /**
     * Helper-issued prefetch: a normal read access whose installed
     * line is tagged prefetched so consumePrefetched() can attribute
     * the first demand use. Shares buses, MSHRs and replacement with
     * demand traffic.
     * @return cycle the prefetched data arrives
     */
    Cycle prefetch(Addr pa, Cycle now);

    /**
     * Classify (and consume) the prefetched tag on the line holding
     * pa: the first demand access to a prefetched line reports Ready
     * or Late (still in flight at @p now) exactly once.
     */
    PrefetchHit consumePrefetched(Addr pa, Cycle now);

    /**
     * Checkpoint-restore install: make the block containing pa resident
     * as if it had been long resident — no stats, no writeback traffic,
     * no bus occupancy. Evicted victims vanish silently. Replay these
     * oldest-first so LRU order matches the recorded access order.
     */
    void warmInstall(Addr pa, bool dirty);

    /** Invalidate everything (used by tests). */
    void flush();

    /**
     * Drop in-flight miss timing but keep contents: used after warm-up
     * so pre-loaded lines behave as long-resident (checkpoint style).
     */
    void settleTiming();

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar writebacks;
    stats::Scalar mshrMerges;
    stats::Scalar mshrFullStalls;
    stats::Formula missRate;

  private:
    /**
     * One way of a set. The block number and the three state flags
     * share one word, which keeps a line at 24 bytes: simulated
     * physical addresses stay below 2^48 (SmtCore::fakePa's region is
     * the highest), so a block number never reaches the flag bits.
     */
    struct Line
    {
        static constexpr Addr Valid = Addr{1} << 63;
        static constexpr Addr Dirty = Addr{1} << 62;
        /** Installed by a helper prefetch, not yet demand-used. */
        static constexpr Addr Prefetched = Addr{1} << 61;
        static constexpr Addr Flags = Valid | Dirty | Prefetched;

        Addr word = 0;        //!< block number | Valid | Dirty | Prefetched
        uint64_t lastUse = 0; //!< LRU timestamp
        /** Data-ready cycle of the fill that installed the block while
         *  its MSHR entry lives; 0 once the entry retires. */
        Cycle readyAt = 0;

        bool valid() const { return word & Valid; }
        bool holds(Addr block) const
        {
            return (word & ~(Dirty | Prefetched)) == (block | Valid);
        }
    };
    static_assert(sizeof(Line) == 24, "a cache line is 24 bytes");

    /** An outstanding miss (MSHR entry). */
    struct Miss
    {
        Addr block;
        Cycle readyAt;
    };

    Addr blockAddr(Addr pa) const { return pa >> lineShift; }
    Line *set(Addr block) { return &lines[(block & setMask) * assoc]; }
    const Line *
    set(Addr block) const
    {
        return &lines[(block & setMask) * assoc];
    }
    /** The way holding @p block, or null. */
    Line *find(Addr block);

    /** Handle a miss: allocate, possibly write back, fetch from below. */
    Cycle handleMiss(Addr block, bool is_write, Cycle now);

    unsigned lineShift;
    unsigned assoc;
    Addr setMask = 0;
    unsigned hitExtra;
    unsigned fillExtra;
    unsigned maxMisses;
    Bus *bus;
    Cache *next;
    unsigned memLatency;

    std::vector<Line> lines; //!< numSets * assoc, set-major
    uint64_t useCounter = 0;

    /** Outstanding misses, unordered. Entries of blocks evicted while
     *  in flight stay until they retire, so a re-access merges. */
    std::vector<Miss> outstanding;
};

} // namespace zmt

#endif // ZMT_MEM_CACHE_HH
