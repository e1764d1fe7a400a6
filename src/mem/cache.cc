#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace zmt
{

Cache::Cache(std::string name, unsigned size_kb, unsigned assoc,
             unsigned line_bytes, unsigned hit_extra, unsigned fill_extra,
             unsigned max_misses, Bus *bus, Cache *next,
             unsigned mem_latency, stats::StatGroup *parent)
    : stats::StatGroup(std::move(name), parent),
      hits(this, "hits", "accesses that hit"),
      misses(this, "misses", "accesses that missed"),
      writebacks(this, "writebacks", "dirty blocks written back"),
      mshrMerges(this, "mshrMerges", "misses merged into outstanding"),
      mshrFullStalls(this, "mshrFullStalls",
                     "misses delayed by a full MSHR file"),
      missRate(this, "missRate", "miss rate",
               [this] {
                   double total = hits.value() + misses.value();
                   return total > 0 ? misses.value() / total : 0.0;
               }),
      lineShift(unsigned(std::countr_zero(line_bytes))),
      assoc(assoc),
      hitExtra(hit_extra),
      fillExtra(fill_extra),
      maxMisses(max_misses),
      bus(bus),
      next(next),
      memLatency(mem_latency)
{
    // Blocks and sets are found by shift and mask.
    fatal_if(!std::has_single_bit(line_bytes),
             "line size must be a power of two");
    size_t num_sets = assoc ? size_t(size_kb) * 1024 / line_bytes / assoc
                            : 0;
    fatal_if(num_sets == 0, "cache too small for its geometry");
    fatal_if(!std::has_single_bit(num_sets),
             "number of sets must be a power of two");
    setMask = num_sets - 1;
    lines.assign(num_sets * assoc, Line{});
}

Cache::Line *
Cache::find(Addr block)
{
    Line *ways = set(block);
    for (unsigned way = 0; way < assoc; ++way)
        if (ways[way].holds(block))
            return &ways[way];
    return nullptr;
}

bool
Cache::wouldHit(Addr pa) const
{
    Addr block = blockAddr(pa);
    const Line *ways = set(block);
    for (unsigned way = 0; way < assoc; ++way)
        if (ways[way].holds(block))
            return true;
    return false;
}

void
Cache::flush()
{
    lines.assign(lines.size(), Line{});
    outstanding.clear();
}

void
Cache::settleTiming()
{
    outstanding.clear();
    for (Line &line : lines)
        line.readyAt = 0;
}

void
Cache::warmInstall(Addr pa, bool dirty)
{
    Addr block = blockAddr(pa);
    // Restored addresses may come from a checkpoint file.
    panic_if(block & Line::Flags, "block %#llx overlaps the line flags",
             (unsigned long long)block);
    ++useCounter;

    Line *ways = set(block);
    Line *victim = ways;
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = ways[way];
        if (line.holds(block)) {
            line.lastUse = useCounter;
            if (dirty)
                line.word |= Line::Dirty;
            return;
        }
        if (!line.valid()) {
            victim = &line;
        } else if (victim->valid() && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    // The victim is replaced whole (its prefetch tag too). A fill of
    // this block evicted while in flight still times it, as its MSHR
    // entry does until it retires.
    Cycle ready = 0;
    for (const Miss &miss : outstanding)
        if (miss.block == block)
            ready = miss.readyAt;
    *victim = Line{block | Line::Valid | (dirty ? Line::Dirty : 0),
                   useCounter, ready};
}

Cycle
Cache::access(Addr pa, bool is_write, Cycle now)
{
    Addr block = blockAddr(pa);
    ++useCounter;

    if (Line *line = find(block)) {
        line->lastUse = useCounter;
        if (is_write)
            line->word |= Line::Dirty;
        // Hit under fill: the tag was installed when the miss was
        // issued, but the data may still be in flight — the access
        // completes no earlier than the outstanding fill.
        if (line->readyAt > now) {
            ++mshrMerges;
            return line->readyAt + hitExtra;
        }
        ++hits;
        return now + hitExtra;
    }

    ++misses;
    return handleMiss(block, is_write, now);
}

Cycle
Cache::handleMiss(Addr block, bool is_write, Cycle now)
{
    // One pass over the MSHRs retires the completed misses (a line
    // they filled forgets its fill cycle), finds a secondary miss to
    // the same block, and takes the earliest completion still pending.
    Cycle merge = 0, earliest = MaxCycle;
    for (size_t i = 0; i < outstanding.size();) {
        Miss &miss = outstanding[i];
        if (miss.readyAt <= now) {
            if (Line *line = find(miss.block))
                line->readyAt = 0;
            miss = outstanding.back();
            outstanding.pop_back();
            continue;
        }
        if (miss.block == block)
            merge = miss.readyAt;
        earliest = std::min(earliest, miss.readyAt);
        ++i;
    }

    // Secondary miss: merge with the in-flight fetch of the same block
    // (its line was evicted before the data arrived).
    if (merge) {
        ++mshrMerges;
        return merge;
    }

    // All MSHRs busy: the request waits for the earliest completion.
    Cycle start = now;
    if (maxMisses && outstanding.size() >= maxMisses) {
        ++mshrFullStalls;
        start = std::max(start, earliest);
    }

    // Fetch from below. The request propagates immediately (it is tiny
    // and piggybacks on the address lines); the *data return* transfer
    // occupies the bus for its occupancy window. The tag lookup that
    // detects the miss costs hitExtra up front.
    Cycle lookup_done = start + hitExtra;
    Cycle below = next ? next->access(block << lineShift, false, lookup_done)
                       : lookup_done + memLatency;
    Cycle data_ready = bus ? bus->acquire(below) : below;
    data_ready += fillExtra;

    outstanding.push_back(Miss{block, data_ready});

    // Victim selection and fill (state change is immediate; the timing
    // is carried by the returned cycle — oracle-style).
    Line *ways = set(block);
    Line *victim = ways;
    for (unsigned way = 0; way < assoc; ++way) {
        Line &line = ways[way];
        if (!line.valid()) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    if ((victim->word & (Line::Valid | Line::Dirty)) ==
        (Line::Valid | Line::Dirty)) {
        ++writebacks;
        // The writeback consumes a bus slot toward the next level.
        if (bus)
            bus->acquire(data_ready);
    }
    *victim = Line{block | Line::Valid | (is_write ? Line::Dirty : 0),
                   useCounter, data_ready};

    return data_ready;
}

Cycle
Cache::prefetch(Addr pa, Cycle now)
{
    if (wouldHit(pa))
        return now; // resident (possibly in flight); nothing to tag
    Cycle done = access(pa, false, now);
    if (Line *line = find(blockAddr(pa)))
        line->word |= Line::Prefetched;
    return done;
}

Cache::PrefetchHit
Cache::consumePrefetched(Addr pa, Cycle now)
{
    Line *line = find(blockAddr(pa));
    if (!line || !(line->word & Line::Prefetched))
        return PrefetchHit::None;
    line->word &= ~Line::Prefetched;
    return line->readyAt > now ? PrefetchHit::Late : PrefetchHit::Ready;
}

} // namespace zmt
