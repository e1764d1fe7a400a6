/**
 * @file
 * Completion events on a timing wheel: one bucket per cycle over a
 * power-of-two horizon, each bucket holding its instructions in push
 * order. Every latency is at least one cycle and every cycle ticks, so
 * a bucket only ever holds events of one cycle and draining the
 * current cycle's bucket in push order gives the earliest-cycle-first,
 * FIFO-within-a-cycle order. An event beyond the horizon doubles it
 * and re-slots the buckets; a push to a cycle already drained, or a
 * drain that skips a cycle, panics.
 */

#ifndef ZMT_CORE_COMPLETIONQ_HH
#define ZMT_CORE_COMPLETIONQ_HH

#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/dyninst.hh"

namespace zmt
{

/** Timing wheel of (cycle, instruction) completion events. */
class CompletionQueue
{
  public:
    /** Schedule @p inst to complete at cycle @p at (not yet drained). */
    void
    push(Cycle at, InstPtr inst)
    {
        panic_if(at < next, "completion at cycle %llu, already drained "
                 "through %llu", (unsigned long long)at,
                 (unsigned long long)next - 1);
        if (at - next >= buckets.size())
            grow(at);
        bucket(at).push_back(std::move(inst));
    }

    /**
     * Hand the events of cycle @p now to @p complete in push order,
     * dropping each after its call; one pushed for @p now meanwhile
     * comes last. Cycles are drained one by one, in order.
     */
    template <class Complete>
    void
    drain(Cycle now, Complete complete)
    {
        panic_if(now != next, "draining cycle %llu, expected %llu",
                 (unsigned long long)now, (unsigned long long)next);
        // Indexed, and the bucket looked up again each time: a push
        // from complete() may grow and re-slot the wheel.
        for (size_t i = 0; i < bucket(now).size(); ++i) {
            InstPtr inst = std::move(bucket(now)[i]);
            complete(inst);
        }
        bucket(now).clear();
        ++next;
    }

    size_t
    size() const
    {
        size_t pending = 0;
        for (const auto &bucket : buckets)
            pending += bucket.size();
        return pending;
    }

    size_t horizon() const { return buckets.size(); }

    /** Visit every pending instruction, in no particular order. */
    template <class Visit>
    void
    forEach(Visit visit) const
    {
        for (const auto &bucket : buckets)
            for (const InstPtr &inst : bucket)
                visit(inst);
    }

    /** Drop every pending event (the drained-through cycle stays). */
    void
    clear()
    {
        for (auto &bucket : buckets)
            bucket.clear();
    }

  private:
    std::vector<InstPtr> &
    bucket(Cycle at)
    {
        return buckets[at & (buckets.size() - 1)];
    }

    /** Double the horizon until @p at fits, re-slotting the buckets:
     *  each holds one cycle in [next, next + old horizon). */
    void
    grow(Cycle at)
    {
        size_t old_size = buckets.size(), size = old_size;
        while (at - next >= size)
            size *= 2;
        std::vector<std::vector<InstPtr>> wider(size);
        for (Cycle c = next; c < next + old_size; ++c)
            wider[c & (size - 1)] = std::move(buckets[c & (old_size - 1)]);
        buckets = std::move(wider);
    }

    /** Power-of-two count; 256 covers Table 1 latencies. */
    std::vector<std::vector<InstPtr>> buckets =
        std::vector<std::vector<InstPtr>>(256);
    Cycle next = 0; //!< the next cycle drain() takes

    friend class CoreTestAccess;
};

} // namespace zmt

#endif // ZMT_CORE_COMPLETIONQ_HH
