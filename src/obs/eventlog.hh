/**
 * @file
 * EventLog: the collection point for pipeline/exception events. Two
 * kinds of consumer with different needs hang off it:
 *
 *  - online EventSinks (the ExcTimeline analyzer, the TextTrace
 *    exporter), which see *every* event in emission order —
 *    attribution and the text trace never suffer from ring overflow;
 *  - a bounded ring buffer retaining the most recent events for the
 *    pipeline-trace exporters (Konata), plus a seq -> disassembly map
 *    populated only when a pipeline view was requested and pruned as
 *    the ring evicts.
 *
 * The log is per-core (sweep workers each own one), so no
 * synchronization is needed. When observability is disabled the core
 * holds a null EventLog pointer and every hook is one predictable
 * branch.
 */

#ifndef ZMT_OBS_EVENTLOG_HH
#define ZMT_OBS_EVENTLOG_HH

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/event.hh"

namespace zmt::obs
{

class EventLog
{
  public:
    /**
     * @param ring_capacity  events retained for exporters (rounded up
     *                       to a power of two; 0 keeps no ring, for
     *                       attribution-only runs)
     * @param want_labels    keep per-seq disassembly for the pipeline
     *                       view (costs a string per live instruction)
     */
    explicit EventLog(size_t ring_capacity, bool want_labels = false);

    /** Record one event: forward to the sinks, then ring-buffer it. */
    void
    emit(const Event &ev)
    {
        ++emitted;
        for (EventSink *sink : sinks)
            sink->onEvent(ev);
        if (capacity == 0)
            return;
        if (ring.size() < capacity) {
            ring.push_back(ev);
        } else {
            evict(ring[head]);
            ring[head] = ev;
            head = (head + 1) & (capacity - 1);
            ++dropped;
        }
    }

    /** Add a sink; sinks see each event in attach order. */
    void attachSink(EventSink *s) { sinks.push_back(s); }

    bool wantLabels() const { return keepLabels; }

    /** Remember an instruction's disassembly for the pipeline view. */
    void
    setLabel(SeqNum seq, std::string label)
    {
        if (keepLabels)
            labels[seq] = std::move(label);
    }

    const std::string *label(SeqNum seq) const;

    /** Visit retained events, oldest first. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (size_t i = 0; i < ring.size(); ++i)
            fn(ring[(head + i) & (capacity - 1)]);
    }

    size_t size() const { return ring.size(); }
    uint64_t totalEmitted() const { return emitted; }
    uint64_t totalDropped() const { return dropped; }

  private:
    /** A ring slot is being overwritten: drop state keyed to it. */
    void evict(const Event &ev);

    std::vector<EventSink *> sinks;
    std::vector<Event> ring;
    size_t capacity;      //!< power of two (0 = no ring)
    size_t head = 0;      //!< oldest element once the ring is full
    uint64_t emitted = 0;
    uint64_t dropped = 0;

    bool keepLabels;
    std::unordered_map<SeqNum, std::string> labels;
};

} // namespace zmt::obs

#endif // ZMT_OBS_EVENTLOG_HH
