/**
 * @file
 * Typed pipeline/exception events — the vocabulary of the
 * observability subsystem. An Event is a POD stamped by the core's
 * stage hooks; consumers (the ring buffer for pipeline viewers, the
 * ExcTimeline analyzer for penalty attribution, the TextTrace stream)
 * interpret the kind-specific `arg` field per the table below.
 *
 * This header is a leaf: it depends only on common/types.hh so the
 * core can include it without layering cycles.
 */

#ifndef ZMT_OBS_EVENT_HH
#define ZMT_OBS_EVENT_HH

#include <cstdint>

#include "common/types.hh"

namespace zmt::obs
{

/**
 * Event kinds. Per-instruction pipeline events carry the
 * instruction's seq/tid/pc; exception-lifecycle events carry the
 * thread they happen on plus a kind-specific argument:
 *
 *   MissDetect      tid=app thread, seq=excepting inst, arg=vpn
 *   EmulDetect      tid=app thread, seq=excepting inst
 *   Trap            tid=app thread (inline handler starts), arg=vpn
 *   Spawn           tid=master,  arg=handler thread id
 *   Fallback        tid=master (no idle context -> traditional)
 *   QsWarm/QsCold   tid=handler (quick-start buffer state at spawn)
 *   Fill            tid=filling thread, arg=va (TLBWR) or 0 (EMULWR)
 *   Park/Wake       tid=waiter,  seq=waiter, arg=vpn
 *   Relink          tid=handler, seq=new (older) excepting inst
 *   DeadlockSquash  tid=master,  arg=window slots needed
 *   Revert          tid=handler, arg=master thread id (HARDEXC)
 *   Cancel          tid=handler, arg=master thread id (record squashed)
 *   SpliceOpen      tid=master,  arg=handler thread id
 *   SpliceClose     tid=handler (RFE retired, context released)
 *   HandlerRet      tid=app thread (inline RFE executed; refetch starts)
 *   WalkStart       tid=app thread, seq=excepting inst, arg=walkKey
 *   WalkDone        arg=walkKey (fill installed by the FSM walker)
 *   WalkAbort       arg=walkKey (walk finished squashed or PTE invalid)
 *   HelperPrefetch  tid=service ctx, arg=probes issued this cycle
 *   HelperWatch     tid=accessing thread, seq=inst, arg=va (watchpoint)
 *   HelperRace      tid=accessing thread, seq=inst, arg=va (HB race)
 */
enum class EventKind : uint8_t
{
    // Per-instruction pipeline progress.
    Fetched,
    Dispatched,
    Issued,
    Completed,
    Retired,
    Squashed,

    // Exception lifecycle.
    MissDetect,
    EmulDetect,
    Trap,
    Spawn,
    Fallback,
    QsWarm,
    QsCold,
    Fill,
    Park,
    Wake,
    Relink,
    DeadlockSquash,
    Revert,
    Cancel,
    SpliceOpen,
    SpliceClose,
    HandlerRet,
    WalkStart,
    WalkDone,
    WalkAbort,

    // Helper micro-services.
    HelperPrefetch,
    HelperWatch,
    HelperRace,

    NumKinds,
};

const char *eventKindName(EventKind kind);

/** Event::flags bits. */
enum EventFlags : uint8_t
{
    EvPalMode = 1u << 0, //!< instruction fetched in PAL mode
    EvPrefill = 1u << 1, //!< quick-start prefill (bypassed fetch pipe)
    EvEmul = 1u << 2,    //!< instruction-emulation exception (vs TLB miss)
};

/** One observed occurrence. 32 bytes, trivially copyable. */
struct Event
{
    Cycle cycle = 0;
    SeqNum seq = 0;
    uint64_t arg = 0;
    ThreadID tid = InvalidThreadID;
    EventKind kind = EventKind::Fetched;
    uint8_t flags = 0;
};

static_assert(sizeof(Event) <= 32, "keep Event cheap to copy");

/** Online consumer of events (the ExcTimeline analyzer, TextTrace). */
class EventSink
{
  public:
    virtual ~EventSink() = default;
    virtual void onEvent(const Event &ev) = 0;
};

} // namespace zmt::obs

#endif // ZMT_OBS_EVENT_HH
