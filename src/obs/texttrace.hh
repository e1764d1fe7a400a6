/**
 * @file
 * TextTrace: the `--trace=` exporter (obs.trace). A filtered EventSink
 * that prints each selected event as it is emitted, one line each:
 *
 *     <cycle>: <category>: t<tid> <kind> seq=<seq> arg=<arg>
 *
 * (tid -1 marks thread-less events such as hardware-walk completions;
 * seq and arg are decimal, arg as event.hh defines it per kind).
 * Streaming rather than reading the ring keeps the trace unbounded by
 * ring capacity and complete up to a panic or watchdog abort.
 *
 * Categories: one per per-instruction kind (fetch, dispatch, issue,
 * complete, retire, squash), `exc` for the exception-lifecycle group
 * (MissDetect ... WalkAbort), `helper` for the helper micro-services,
 * and `all`. Every EventKind belongs to exactly one category.
 */

#ifndef ZMT_OBS_TEXTTRACE_HH
#define ZMT_OBS_TEXTTRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/event.hh"

namespace zmt::obs
{

/** The trace category @p kind belongs to. */
const char *traceCategory(EventKind kind);

/** Bit k set = EventKind k selected. */
using KindMask = uint32_t;
static_assert(unsigned(EventKind::NumKinds) <= 32);

/** Kinds selected by a comma-separated category list ("exc,retire",
 *  "all"). Fatal on an unknown name. */
KindMask parseTraceCategories(const std::string &csv);

class TextTrace : public EventSink
{
  public:
    /** @param categories  as parseTraceCategories() takes them */
    explicit TextTrace(const std::string &categories, FILE *out = stderr);

    void onEvent(const Event &ev) override;

  private:
    KindMask selected;
    FILE *out;
};

} // namespace zmt::obs

#endif // ZMT_OBS_TEXTTRACE_HH
