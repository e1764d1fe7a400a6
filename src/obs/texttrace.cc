#include "obs/texttrace.hh"

#include <iterator>
#include <sstream>

#include "common/logging.hh"

namespace zmt::obs
{

const char *
traceCategory(EventKind kind)
{
    static const char *const perInst[] = {
        "fetch", "dispatch", "issue", "complete", "retire", "squash"};
    static_assert(std::size(perInst) == size_t(EventKind::MissDetect));
    if (kind < EventKind::MissDetect)
        return perInst[size_t(kind)];
    if (kind < EventKind::HelperPrefetch)
        return "exc";
    return "helper";
}

KindMask
parseTraceCategories(const std::string &csv)
{
    KindMask mask = 0;
    std::istringstream stream(csv);
    std::string token;
    while (std::getline(stream, token, ',')) {
        if (token.empty())
            continue;
        const bool all = token == "all";
        bool found = all;
        for (unsigned k = 0; k < unsigned(EventKind::NumKinds); ++k) {
            if (all || token == traceCategory(EventKind(k))) {
                mask |= KindMask(1) << k;
                found = true;
            }
        }
        fatal_if(!found, "unknown trace category '%s'", token.c_str());
    }
    return mask;
}

TextTrace::TextTrace(const std::string &categories, FILE *out)
    : selected(parseTraceCategories(categories)), out(out)
{}

void
TextTrace::onEvent(const Event &ev)
{
    if (!((selected >> unsigned(ev.kind)) & 1))
        return;
    std::fprintf(out, "%llu: %s: t%d %s seq=%llu arg=%llu\n",
                 (unsigned long long)ev.cycle, traceCategory(ev.kind),
                 int(ev.tid), eventKindName(ev.kind),
                 (unsigned long long)ev.seq, (unsigned long long)ev.arg);
}

} // namespace zmt::obs
