#include "config/params.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/decimal.hh"
#include "common/logging.hh"

namespace zmt
{

const char *
mechName(ExceptMech mech)
{
    switch (mech) {
      case ExceptMech::PerfectTlb:    return "perfect";
      case ExceptMech::Traditional:   return "traditional";
      case ExceptMech::Multithreaded: return "multithreaded";
      case ExceptMech::QuickStart:    return "quickstart";
      case ExceptMech::Hardware:      return "hardware";
    }
    return "?";
}

ExceptMech
parseMech(const std::string &name)
{
    if (name == "perfect" || name == "perfecttlb")
        return ExceptMech::PerfectTlb;
    if (name == "traditional" || name == "trap")
        return ExceptMech::Traditional;
    if (name == "multithreaded" || name == "mt")
        return ExceptMech::Multithreaded;
    if (name == "quickstart" || name == "qs")
        return ExceptMech::QuickStart;
    if (name == "hardware" || name == "hw")
        return ExceptMech::Hardware;
    fatal("unknown exception mechanism '%s' (expected one of: "
          "perfect|perfecttlb, traditional|trap, multithreaded|mt, "
          "quickstart|qs, hardware|hw)",
          name.c_str());
    return ExceptMech::Traditional;
}

void
CoreParams::setFrontendDepth(unsigned stages)
{
    // stages = fetch + decode + schedule + regread.
    fatal_if(stages < 3, "frontend depth must be at least 3 stages");
    if (stages == 3) {
        // Minimum machine: 1-cycle fetch, merged decode/schedule,
        // 1-cycle register read.
        fetchDepth = 1;
        decodeDepth = 1;
        schedDepth = 0;
        regReadDepth = 1;
        return;
    }
    decodeDepth = 1;
    schedDepth = 1;
    // Split the remaining stages between fetch and register read with
    // the paper's nominal 3:2 proportion (7 stages -> 3 fetch, 2 read).
    unsigned remaining = stages - 2; // minus decode and schedule
    regReadDepth = remaining * 2 / 5;
    if (regReadDepth == 0)
        regReadDepth = 1;
    fetchDepth = remaining - regReadDepth;
    if (fetchDepth == 0) {
        fetchDepth = 1;
        regReadDepth = remaining - 1;
    }
}

void
CoreParams::setWidth(unsigned w)
{
    fatal_if(w == 0, "zero width");
    width = w;
    // Figure 3 pairs width with window size: 2/32, 4/64, 8/128. Scale
    // the FU pool in proportion to the 8-wide Table 1 machine.
    windowSize = w * 16;
    intAluCount = w;
    intMulCount = (w * 3 + 7) / 8;
    fpAddCount = (w * 3 + 7) / 8;
    fpDivCount = 1;
    lsPortCount = (w * 3 + 7) / 8;
}

namespace
{

/**
 * The one field list of SimParams: every field of every sub-struct in
 * declaration order, each under its dotted name. set() parses into it,
 * forEachParam() prints from it, and cellKey() (the baseline cache,
 * the bench grid, the campaign journal) keys on what it prints, so
 * omitting a field here would silently alias configurations that
 * simulate differently. Adding a parameter to SimParams means adding
 * one line here.
 */
template <typename Params, typename Visitor>
void
visitFields(Params &p, Visitor &&v)
{
    v("core.width", p.core.width);
    v("core.windowSize", p.core.windowSize);
    v("core.fetchDepth", p.core.fetchDepth);
    v("core.decodeDepth", p.core.decodeDepth);
    v("core.schedDepth", p.core.schedDepth);
    v("core.regReadDepth", p.core.regReadDepth);
    v("core.fetchBufEntries", p.core.fetchBufEntries);
    v("core.intAluCount", p.core.intAluCount);
    v("core.intMulCount", p.core.intMulCount);
    v("core.fpAddCount", p.core.fpAddCount);
    v("core.fpDivCount", p.core.fpDivCount);
    v("core.lsPortCount", p.core.lsPortCount);

    v("mem.l1iSizeKb", p.mem.l1iSizeKb);
    v("mem.l1iAssoc", p.mem.l1iAssoc);
    v("mem.l1iLineBytes", p.mem.l1iLineBytes);
    v("mem.l1dSizeKb", p.mem.l1dSizeKb);
    v("mem.l1dAssoc", p.mem.l1dAssoc);
    v("mem.l1dLineBytes", p.mem.l1dLineBytes);
    v("mem.l2SizeKb", p.mem.l2SizeKb);
    v("mem.l2Assoc", p.mem.l2Assoc);
    v("mem.l2LineBytes", p.mem.l2LineBytes);
    v("mem.l2Latency", p.mem.l2Latency);
    v("mem.maxOutstandingMisses", p.mem.maxOutstandingMisses);
    v("mem.l1l2BusCyclesPerBlock", p.mem.l1l2BusCyclesPerBlock);
    v("mem.l2MemBusCycles", p.mem.l2MemBusCycles);
    v("mem.memLatency", p.mem.memLatency);

    v("tlb.dtlbEntries", p.tlb.dtlbEntries);

    v("bpred.yagsChoiceBits", p.bpred.yagsChoiceBits);
    v("bpred.yagsExcBits", p.bpred.yagsExcBits);
    v("bpred.yagsTagBits", p.bpred.yagsTagBits);
    v("bpred.indirectBtbBits", p.bpred.indirectBtbBits);
    v("bpred.indirectExcBits", p.bpred.indirectExcBits);
    v("bpred.rasEntries", p.bpred.rasEntries);
    v("bpred.historyBits", p.bpred.historyBits);

    v("except.mech", p.except.mech);
    v("except.idleThreads", p.except.idleThreads);
    v("except.windowReservation", p.except.windowReservation);
    v("except.handlerFetchPriority", p.except.handlerFetchPriority);
    v("except.relinkSecondaryMiss", p.except.relinkSecondaryMiss);
    v("except.deadlockSquash", p.except.deadlockSquash);
    v("except.quickStartWarmup", p.except.quickStartWarmup);
    v("except.emulateFsqrt", p.except.emulateFsqrt);
    v("except.freeHandlerExecBw", p.except.freeHandlerExecBw);
    v("except.freeHandlerWindow", p.except.freeHandlerWindow);
    v("except.freeHandlerFetchBw", p.except.freeHandlerFetchBw);
    v("except.instantHandlerFetch", p.except.instantHandlerFetch);

    v("verify.invariantPeriod", p.verify.invariantPeriod);
    v("verify.seed", p.verify.seed);
    v("verify.badPteProb", p.verify.badPteProb);
    v("verify.stealIdleProb", p.verify.stealIdleProb);
    v("verify.forceSecondaryMissProb", p.verify.forceSecondaryMissProb);
    v("verify.squeezePeriod", p.verify.squeezePeriod);
    v("verify.squeezeDuration", p.verify.squeezeDuration);
    v("verify.squeezeWindowTo", p.verify.squeezeWindowTo);
    v("verify.handlerSquashPeriod", p.verify.handlerSquashPeriod);
    v("verify.mutateSpliceBug", p.verify.mutateSpliceBug);
    v("verify.panicAtCycle", p.verify.panicAtCycle);

    v("helper.prefetch", p.helper.prefetch);
    v("helper.prefetchDegree", p.helper.prefetchDegree);
    v("helper.prefetchDistance", p.helper.prefetchDistance);
    v("helper.prefetchTableSize", p.helper.prefetchTableSize);
    v("helper.prefetchQueue", p.helper.prefetchQueue);
    v("helper.checker", p.helper.checker);
    v("helper.checkBase", p.helper.checkBase);
    v("helper.checkLen", p.helper.checkLen);
    v("helper.watchBase", p.helper.watchBase);
    v("helper.watchLen", p.helper.watchLen);
    v("helper.syncBase", p.helper.syncBase);
    v("helper.syncLen", p.helper.syncLen);
    v("helper.traceCap", p.helper.traceCap);

    // Observability never changes simulated behavior, but the list
    // stays exhaustive; experiment.cc clears obs on its perfect-TLB
    // baseline copy so baseline sharing is unaffected by per-run trace
    // paths.
    v("obs.pipeview", p.obs.pipeview);
    v("obs.events", p.obs.events);
    v("obs.attrib", p.obs.attrib);
    v("obs.ringCapacity", p.obs.ringCapacity);
    v("obs.trace", p.obs.trace);

    // Fast-forward and sampling change which instructions the detailed
    // core measures, so they are simulation-relevant; ffwd.save is a
    // pure output path, but the list stays exhaustive (experiment.cc
    // clears it on the baseline copy, like obs).
    v("ffwd.insts", p.ffwd.insts);
    v("ffwd.warm", p.ffwd.warm);
    v("ffwd.save", p.ffwd.save);
    v("ffwd.restore", p.ffwd.restore);
    v("sample.period", p.sample.periodInsts);
    v("sample.detail", p.sample.detailInsts);
    v("sample.warmup", p.sample.warmupInsts);

    v("maxInsts", p.maxInsts);
    v("warmupInsts", p.warmupInsts);
    v("watchdogCycles", p.watchdogCycles);
}

/** A decimal integer no larger than @p max (common/decimal.hh). */
uint64_t
parseU64(const std::string &key, const std::string &value, uint64_t max)
{
    std::optional<uint64_t> v = parseDecimal(value, max);
    fatal_if(!v, "bad numeric value for %s: '%s'", key.c_str(),
             value.c_str());
    return *v;
}

unsigned
parseUnsigned(const std::string &key, const std::string &value)
{
    return unsigned(
        parseU64(key, value, std::numeric_limits<unsigned>::max()));
}

/**
 * A probability: a finite decimal or scientific-notation number in
 * [0, 1], no blanks, no hex. Every double field is one (verify.*Prob).
 */
double
parseProbability(const std::string &key, const std::string &value)
{
    double v = 0.0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, v,
                                     std::chars_format::general);
    fatal_if(ec != std::errc() || ptr != end || !std::isfinite(v) ||
                 v < 0.0 || v > 1.0,
             "bad numeric value for %s: '%s'", key.c_str(), value.c_str());
    return v;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "off" || value == "no")
        return false;
    fatal("bad boolean value for %s: '%s'", key.c_str(), value.c_str());
    return false;
}

template <typename T>
void
parseField(const std::string &key, const std::string &value, T &field)
{
    if constexpr (std::is_same_v<T, bool>)
        field = parseBool(key, value);
    else if constexpr (std::is_integral_v<T>)
        field = T(parseU64(key, value, std::numeric_limits<T>::max()));
    else if constexpr (std::is_same_v<T, double>)
        field = parseProbability(key, value);
    else if constexpr (std::is_same_v<T, std::string>)
        field = value;
    else
        field = parseMech(value); // the one enum field, except.mech
}

template <typename T>
std::string
formatField(const T &field)
{
    if constexpr (std::is_same_v<T, double>) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", field);
        return buf;
    } else if constexpr (std::is_same_v<T, bool>) {
        return field ? "1" : "0";
    } else if constexpr (std::is_same_v<T, std::string>) {
        return field;
    } else if constexpr (std::is_same_v<T, ExceptMech>) {
        return mechName(field);
    } else {
        return std::to_string(field);
    }
}

} // anonymous namespace

void
SimParams::set(const std::string &key, const std::string &value)
{
    // The Figure 2/3 sweep helpers: core.width also pairs the window
    // and FU pool (printed after it, so a replay of forEachParam keeps
    // any non-paired value), and core.frontendDepth is not a field.
    if (key == "core.width") {
        core.setWidth(parseUnsigned(key, value));
        return;
    }
    if (key == "core.frontendDepth") {
        core.setFrontendDepth(parseUnsigned(key, value));
        return;
    }
    bool found = false;
    visitFields(*this, [&](const char *name, auto &field) {
        if (!found && key == name) {
            parseField(key, value, field);
            found = true;
        }
    });
    fatal_if(!found, "unknown parameter '%s'", key.c_str());
}

void
SimParams::setKeyValue(const std::string &assignment)
{
    auto eq = assignment.find('=');
    fatal_if(eq == std::string::npos, "expected key=value, got '%s'",
             assignment.c_str());
    set(assignment.substr(0, eq), assignment.substr(eq + 1));
}

void
SimParams::forEachParam(
    const std::function<void(const std::string &,
                             const std::string &)> &fn) const
{
    visitFields(*this, [&](const char *name, const auto &field) {
        fn(name, formatField(field));
    });
}

std::string
SimParams::canonicalKey() const
{
    std::ostringstream os;
    forEachParam([&](const std::string &name, const std::string &value) {
        os << name << "=" << value << ";";
    });
    return os.str();
}

std::string
SimParams::summary() const
{
    std::ostringstream os;
    os << mechName(except.mech)
       << " width=" << core.width
       << " window=" << core.windowSize
       << " frontend=" << core.frontendDepth()
       << " dtlb=" << tlb.dtlbEntries;
    if (except.usesHandlerThread())
        os << " idle=" << except.idleThreads;
    if (verify.enabled())
        os << " verify[seed=" << verify.seed
           << (verify.anyInjection() ? " inject" : "")
           << (verify.invariantPeriod ? " audit" : "") << "]";
    return os.str();
}

} // namespace zmt
