#include "config/params.hh"

#include <cstdio>
#include <sstream>

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

uint64_t
parseU64(const std::string &key, const std::string &value)
{
    try {
        size_t pos = 0;
        uint64_t v = std::stoull(value, &pos, 0);
        fatal_if(pos != value.size(), "trailing junk in value for %s: '%s'",
                 key.c_str(), value.c_str());
        return v;
    } catch (const std::exception &) {
        fatal("bad numeric value for %s: '%s'", key.c_str(), value.c_str());
        return 0;
    }
}

double
parseDouble(const std::string &key, const std::string &value)
{
    try {
        size_t pos = 0;
        double v = std::stod(value, &pos);
        fatal_if(pos != value.size(), "trailing junk in value for %s: '%s'",
                 key.c_str(), value.c_str());
        return v;
    } catch (const std::exception &) {
        fatal("bad numeric value for %s: '%s'", key.c_str(), value.c_str());
        return 0.0;
    }
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

} // anonymous namespace

void
SimParams::set(const std::string &key, const std::string &value)
{
    auto u = [&] { return parseU64(key, value); };
    auto b = [&] { return parseBool(key, value); };

    if (key == "core.width") { core.setWidth(unsigned(u())); return; }
    if (key == "core.windowSize") { core.windowSize = unsigned(u()); return; }
    if (key == "core.frontendDepth") {
        core.setFrontendDepth(unsigned(u()));
        return;
    }
    if (key == "core.fetchDepth") { core.fetchDepth = unsigned(u()); return; }
    if (key == "core.regReadDepth") {
        core.regReadDepth = unsigned(u());
        return;
    }
    if (key == "core.fetchBufEntries") {
        core.fetchBufEntries = unsigned(u());
        return;
    }
    if (key == "core.lsPortCount") { core.lsPortCount = unsigned(u()); return; }
    if (key == "core.idleSkip") { core.idleSkip = b(); return; }

    if (key == "mem.l1dSizeKb") { mem.l1dSizeKb = unsigned(u()); return; }
    if (key == "mem.l2SizeKb") { mem.l2SizeKb = unsigned(u()); return; }
    if (key == "mem.memLatency") { mem.memLatency = unsigned(u()); return; }
    if (key == "mem.maxOutstandingMisses") {
        mem.maxOutstandingMisses = unsigned(u());
        return;
    }

    if (key == "tlb.dtlbEntries") { tlb.dtlbEntries = unsigned(u()); return; }

    if (key == "except.mech") { except.mech = parseMech(value); return; }
    if (key == "except.idleThreads") {
        except.idleThreads = unsigned(u());
        return;
    }
    if (key == "except.windowReservation") {
        except.windowReservation = b();
        return;
    }
    if (key == "except.handlerFetchPriority") {
        except.handlerFetchPriority = b();
        return;
    }
    if (key == "except.relinkSecondaryMiss") {
        except.relinkSecondaryMiss = b();
        return;
    }
    if (key == "except.deadlockSquash") { except.deadlockSquash = b(); return; }
    if (key == "except.emulateFsqrt") {
        except.emulateFsqrt = b();
        return;
    }
    if (key == "except.quickStartWarmup") {
        except.quickStartWarmup = unsigned(u());
        return;
    }
    if (key == "except.freeHandlerExecBw") {
        except.freeHandlerExecBw = b();
        return;
    }
    if (key == "except.freeHandlerWindow") {
        except.freeHandlerWindow = b();
        return;
    }
    if (key == "except.freeHandlerFetchBw") {
        except.freeHandlerFetchBw = b();
        return;
    }
    if (key == "except.instantHandlerFetch") {
        except.instantHandlerFetch = b();
        return;
    }

    auto d = [&] { return parseDouble(key, value); };
    if (key == "verify.invariantPeriod") {
        verify.invariantPeriod = unsigned(u());
        return;
    }
    if (key == "verify.seed") { verify.seed = u(); return; }
    if (key == "verify.badPteProb") { verify.badPteProb = d(); return; }
    if (key == "verify.stealIdleProb") { verify.stealIdleProb = d(); return; }
    if (key == "verify.forceSecondaryMissProb") {
        verify.forceSecondaryMissProb = d();
        return;
    }
    if (key == "verify.squeezePeriod") {
        verify.squeezePeriod = unsigned(u());
        return;
    }
    if (key == "verify.squeezeDuration") {
        verify.squeezeDuration = unsigned(u());
        return;
    }
    if (key == "verify.squeezeWindowTo") {
        verify.squeezeWindowTo = unsigned(u());
        return;
    }
    if (key == "verify.handlerSquashPeriod") {
        verify.handlerSquashPeriod = unsigned(u());
        return;
    }
    if (key == "verify.mutateSpliceBug") { verify.mutateSpliceBug = b(); return; }
    if (key == "verify.panicAtCycle") { verify.panicAtCycle = u(); return; }

    if (key == "helper.prefetch") { helper.prefetch = b(); return; }
    if (key == "helper.prefetchDegree") {
        helper.prefetchDegree = unsigned(u());
        return;
    }
    if (key == "helper.prefetchDistance") {
        helper.prefetchDistance = unsigned(u());
        return;
    }
    if (key == "helper.prefetchTableSize") {
        helper.prefetchTableSize = unsigned(u());
        return;
    }
    if (key == "helper.prefetchQueue") {
        helper.prefetchQueue = unsigned(u());
        return;
    }
    if (key == "helper.checker") { helper.checker = b(); return; }
    if (key == "helper.checkBase") { helper.checkBase = u(); return; }
    if (key == "helper.checkLen") { helper.checkLen = u(); return; }
    if (key == "helper.watchBase") { helper.watchBase = u(); return; }
    if (key == "helper.watchLen") { helper.watchLen = u(); return; }
    if (key == "helper.syncBase") { helper.syncBase = u(); return; }
    if (key == "helper.syncLen") { helper.syncLen = u(); return; }
    if (key == "helper.traceCap") { helper.traceCap = unsigned(u()); return; }

    if (key == "obs.pipeview") { obs.pipeview = value; return; }
    if (key == "obs.events") { obs.events = value; return; }
    if (key == "obs.attrib") { obs.attrib = b(); return; }
    if (key == "obs.ringCapacity") {
        obs.ringCapacity = unsigned(u());
        return;
    }
    if (key == "obs.trace") { obs.trace = value; return; }

    if (key == "ffwd.insts") { ffwd.insts = u(); return; }
    if (key == "ffwd.warm") { ffwd.warm = b(); return; }
    if (key == "ffwd.save") { ffwd.save = value; return; }
    if (key == "ffwd.restore") { ffwd.restore = value; return; }

    if (key == "sample.period") { sample.periodInsts = u(); return; }
    if (key == "sample.detail") { sample.detailInsts = u(); return; }
    if (key == "sample.warmup") { sample.warmupInsts = u(); return; }

    if (key == "maxInsts") { maxInsts = u(); return; }
    if (key == "warmupInsts") { warmupInsts = u(); return; }
    if (key == "seed") { seed = u(); return; }
    if (key == "watchdogCycles") { watchdogCycles = u(); return; }

    fatal("unknown parameter '%s'", key.c_str());
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
    auto u = [&](const char *name, uint64_t v) {
        fn(name, std::to_string(v));
    };
    auto b = [&](const char *name, bool v) { fn(name, v ? "1" : "0"); };
    auto d = [&](const char *name, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        fn(name, buf);
    };

    // Every field of every sub-struct, in declaration order. The
    // baseline cache keys on this list: omitting a field here would
    // silently alias configurations that simulate differently (the
    // pre-sweep baselineKey() bug), so keep it exhaustive.
    u("core.width", core.width);
    u("core.windowSize", core.windowSize);
    u("core.fetchDepth", core.fetchDepth);
    u("core.decodeDepth", core.decodeDepth);
    u("core.schedDepth", core.schedDepth);
    u("core.regReadDepth", core.regReadDepth);
    u("core.fetchBufEntries", core.fetchBufEntries);
    u("core.intAluCount", core.intAluCount);
    u("core.intMulCount", core.intMulCount);
    u("core.fpAddCount", core.fpAddCount);
    u("core.fpDivCount", core.fpDivCount);
    u("core.lsPortCount", core.lsPortCount);
    b("core.idleSkip", core.idleSkip);

    u("mem.l1iSizeKb", mem.l1iSizeKb);
    u("mem.l1iAssoc", mem.l1iAssoc);
    u("mem.l1iLineBytes", mem.l1iLineBytes);
    u("mem.l1dSizeKb", mem.l1dSizeKb);
    u("mem.l1dAssoc", mem.l1dAssoc);
    u("mem.l1dLineBytes", mem.l1dLineBytes);
    u("mem.l2SizeKb", mem.l2SizeKb);
    u("mem.l2Assoc", mem.l2Assoc);
    u("mem.l2LineBytes", mem.l2LineBytes);
    u("mem.l2Latency", mem.l2Latency);
    u("mem.maxOutstandingMisses", mem.maxOutstandingMisses);
    u("mem.l1l2BusCyclesPerBlock", mem.l1l2BusCyclesPerBlock);
    u("mem.l2MemBusCycles", mem.l2MemBusCycles);
    u("mem.memLatency", mem.memLatency);

    u("tlb.dtlbEntries", tlb.dtlbEntries);

    u("bpred.yagsChoiceBits", bpred.yagsChoiceBits);
    u("bpred.yagsExcBits", bpred.yagsExcBits);
    u("bpred.yagsTagBits", bpred.yagsTagBits);
    u("bpred.indirectBtbBits", bpred.indirectBtbBits);
    u("bpred.indirectExcBits", bpred.indirectExcBits);
    u("bpred.rasEntries", bpred.rasEntries);
    u("bpred.historyBits", bpred.historyBits);

    fn("except.mech", mechName(except.mech));
    u("except.idleThreads", except.idleThreads);
    b("except.windowReservation", except.windowReservation);
    b("except.handlerFetchPriority", except.handlerFetchPriority);
    b("except.relinkSecondaryMiss", except.relinkSecondaryMiss);
    b("except.deadlockSquash", except.deadlockSquash);
    u("except.quickStartWarmup", except.quickStartWarmup);
    b("except.emulateFsqrt", except.emulateFsqrt);
    b("except.freeHandlerExecBw", except.freeHandlerExecBw);
    b("except.freeHandlerWindow", except.freeHandlerWindow);
    b("except.freeHandlerFetchBw", except.freeHandlerFetchBw);
    b("except.instantHandlerFetch", except.instantHandlerFetch);

    u("verify.invariantPeriod", verify.invariantPeriod);
    u("verify.seed", verify.seed);
    d("verify.badPteProb", verify.badPteProb);
    d("verify.stealIdleProb", verify.stealIdleProb);
    d("verify.forceSecondaryMissProb", verify.forceSecondaryMissProb);
    u("verify.squeezePeriod", verify.squeezePeriod);
    u("verify.squeezeDuration", verify.squeezeDuration);
    u("verify.squeezeWindowTo", verify.squeezeWindowTo);
    u("verify.handlerSquashPeriod", verify.handlerSquashPeriod);
    b("verify.mutateSpliceBug", verify.mutateSpliceBug);
    u("verify.panicAtCycle", verify.panicAtCycle);

    b("helper.prefetch", helper.prefetch);
    u("helper.prefetchDegree", helper.prefetchDegree);
    u("helper.prefetchDistance", helper.prefetchDistance);
    u("helper.prefetchTableSize", helper.prefetchTableSize);
    u("helper.prefetchQueue", helper.prefetchQueue);
    b("helper.checker", helper.checker);
    u("helper.checkBase", helper.checkBase);
    u("helper.checkLen", helper.checkLen);
    u("helper.watchBase", helper.watchBase);
    u("helper.watchLen", helper.watchLen);
    u("helper.syncBase", helper.syncBase);
    u("helper.syncLen", helper.syncLen);
    u("helper.traceCap", helper.traceCap);

    // Observability never changes simulated behavior, but the field
    // list stays exhaustive per the contract above; experiment.cc
    // clears obs on its perfect-TLB baseline copy so baseline sharing
    // is unaffected by per-run trace paths.
    fn("obs.pipeview", obs.pipeview);
    fn("obs.events", obs.events);
    b("obs.attrib", obs.attrib);
    u("obs.ringCapacity", obs.ringCapacity);
    fn("obs.trace", obs.trace);

    // Fast-forward and sampling change which instructions the detailed
    // core measures, so they are simulation-relevant; ffwd.save is a
    // pure output path, but the exhaustive-list contract keeps it here
    // (experiment.cc clears it on the baseline copy, like obs).
    u("ffwd.insts", ffwd.insts);
    b("ffwd.warm", ffwd.warm);
    fn("ffwd.save", ffwd.save);
    fn("ffwd.restore", ffwd.restore);
    u("sample.period", sample.periodInsts);
    u("sample.detail", sample.detailInsts);
    u("sample.warmup", sample.warmupInsts);

    u("maxInsts", maxInsts);
    u("warmupInsts", warmupInsts);
    u("seed", seed);
    u("watchdogCycles", watchdogCycles);
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
        os << " verify[seed=" << (verify.seed ? verify.seed : seed)
           << (verify.anyInjection() ? " inject" : "")
           << (verify.invariantPeriod ? " audit" : "") << "]";
    return os.str();
}

} // namespace zmt
