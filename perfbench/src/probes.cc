/**
 * @file
 * Component probes and the fast-forward prefix check. The probes time
 * one layer's hot call on a stream drawn from the workload seed and the
 * workload's own address space and text, so a change to that layer's
 * code moves its *_ns figure even when the end-to-end time is too noisy
 * to show it.
 */

#include <algorithm>
#include <sstream>

#include "bpred/bpred.hh"
#include "common/random.hh"
#include "isa/decodecache.hh"
#include "kernel/ffwd.hh"
#include "kernel/funcmachine.hh"
#include "mem/hierarchy.hh"
#include "perfbench.hh"
#include "tlb/tlb.hh"

namespace perfbench
{

using namespace zmt;

namespace
{

constexpr size_t StreamLen = size_t(1) << 16;
constexpr int TimedPasses = 7;

// Keeps probe results observable so the timed loops are not removed.
volatile uint64_t sink;

/** ns per operation: one untimed warm-up pass, then the median of
 *  TimedPasses passes over the @p ops-long stream. */
template <typename Pass>
double
nsPerOp(size_t ops, Pass pass)
{
    sink = pass();
    std::vector<double> ns;
    for (int p = 0; p < TimedPasses; ++p) {
        auto start = Clock::now();
        sink = pass();
        ns.push_back(secondsSince(start) * 1e9 / double(ops));
    }
    return median(ns);
}

struct Access
{
    unsigned proc;
    Addr va;
    Addr pa;
    bool write;
};

/** Data accesses in the workloads' proportions: mostly the hot region,
 *  a fraction to random far pages (the TLB-miss source). */
std::vector<Access>
accessStream(Simulator &sim, const std::vector<WorkloadParams> &wls,
             Rng &rng)
{
    std::vector<Access> stream;
    stream.reserve(StreamLen);
    while (stream.size() < StreamLen) {
        unsigned p = unsigned(rng.below(wls.size()));
        const WorkloadParams &wp = wls[p];
        bool far = rng.below(16) == 0;
        Addr va = far ? wp.farBase + rng.below(wp.farPages()) * PageBytes +
                            rng.below(PageBytes / 8) * 8
                      : wp.hotBase + rng.below(wp.hotBytes() / 8) * 8;
        auto pa = sim.process(p).space().translate(va);
        if (!pa)
            continue;
        stream.push_back({p, va, *pa, rng.below(4) == 0});
    }
    return stream;
}

} // anonymous namespace

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void
runComponentProbes(const std::vector<WorkloadParams> &wls, uint64_t seed,
                   Metrics &out)
{
    SimParams params;
    Simulator sim(params, wls);
    Rng rng(seed ^ 0x5bd1e9955bd1e995ULL);
    std::vector<Access> stream = accessStream(sim, wls, rng);

    out["translate_ns"] = nsPerOp(stream.size(), [&] {
        uint64_t acc = 0;
        for (const Access &a : stream)
            acc += *sim.process(a.proc).space().translate(a.va);
        return acc;
    });

    out["physmem.read_ns"] = nsPerOp(stream.size(), [&] {
        uint64_t acc = 0;
        for (const Access &a : stream)
            acc += sim.mem().read(a.pa, 8);
        return acc;
    });

    stats::StatGroup root("probe");
    Tlb tlb(params.tlb.dtlbEntries, &root);
    out["tlb.lookup_ns"] = nsPerOp(stream.size(), [&] {
        uint64_t hits = 0;
        for (const Access &a : stream) {
            Asn asn = Asn(a.proc + 1);
            if (tlb.lookup(asn, a.va))
                ++hits;
            else
                tlb.insert(asn, a.va);
        }
        return hits;
    });

    // Each access starts when the previous one completes, so the miss
    // queue stays as short as the core keeps it (a free-running clock
    // would pile up bus backlog the core never sees).
    MemHierarchy mem(params.mem, &root);
    Cycle now = 0;
    out["cache.access_ns"] = nsPerOp(stream.size(), [&] {
        for (const Access &a : stream)
            now = mem.dataAccess(a.pa, a.write, now) + 1;
        return now;
    });

    // Text: every workload's words, and its branches with their PCs.
    std::vector<isa::InstWord> words;
    struct Branch
    {
        ThreadID tid;
        Addr pc;
        isa::DecodedInst di;
        bool taken;
    };
    std::vector<Branch> branchSites;
    std::vector<double> buildMs;
    for (int round = 0; round < 5; ++round) {
        auto start = Clock::now();
        for (const WorkloadParams &wp : wls)
            sink = buildWorkload(wp).text.words.size();
        buildMs.push_back(secondsSince(start) * 1e3);
    }
    out["wload.build_ms"] = median(buildMs);
    for (size_t i = 0; i < wls.size(); ++i) {
        ProcessImage image = buildWorkload(wls[i]);
        const isa::Program &text = image.text;
        for (size_t w = 0; w < text.words.size(); ++w) {
            words.push_back(text.words[w]);
            isa::DecodedInst di = isa::decode(text.words[w]);
            if (di.valid() && di.info->isBranch)
                branchSites.push_back(
                    {ThreadID(i), text.base + w * 4, di, false});
        }
    }

    std::vector<isa::InstWord> wordStream(StreamLen);
    for (auto &w : wordStream)
        w = words[rng.below(words.size())];
    isa::DecodeCache decodeCache;
    out["decode.lookup_ns"] = nsPerOp(wordStream.size(), [&] {
        uint64_t acc = 0;
        for (isa::InstWord w : wordStream)
            acc += uint64_t(decodeCache.lookup(w).op);
        return acc;
    });

    std::vector<Branch> branches(StreamLen);
    for (auto &b : branches) {
        b = branchSites[rng.below(branchSites.size())];
        b.taken = rng.below(4) != 0;
    }
    BranchPredictor bpred(params.bpred, unsigned(wls.size()), &root);
    // A prediction is always followed by its retirement update in the
    // core, so the pair is the unit timed here.
    out["bpred.predict_ns"] = nsPerOp(branches.size(), [&] {
        uint64_t acc = 0;
        for (const Branch &b : branches) {
            BpredResult r = bpred.predict(b.tid, b.pc, b.di);
            acc += r.taken;
            Addr target = b.taken ? b.pc + 4 + 4 * Addr(b.di.imm) : 0;
            bpred.update(b.tid, b.pc, b.di, b.taken, target, r.checkpoint);
        }
        return acc;
    });
    out["bpred.snapshot_ns"] = nsPerOp(branches.size(), [&] {
        uint64_t acc = 0;
        for (const Branch &b : branches)
            acc += bpred.snapshot(b.tid).history;
        return acc;
    });
}

void
runFfwdPrefixCheck(const std::vector<WorkloadParams> &wls, Tracer &tracer,
                   Metrics *out, Report &report)
{
    constexpr uint64_t Prefix = 2'000'000;
    double fastS = 0.0, stepS = 0.0;
    uint64_t fastInsts = 0, stepInsts = 0;
    std::vector<std::string> seen;
    for (const WorkloadParams &wp : wls) {
        if (std::find(seen.begin(), seen.end(), wp.name) != seen.end())
            continue;
        seen.push_back(wp.name);
        SimParams params;
        Simulator fastSim(params, std::vector<WorkloadParams>{wp});
        Simulator stepSim(params, std::vector<WorkloadParams>{wp});
        FuncMachine fast(fastSim.process(0), fastSim.mem());
        FuncMachine ref(stepSim.process(0), stepSim.mem());
        SuperblockCache blocks;

        auto start = Clock::now();
        {
            Scope span(tracer, "kernel.ffwd", -1);
            fastInsts += fast.runFast(Prefix, blocks);
        }
        fastS += secondsSince(start);

        start = Clock::now();
        {
            Scope span(tracer, "kernel.step", -1);
            for (uint64_t i = 0; i < Prefix && ref.step(); ++i)
                ++stepInsts;
        }
        stepS += secondsSince(start);

        ++report.attempted;
        const ArchState &a = fast.state();
        const ArchState &b = ref.state();
        bool same = fast.executed() == ref.executed() &&
                    fast.executed() == Prefix &&
                    fast.storeHash() == ref.storeHash() &&
                    a.intRegs == b.intRegs && a.fpRegs == b.fpRegs &&
                    a.privRegs == b.privRegs && a.pc == b.pc &&
                    a.palMode == b.palMode;
        if (!same) {
            ++report.failed;
            std::ostringstream os;
            os << "ffwd prefix on " << wp.name << ": runFast executed "
               << fast.executed() << " hash " << fast.storeHash()
               << ", step executed " << ref.executed() << " hash "
               << ref.storeHash();
            report.failures.push_back(os.str());
        }
    }
    if (out) {
        (*out)["ffwd.mips"] = double(fastInsts) / fastS / 1e6;
        (*out)["ffwd.step_mips"] = double(stepInsts) / stepS / 1e6;
    }
}

} // namespace perfbench
