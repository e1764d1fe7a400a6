/**
 * @file
 * Calibrated parameter presets for the paper's eight benchmarks
 * (Table 2). The calibration targets are each benchmark's data-TLB
 * misses per instruction (Table 2: misses per 100M instructions) and
 * approximate base IPC (Table 4), plus qualitative character: FP
 * content (applu, hydro2d), pointer chasing (deltablue), wrong-path
 * far loads (gcc), wide integer ILP (vortex, murphi, alphadoom).
 * Also the workload key: canonicalKey() and parseWorkloadKey() print
 * and read one field list, so a key round-trips exactly.
 */

#include "wload/workload.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"

namespace zmt
{

namespace
{

WorkloadParams
base(const std::string &name, uint64_t seed_salt)
{
    WorkloadParams p;
    p.name = name;
    p.seed = 0x243f6a8885a308d3ULL ^ (seed_salt * 0x9e3779b97f4a7c15ULL);
    return p;
}

} // anonymous namespace

WorkloadParams
benchmarkParams(const std::string &name)
{
    // X-windows first-person shooter: wide, predictable integer code,
    // very few TLB misses (11k / 100M).
    if (name == "alphadoom" || name == "adm") {
        WorkloadParams p = base("alphadoom", 1);
        p.aluChains = 4;
        p.aluOpsPerChain = 4;
        p.hotLoads = 1;
        p.hotStores = 1;
        p.farLoadsPerOuter = 1;
        p.innerIters = 120;
        p.farPagesLog2 = 7;
        p.serialMuls = 2;
        return p;
    }
    // PDE solver (SpecFP): FP pipelines, moderate ILP (16k / 100M).
    if (name == "applu" || name == "apl") {
        WorkloadParams p = base("applu", 2);
        p.aluChains = 2;
        p.aluOpsPerChain = 2;
        p.fpChains = 2;
        p.fpOpsPerChain = 4;
        p.hotLoads = 3;
        p.hotStores = 1;
        p.serialMuls = 2;
        p.farLoadsPerOuter = 1;
        p.innerIters = 116;
        p.farPagesLog2 = 7;
        return p;
    }
    // Lempel-Ziv compression: dependent integer work over a large
    // table — by far the highest TLB miss rate (230k / 100M).
    if (name == "compress" || name == "cmp") {
        WorkloadParams p = base("compress", 3);
        p.aluChains = 6;
        p.aluOpsPerChain = 3;
        p.hotLoads = 2;
        p.hotStores = 1;
        p.serialMuls = 2;
        p.randomBranches = 1;
        p.farLoadsPerOuter = 1;
        p.innerIters = 8;
        p.farPagesLog2 = 8;
        return p;
    }
    // Object-oriented constraint solver: pointer chasing (16k / 100M).
    if (name == "deltablue" || name == "dbl") {
        WorkloadParams p = base("deltablue", 4);
        p.aluChains = 6;
        p.aluOpsPerChain = 3;
        p.chaseLoads = 2;
        p.hotLoads = 2;
        p.hotStores = 1;
        p.hotBytesLog2 = 17; // 128 KB node pool: L1-straining chases
        p.farLoadsPerOuter = 1;
        p.innerIters = 143;
        p.farPagesLog2 = 7;
        p.farFeedsChase = true;
        return p;
    }
    // Optimizing compiler: mispredictable branches whose wrong paths
    // perform far-page loads — speculative TLB misses and cache
    // pollution (the paper's gcc anomaly; 14k / 100M retired misses).
    if (name == "gcc") {
        WorkloadParams p = base("gcc", 5);
        p.aluChains = 2;
        p.aluOpsPerChain = 2;
        p.hotLoads = 2;
        p.hotStores = 1;
        p.randomBranches = 0;
        p.indirectFarJumps = 1;
        p.farLoadsPerOuter = 1;
        p.innerIters = 100;
        p.farPagesLog2 = 7;
        p.hotBytesLog2 = 17; // 128 KB
        p.ifjFarMask = 63;
        p.serialMuls = 2;
        return p;
    }
    // Astrophysics Navier-Stokes solver: long-latency FP divides and a
    // large working set — the lowest IPC (23k / 100M).
    if (name == "hydro2d" || name == "h2d") {
        WorkloadParams p = base("hydro2d", 6);
        p.aluChains = 2;
        p.aluOpsPerChain = 1;
        p.fpChains = 2;
        p.fpOpsPerChain = 5;
        p.useFpDiv = true;
        p.serialMuls = 0;
        p.hotLoads = 4;
        p.hotStores = 2;
        p.hotBytesLog2 = 18; // 256 KB: lives in L2, misses L1
        p.farLoadsPerOuter = 1;
        p.innerIters = 82;
        p.farPagesLog2 = 7;
        return p;
    }
    // State-space exploration: integer-heavy, good ILP (36k / 100M).
    if (name == "murphi" || name == "mph") {
        WorkloadParams p = base("murphi", 7);
        p.aluChains = 8;
        p.aluOpsPerChain = 5;
        p.hotLoads = 1;
        p.hotStores = 1;
        p.randomBranches = 1;
        p.farLoadsPerOuter = 1;
        p.innerIters = 37;
        p.farPagesLog2 = 8;
        return p;
    }
    // OO transactional database: the widest ILP and second-highest
    // miss rate (86k / 100M).
    if (name == "vortex" || name == "vor") {
        WorkloadParams p = base("vortex", 8);
        p.aluChains = 8;
        p.aluOpsPerChain = 6;
        p.hotLoads = 2;
        p.hotStores = 1;
        p.farLoadsPerOuter = 1;
        p.innerIters = 13;
        p.farPagesLog2 = 8;
        return p;
    }
    // Shared-memory stress for the checker helper (not one of the
    // paper's eight; excluded from benchmarkNames()). Run two copies in
    // a mix: with the default sliceCount=0 both roam the whole shared
    // region (races by construction); setting sliceCount=2 and distinct
    // sliceIndex values makes the accesses disjoint (race-free).
    if (name == "racetest") {
        WorkloadParams p = base("racetest", 9);
        p.aluChains = 4;
        p.aluOpsPerChain = 2;
        p.hotLoads = 1;
        p.hotStores = 1;
        p.farLoadsPerOuter = 1;
        p.innerIters = 24;
        p.farPagesLog2 = 6;
        p.sharedGroup = 1;
        p.sharedBytesLog2 = 14; // 16 KB, two pages
        p.sharedStores = 1;
        p.sharedLoads = 1;
        return p;
    }
    fatal("unknown benchmark '%s'", name.c_str());
    return WorkloadParams{};
}

const std::vector<std::string> &
benchmarkNames()
{
    static const std::vector<std::string> names = {
        "alphadoom", "applu",   "compress", "deltablue",
        "gcc",       "hydro2d", "murphi",   "vortex",
    };
    return names;
}

std::string
shortName(const std::string &bench)
{
    if (bench == "alphadoom") return "adm";
    if (bench == "applu")     return "apl";
    if (bench == "compress")  return "cmp";
    if (bench == "deltablue") return "dbl";
    if (bench == "gcc")       return "gcc";
    if (bench == "hydro2d")   return "h2d";
    if (bench == "murphi")    return "mph";
    if (bench == "vortex")    return "vor";
    return bench;
}

namespace
{

/**
 * The one field list of WorkloadParams, in key order: canonicalKey()
 * prints it and parseWorkloadKey() reads it back. Every field that
 * affects the generated program belongs here.
 */
template <typename Workload, typename Visitor>
void
visitFields(Workload &w, Visitor &&v)
{
    v("name", w.name);
    v("farLoadsPerOuter", w.farLoadsPerOuter);
    v("innerIters", w.innerIters);
    v("farPagesLog2", w.farPagesLog2);
    v("hotBytesLog2", w.hotBytesLog2);
    v("aluChains", w.aluChains);
    v("aluOpsPerChain", w.aluOpsPerChain);
    v("fpChains", w.fpChains);
    v("fpOpsPerChain", w.fpOpsPerChain);
    v("useFpDiv", w.useFpDiv);
    v("fsqrtOps", w.fsqrtOps);
    v("serialMuls", w.serialMuls);
    v("hotLoads", w.hotLoads);
    v("hotStores", w.hotStores);
    v("chaseLoads", w.chaseLoads);
    v("farFeedsChase", w.farFeedsChase);
    v("randomBranches", w.randomBranches);
    v("indirectFarJumps", w.indirectFarJumps);
    v("ifjFarMask", w.ifjFarMask);
    v("seed", w.seed);
    v("textBase", w.textBase);
    v("hotBase", w.hotBase);
    v("farBase", w.farBase);
    v("sharedGroup", w.sharedGroup);
    v("sharedBytesLog2", w.sharedBytesLog2);
    v("sharedStores", w.sharedStores);
    v("sharedLoads", w.sharedLoads);
    v("sliceIndex", w.sliceIndex);
    v("sliceCount", w.sliceCount);
    v("sharedBase", w.sharedBase);
}

template <typename T>
bool
parseValue(const std::string &text, T &field)
{
    if constexpr (std::is_same_v<T, std::string>) {
        field = text;
        return true;
    } else {
        // Plain decimal digits only: no sign, space or base prefix.
        if (text.empty() ||
            text.find_first_not_of("0123456789") != std::string::npos)
            return false;
        errno = 0;
        uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
        if (errno == ERANGE || v > uint64_t(std::numeric_limits<T>::max()))
            return false;
        field = T(v);
        return true;
    }
}

} // anonymous namespace

std::string
canonicalKey(const WorkloadParams &p)
{
    std::ostringstream os;
    visitFields(p, [&](const char *name, const auto &field) {
        os << name << '=' << field << ';';
    });
    return os.str();
}

bool
parseWorkloadKey(const std::string &text, WorkloadParams *wp,
                 std::string *why)
{
    WorkloadParams w;
    size_t pos = 0;
    bool ok = true;
    auto fail = [&](const std::string &message) {
        *why = message;
        ok = false;
    };
    // Fields must appear in exactly the order canonicalKey writes them.
    visitFields(w, [&](const char *name, auto &field) {
        if (!ok)
            return;
        const std::string prefix = std::string(name) + "=";
        if (text.compare(pos, prefix.size(), prefix) != 0)
            return fail("expected workload field '" + std::string(name) +
                        "'");
        size_t semi = text.find(';', pos);
        if (semi == std::string::npos)
            return fail("workload key not ';'-terminated");
        size_t start = pos + prefix.size();
        if (!parseValue(text.substr(start, semi - start), field))
            return fail("malformed workload value '" +
                        text.substr(pos, semi - pos) + "'");
        pos = semi + 1;
    });
    if (ok && pos != text.size())
        fail("unknown workload field '" + text.substr(pos) + "'");
    if (ok)
        *wp = std::move(w);
    return ok;
}

} // namespace zmt
