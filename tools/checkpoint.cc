/**
 * @file
 * Checkpoint workflow CLI: create a checkpoint by functional
 * fast-forward, or inspect one.
 *
 *   checkpoint create --out FILE --insts N [key=value ...] bench...
 *   checkpoint info FILE
 *
 * `create` fast-forwards the named benchmarks functionally (recording
 * warm TLB/cache state) and writes a zmt-checkpoint-v2 file at the
 * boundary. `info` validates the file and prints its contents without
 * simulating anything. To resume detailed simulation from a
 * checkpoint, run `zmt_sim ffwd.restore=FILE [key=value ...]`.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"

namespace
{

using namespace zmt;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: checkpoint create --out FILE --insts N [key=value ...] "
        "bench...\n"
        "       checkpoint info FILE\n");
    return 2;
}

int
cmdCreate(int argc, char **argv)
{
    SimParams params;
    std::string out;
    std::vector<std::string> benches;

    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            size_t len = std::strlen(flag);
            if (arg.rfind(flag, 0) == 0 && arg.size() > len &&
                arg[len] == '=')
                return argv[i] + len + 1;
            if (arg == flag && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = value("--out")) {
            out = v;
        } else if (const char *v = value("--insts")) {
            params.ffwd.insts = parseUnsigned("--insts", v);
        } else if (arg.find('=') != std::string::npos) {
            params.setKeyValue(arg);
        } else {
            benches.push_back(arg);
        }
    }
    if (out.empty() || benches.empty() || params.ffwd.insts == 0) {
        std::fprintf(stderr,
                     "checkpoint create: need --out FILE, --insts N "
                     "and at least one benchmark\n");
        return 2;
    }

    params.ffwd.save = out;
    // Build fast-forwards and writes the checkpoint; no detailed run.
    Simulator sim(params, benchmarkWorkloads(benches));
    std::printf("wrote %s: %llu insts fast-forwarded across %u proc%s\n",
                out.c_str(), (unsigned long long)sim.ffwdExecuted(),
                sim.numProcesses(), sim.numProcesses() == 1 ? "" : "s");
    for (unsigned i = 0; i < sim.numProcesses(); ++i)
        std::printf("  proc %u: %s  pc=0x%llx\n", i,
                    sim.workload(i).name.c_str(),
                    (unsigned long long)sim.process(i).initialState().pc);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 1)
        return usage();
    std::string path = argv[0];

    CheckpointData data;
    std::string error;
    if (!loadCheckpoint(path, &data, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }

    size_t page_bytes = 0;
    for (const CheckpointPage &page : data.pages)
        page_bytes += page.bytes.size();

    std::printf("%s: zmt-checkpoint-v2\n", path.c_str());
    std::printf("ffwdTotal    %llu\n", (unsigned long long)data.ffwdTotal);
    std::printf("framesNext   0x%llx\n",
                (unsigned long long)data.framesNext);
    std::printf("pages        %zu (%zu bytes resident)\n",
                data.pages.size(), page_bytes);
    std::printf("warm pages   %zu\n", data.warmPages.size());
    std::printf("warm lines   %zu\n", data.warmLines.size());
    std::printf("processes    %zu\n", data.procs.size());
    for (size_t i = 0; i < data.procs.size(); ++i) {
        const CheckpointProc &p = data.procs[i];
        std::printf("  proc %zu: %s asn=%u pc=0x%llx ffwd=%llu "
                    "shash=%s%s\n",
                    i, p.wload.name.c_str(), unsigned(p.restore.asn),
                    (unsigned long long)p.restore.resume.pc,
                    (unsigned long long)p.ffwdInsts,
                    hex64(p.storeHash).c_str(),
                    p.halted ? " (halted)" : "");
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "create")
        return cmdCreate(argc - 2, argv + 2);
    if (cmd == "info")
        return cmdInfo(argc - 2, argv + 2);
    return usage();
}
