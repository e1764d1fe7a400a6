#include "kernel/ffwd.hh"

#include "common/logging.hh"
#include "kernel/emulator.hh"
#include "kernel/funcmachine.hh"

namespace zmt
{

// --------------------------------------------------------------------
// WarmTrace

void
WarmTrace::exportState(std::vector<WarmPage> &pages,
                       std::vector<WarmLine> &lines) const
{
    pageSet.forEachOldestFirst(
        [&](const WarmPage &page) { pages.push_back(page); });
    lineSet.forEachOldestFirst(
        [&](const WarmLine &line) { lines.push_back(line); });
}

// --------------------------------------------------------------------
// SuperblockCache

Superblock *
SuperblockCache::lookup(Process &proc, Addr pc)
{
    uint64_t k = key(proc.asn(), pc);
    if (auto it = blocks.find(k); it != blocks.end())
        return it->second.get();
    return build(proc, pc);
}

Superblock *
SuperblockCache::build(Process &proc, Addr pc)
{
    auto sb = std::make_unique<Superblock>();
    sb->pc = pc;

    Addr cur = pc;
    for (unsigned n = 0; n < MaxBlockInsts; ++n, cur += 4) {
        isa::InstWord word = proc.fetchWord(cur);
        const isa::DecodedInst &di = decoder.lookup(word);
        // Anything the interpreter vets per instruction ends discovery
        // *before* the offender: HALT (terminates the run), privileged
        // ops (must panic in user mode), invalid words (ditto). The
        // interpreter fallback reproduces step()'s exact behavior.
        if (!di.valid() || di.info->isPriv || di.op == isa::Opcode::Halt)
            break;
        sb->body.push_back(di);
        // A control transfer ends the block but belongs to it — the
        // replay loop handles the redirect via setNextPc, same as
        // step().
        if (di.info->isBranch)
            break;
    }

    // Text grains for I-side warm tracking: the physical 32-byte grains
    // this block's words occupy (perfect ITLB, so translation cannot
    // fail for text the builder just fetched).
    Addr last_grain = ~Addr{0};
    for (size_t i = 0; i < sb->body.size(); ++i) {
        auto pa = proc.space().translate(pc + Addr(i) * 4);
        if (!pa)
            break; // unmapped wild path; block still replays correctly
        Addr grain = *pa / WarmGrainBytes;
        if (grain != last_grain) {
            sb->fetchGrains.push_back(grain * WarmGrainBytes);
            last_grain = grain;
        }
    }

    Superblock *raw = sb.get();
    blocks.emplace(key(proc.asn(), pc), std::move(sb));
    return raw;
}

// --------------------------------------------------------------------
// FuncMachine::runFast — here rather than funcmachine.cc so the
// interpreter core stays free of translation-cache concerns. flatten
// inlines the interpreter and the fetch-grain touches into the replay
// loop; loads and stores still call readMem/writeMem.

[[gnu::flatten]] uint64_t
FuncMachine::runFast(uint64_t max_insts, SuperblockCache &blocks)
{
    uint64_t executed = 0;
    Superblock *sb = nullptr;

    while (executed < max_insts && !isHalted) {
        if (!sb)
            sb = blocks.lookup(proc, archState.pc);

        uint64_t remaining = max_insts - executed;
        if (sb->body.empty() || sb->body.size() > remaining) {
            // Interpreter fallback: the block starts with something
            // step() must vet itself, or replaying it whole would
            // overshoot the precise instruction boundary.
            if (!step())
                break;
            ++executed;
            sb = nullptr; // PC moved off the block start
            continue;
        }

        if (warmTrace) [[unlikely]] {
            for (Addr grain : sb->fetchGrains)
                warmTrace->touchFetch(grain);
        }

        // Replay the memoized body: identical state evolution to
        // body.size() calls to step(), minus fetch/decode/vetting.
        for (const isa::DecodedInst &di : sb->body) {
            nextPc = archState.pc + 4;
            executeInst(di, *this);
            archState.pc = nextPc;
        }
        result.instsExecuted += sb->body.size();
        executed += sb->body.size();

        // One-entry chain memo: repeated traces skip the hash lookup.
        if (sb->chainTo && sb->chainPc == archState.pc) {
            sb = sb->chainTo;
        } else {
            Superblock *next = blocks.lookup(proc, archState.pc);
            sb->chainPc = archState.pc;
            sb->chainTo = next;
            sb = next;
        }
    }

    result.finalState = archState;
    result.halted = isHalted;
    return executed;
}

} // namespace zmt
