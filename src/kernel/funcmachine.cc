#include "kernel/funcmachine.hh"

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "kernel/ffwd.hh"

namespace zmt
{

FuncMachine::FuncMachine(Process &proc, PhysMem &mem)
    : proc(proc), mem(mem), archState(proc.initialState())
{}

bool
FuncMachine::step()
{
    if (isHalted)
        return false;

    isa::InstWord word = proc.fetchWord(archState.pc);
    isa::DecodedInst inst = isa::decode(word);
    panic_if(!inst.valid(), "functional fetch of invalid word at %#lx",
             archState.pc);
    panic_if(inst.info->isPriv && !archState.palMode,
             "privileged instruction %s in user mode at %#lx",
             inst.info->mnemonic, archState.pc);

    nextPc = archState.pc + 4;
    executeInst(inst, *this);
    archState.pc = nextPc;
    ++result.instsExecuted;
    return !isHalted;
}

ArchResult
FuncMachine::run(uint64_t max_insts)
{
    while (result.instsExecuted < max_insts && step()) {
    }
    result.finalState = archState;
    result.halted = isHalted;
    return result;
}

uint64_t
FuncMachine::readMem(Addr addr, unsigned size)
{
    if (archState.palMode)
        return mem.read(addr, size);
    auto loaded = proc.space().load(addr, size);
    // Loads of unmapped user addresses return zero; only wild
    // wrong-path accesses hit this in the timing model, and correct
    // workloads never do functionally.
    if (!loaded)
        return 0;
    if (warmTrace) [[unlikely]]
        warmTrace->touchData(proc.asn(), addr, proc.space().pteAddr(addr),
                             loaded->pa, false);
    return loaded->value;
}

void
FuncMachine::writeMem(Addr addr, unsigned size, uint64_t value)
{
    if (archState.palMode) {
        mem.write(addr, size, value);
        return;
    }
    auto pa = proc.space().store(addr, size, value);
    panic_if(!pa, "functional store to unmapped VA %#lx", addr);
    if (warmTrace) [[unlikely]]
        warmTrace->touchData(proc.asn(), addr, proc.space().pteAddr(addr),
                             *pa, true);
    static const bool store_trace =
        std::getenv("ZMT_STORE_TRACE") != nullptr;
    if (store_trace) {
        std::fprintf(stderr, "S t0 pc=%#llx va=%#llx v=%#llx\n",
                     (unsigned long long)archState.pc,
                     (unsigned long long)addr,
                     (unsigned long long)value);
    }
    result.noteStore(addr, value);
}

void
FuncMachine::returnFromException()
{
    // Never reached: the functional machine takes no TLB misses.
    panic("RFE executed on the functional machine");
}

void
FuncMachine::raiseHardException()
{
    panic("HARDEXC executed on the functional machine");
}

} // namespace zmt
