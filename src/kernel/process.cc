#include "kernel/process.hh"

#include "common/logging.hh"

namespace zmt
{

Process::Process(const ProcessImage &image, Asn asn, PhysMem &mem,
                 FrameAllocator &frames)
    : _entry(image.text.entry()),
      initInt(image.initIntRegs),
      initFp(image.initFpRegs)
{
    Addr va_limit = image.vaLimit;
    fatal_if(va_limit < image.text.end(),
             "vaLimit %#lx does not cover the text segment", va_limit);
    _space = std::make_unique<AddressSpace>(asn, mem, frames, va_limit);

    // Map and write the text segment.
    _space->mapRange(image.text.base, image.text.size() * 4);
    for (size_t i = 0; i < image.text.size(); ++i) {
        auto pa = _space->store(image.text.base + i * 4, 4,
                                image.text.words[i]);
        panic_if(!pa, "text page unmapped after mapRange");
    }

    // Pre-map requested data ranges.
    for (const auto &[start, len] : image.mapRanges)
        _space->mapRange(start, len);

    // Initialize data words.
    for (const auto &[va, value] : image.dataWords) {
        fatal_if(va % 8 != 0, "unaligned data word at %#lx", va);
        _space->mapPage(va);
        auto pa = _space->store(va, 8, value);
        panic_if(!pa, "data page unmapped after mapPage");
    }
}

Process::Process(const ProcessRestore &restore, PhysMem &mem,
                 FrameAllocator &frames)
    : _entry(restore.entry)
{
    _space = std::make_unique<AddressSpace>(
        restore.asn, mem, frames, restore.vaLimit, restore.ptbr,
        size_t(restore.mappedPages));
    setResumeState(restore.resume);
}

ArchState
Process::initialState() const
{
    if (resumeValid)
        return resumeState;
    ArchState state;
    state.intRegs = initInt;
    state.fpRegs = initFp;
    state.pc = _entry;
    state.palMode = false;
    state.writePriv(isa::PrivReg::Ptbr, _space->ptbr());
    state.writePriv(isa::PrivReg::FaultAsn, asn());
    return state;
}

void
Process::setResumeState(const ArchState &state)
{
    panic_if(state.palMode,
             "resume state captured inside a PAL handler (functional "
             "execution never enters PAL mode)");
    resumeState = state;
    resumeValid = true;
}

isa::InstWord
Process::fetchWord(Addr pc) const
{
    auto loaded = _space->load(pc, 4);
    return loaded ? isa::InstWord(loaded->value) : 0;
}

} // namespace zmt
