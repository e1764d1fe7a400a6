/**
 * @file
 * Process images and the loader: turns an assembled program plus data
 * segments into a live address space inside simulated physical memory.
 */

#ifndef ZMT_KERNEL_PROCESS_HH
#define ZMT_KERNEL_PROCESS_HH

#include <array>
#include <memory>
#include <vector>

#include "isa/assembler.hh"
#include "kernel/pagetable.hh"
#include "kernel/archstate.hh"

namespace zmt
{

/** Everything needed to instantiate one process. */
struct ProcessImage
{
    isa::Program text;

    /** Highest VA + 1 the page table must cover. */
    Addr vaLimit = 0;

    /** Pre-initialized 64-bit data words (va must be 8-byte aligned). */
    std::vector<std::pair<Addr, uint64_t>> dataWords;

    /** VA ranges to pre-map (start, length). Text is always mapped. */
    std::vector<std::pair<Addr, Addr>> mapRanges;

    /** Initial integer register values. */
    std::array<uint64_t, isa::NumIntRegs> initIntRegs{};

    /** Initial FP register values (bit patterns). */
    std::array<uint64_t, isa::NumFpRegs> initFpRegs{};
};

/**
 * Everything the loader would have produced, recovered from a
 * checkpoint instead: the address space's page table and all mapped
 * frames are already resident in physical memory (imported page by
 * page), and the architectural state is the precise
 * instruction-boundary state at which execution resumes.
 */
struct ProcessRestore
{
    Asn asn = 0;
    Addr ptbr = 0;
    Addr vaLimit = 0;
    uint64_t mappedPages = 0;
    Addr entry = 0;
    ArchState resume;
};

/** A loaded process: address space + initial architectural state. */
class Process
{
  public:
    /**
     * Load the image: allocate the page table, map and fill text and
     * data, and capture the initial register state.
     */
    Process(const ProcessImage &image, Asn asn, PhysMem &mem,
            FrameAllocator &frames);

    /** Re-adopt a checkpointed process (see ProcessRestore). */
    Process(const ProcessRestore &restore, PhysMem &mem,
            FrameAllocator &frames);

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    const AddressSpace &space() const { return *_space; }
    AddressSpace &space() { return *_space; }
    Asn asn() const { return _space->asn(); }
    Addr entry() const { return _entry; }

    /**
     * The architectural state execution starts from: pc at entry with
     * registers preset for a freshly loaded process, or the precise
     * resume state set by functional fast-forward / checkpoint
     * restore.
     */
    ArchState initialState() const;

    /**
     * Pin the state a subsequently constructed core (or functional
     * machine) resumes from — the fast-forward engine calls this after
     * advancing the process functionally, and checkpoint capture reads
     * it back via initialState().
     */
    void setResumeState(const ArchState &state);

    /**
     * Fetch one instruction word at a virtual PC (perfect ITLB: the
     * oracle translation is used; timing is modeled separately).
     * Unmapped PCs return 0 (decodes as Nop) — only reachable on wild
     * wrong paths.
     */
    isa::InstWord fetchWord(Addr pc) const;

  private:
    std::unique_ptr<AddressSpace> _space;
    Addr _entry;
    std::array<uint64_t, isa::NumIntRegs> initInt{};
    std::array<uint64_t, isa::NumFpRegs> initFp{};
    ArchState resumeState;
    bool resumeValid = false;
};

} // namespace zmt

#endif // ZMT_KERNEL_PROCESS_HH
