/**
 * @file
 * Per-address-space linear page tables, stored *inside* simulated
 * physical memory so that page-table entries compete for cache space
 * like ordinary data — exactly as in the paper's simulator. The DTLB
 * walker and the PAL miss handler load PTEs from there.
 *
 * Functional translation does not: each address space keeps a host
 * shadow of its table (the PTE plus a pointer to the frame's host
 * bytes, per VPN), so a fetch, load or store is an array read and a
 * memcpy. The mapping calls are the only writers of PTEs and update
 * the shadow with the table; no simulated store reaches a page-table
 * frame (user stores go to user-mapped frames, PAL stores panic).
 * Nothing ever unmaps or remaps a page; a future unmap must clear the
 * shadow entry along with the PTE.
 *
 * PTE format (64-bit):
 *   bit 0         valid
 *   bits [63:13]  physical frame base (pfn << PageBits)
 */

#ifndef ZMT_KERNEL_PAGETABLE_HH
#define ZMT_KERNEL_PAGETABLE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "kernel/physmem.hh"

namespace zmt
{

/** Simple bump allocator for physical frames. */
class FrameAllocator
{
  public:
    explicit FrameAllocator(Addr first_frame_pa = 0x100000)
        : nextPa(first_frame_pa)
    {}

    /** Allocate one physical frame; returns its base address. */
    Addr
    alloc()
    {
        Addr pa = nextPa;
        nextPa += PageBytes;
        return pa;
    }

    /** Allocate n contiguous frames; returns base of the first. */
    Addr
    allocContiguous(size_t n)
    {
        Addr pa = nextPa;
        nextPa += n * PageBytes;
        return pa;
    }

    Addr allocated() const { return nextPa; }

    /** Checkpoint restore: resume allocation at @p pa. */
    void reset(Addr pa) { nextPa = pa; }

  private:
    Addr nextPa;
};

/** PTE encode/decode helpers. */
struct Pte
{
    static constexpr uint64_t ValidBit = 1;

    static uint64_t make(Addr frame_pa) { return pageBase(frame_pa) | ValidBit; }
    static bool valid(uint64_t pte) { return pte & ValidBit; }
    static Addr framePa(uint64_t pte) { return pageBase(pte); }
};

/**
 * A virtual address space: linear page table resident in physical
 * memory, plus functional translation used by the (oracle) emulator.
 */
class AddressSpace
{
  public:
    /**
     * Largest va_limit: 4 GB of virtual pages keeps a shadow (16 bytes
     * per page) within 8 MB, whatever limit a checkpoint claims.
     */
    static constexpr Addr MaxVaLimit = Addr{1} << 32;

    /**
     * @param asn       address-space number (tags TLB entries)
     * @param mem       backing physical memory
     * @param frames    frame allocator shared by all spaces
     * @param va_limit  size of the virtual region covered by the table
     */
    AddressSpace(Asn asn, PhysMem &mem, FrameAllocator &frames,
                 Addr va_limit);

    /**
     * Checkpoint restore: adopt an existing linear page table already
     * resident in @p mem at @p ptbr (no allocation, no re-mapping; the
     * PTEs and their frames were imported with the physical pages),
     * and fill the shadow from it.
     */
    AddressSpace(Asn asn, PhysMem &mem, FrameAllocator &frames,
                 Addr va_limit, Addr ptbr, size_t mapped_pages);

    Asn asn() const { return _asn; }

    /** Physical base address of the linear page table. */
    Addr ptbr() const { return _ptbr; }

    /** Highest mappable VA + 1. */
    Addr vaLimit() const { return _vaLimit; }

    /** Physical address of the PTE covering va (what the handler loads). */
    Addr pteAddr(Addr va) const { return _ptbr + pageNum(va) * 8; }

    /** Map the page containing va to a fresh frame (idempotent). */
    void mapPage(Addr va);

    /** Map a VA range [start, start+len). */
    void mapRange(Addr start, Addr len);

    /**
     * Map the page containing va to an existing frame — the shared-
     * memory primitive: several address spaces point their PTEs at the
     * same physical frame. Idempotent for the same frame; remapping to
     * a different one is a bug.
     */
    void mapSharedPage(Addr va, Addr frame_pa);

    /**
     * Functional (oracle) translation: the timing model uses the TLB
     * for timing, but correctness always consults the page table
     * (through its shadow).
     * @return physical address, or nullopt for an unmapped page.
     */
    std::optional<Addr>
    translate(Addr va) const
    {
        const ShadowEntry *e = entryFor(va);
        if (!e)
            return std::nullopt;
        return Pte::framePa(e->pte) | (va & PageMask);
    }

    /** Whether the page containing va is mapped. */
    bool mapped(Addr va) const { return translate(va).has_value(); }

    /** A functional load: where it went and what it read. */
    struct Loaded
    {
        Addr pa;
        uint64_t value;
    };

    /**
     * Functional load of size bytes (1-8) at va, zero-extended.
     * Within-page accesses read the frame's host bytes; a page-crossing
     * access reads physically contiguous bytes from PhysMem, and a
     * frame with no backing page reads as zero.
     * @return the PA and value, or nullopt for an unmapped page.
     */
    std::optional<Loaded>
    load(Addr va, unsigned size) const
    {
        ShadowEntry *e = entryFor(va);
        if (!e)
            return std::nullopt;
        Addr offset = va & PageMask;
        Addr pa = Pte::framePa(e->pte) | offset;
        uint64_t value = 0;
        if (onHost(*e, offset, size)) [[likely]]
            std::memcpy(&value, e->host + offset, size);
        else
            value = loadSlow(*e, pa, size);
        return Loaded{pa, value};
    }

    /**
     * Functional store of the low size bytes (1-8) of value at va,
     * with load()'s paths; a store to a frame with no backing page
     * creates the page.
     * @return the PA, or nullopt (nothing written) for an unmapped page.
     */
    std::optional<Addr>
    store(Addr va, unsigned size, uint64_t value)
    {
        ShadowEntry *e = entryFor(va);
        if (!e)
            return std::nullopt;
        Addr offset = va & PageMask;
        Addr pa = Pte::framePa(e->pte) | offset;
        if (onHost(*e, offset, size)) [[likely]]
            std::memcpy(e->host + offset, &value, size);
        else
            storeSlow(*e, pa, size, value);
        return pa;
    }

    /** Number of mapped pages. */
    size_t mappedPages() const { return _mappedPages; }

  private:
    /** One VPN of the shadow table. */
    struct ShadowEntry
    {
        uint64_t pte = 0;        //!< as written to the in-memory PTE
        uint8_t *host = nullptr; //!< frame's host page; null: ask PhysMem
    };

    /** The shadow entry of a mapped va; null when va is unmapped. */
    ShadowEntry *
    entryFor(Addr va) const
    {
        if (va >= _vaLimit)
            return nullptr;
        ShadowEntry &e = shadow[pageNum(va)];
        return Pte::valid(e.pte) ? &e : nullptr;
    }

    /** Whether an access can use the host page directly. A bad size
     *  takes the PhysMem path, which panics on it. */
    static bool
    onHost(const ShadowEntry &e, Addr offset, unsigned size)
    {
        return std::endian::native == std::endian::little && e.host &&
               size >= 1 && size <= 8 && offset + size <= PageBytes;
    }

    uint64_t loadSlow(ShadowEntry &e, Addr pa, unsigned size) const;
    void storeSlow(ShadowEntry &e, Addr pa, unsigned size, uint64_t value);

    /** Write a PTE to the table and its shadow entry. */
    void setPte(Addr va, uint64_t pte);

    Asn _asn;
    PhysMem &mem;
    FrameAllocator &frames;
    Addr _vaLimit;
    Addr _ptbr;
    size_t _mappedPages = 0;

    // The shadow, indexed by VPN over the table's range. Host pointers
    // start null and are filled in by the first access that finds the
    // frame's page (mutable: a load may fill one). Pages never move or
    // get freed, so a filled pointer never goes stale.
    mutable std::vector<ShadowEntry> shadow;
};

} // namespace zmt

#endif // ZMT_KERNEL_PAGETABLE_HH
