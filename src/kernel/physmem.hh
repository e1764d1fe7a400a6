/**
 * @file
 * Sparse simulated physical memory.
 *
 * Backing pages are allocated lazily on first touch, so multi-gigabyte
 * physical address spaces cost only what is actually used. All accesses
 * are little-endian and may span page boundaries.
 *
 * Functional fetches, loads and stores bypass read()/write(): they go
 * through each AddressSpace's host shadow (kernel/pagetable.hh), which
 * holds hostPage() pointers, and come here only for page-crossing
 * accesses and frames with no backing page yet. What does come here —
 * the walker's and PAL handler's PTE loads, PAL-mode physical accesses,
 * squash undo — is mostly a within-page access to a recently-touched
 * page: a tiny direct-mapped cache of page lookups plus a memcpy covers
 * it; page-crossing or first-touch accesses fall back to the byte loop.
 */

#ifndef ZMT_KERNEL_PHYSMEM_HH
#define ZMT_KERNEL_PHYSMEM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace zmt
{

/** Byte-addressable sparse physical memory. */
class PhysMem
{
  public:
    PhysMem() = default;

    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    /** Read size bytes (1-8) at pa, zero-extended. */
    uint64_t read(Addr pa, unsigned size) const;

    /** Write the low size bytes (1-8) of value at pa. */
    void write(Addr pa, unsigned size, uint64_t value);

    uint64_t read64(Addr pa) const { return read(pa, 8); }
    uint32_t read32(Addr pa) const { return uint32_t(read(pa, 4)); }
    void write64(Addr pa, uint64_t v) { write(pa, 8, v); }
    void write32(Addr pa, uint32_t v) { write(pa, 4, v); }

    /**
     * Host bytes of the page containing pa, or null when it has no
     * backing page yet (this never creates one). Pages never move or
     * get freed, so the pointer stays valid for the PhysMem's lifetime.
     */
    uint8_t *hostPage(Addr pa) { return cachedPage(pageNum(pa)); }

    /** Number of backing pages materialized so far. */
    size_t pagesAllocated() const { return pages.size(); }

    /**
     * Visit every materialized page in ascending page-number order
     * (deterministic, for checkpoint serialization). @p fn receives
     * the page number and a pointer to its PageBytes of data.
     */
    void forEachPage(
        const std::function<void(Addr, const uint8_t *)> &fn) const;

    /**
     * Materialize a page and fill its first @p len bytes from
     * @p data, zeroing the rest (checkpoint restore; trailing zeros
     * are trimmed on save).
     */
    void importPage(Addr ppn, const uint8_t *data, size_t len);

  private:
    uint8_t *pageFor(Addr pa);
    const uint8_t *pageForConst(Addr pa) const;

    /** Cached materialized-page lookup; null when not cached. */
    uint8_t *cachedPage(Addr ppn) const;

    // Backing store, keyed by physical page number. Pages are never
    // freed or moved once materialized, so raw pointers into the map's
    // unique_ptrs stay valid for the PhysMem's lifetime (which the
    // lookup cache below and hostPage() rely on). Reads of untouched
    // memory return zero without materializing a page.
    std::unordered_map<Addr, std::unique_ptr<uint8_t[]>> pages;

    // Direct-mapped memo of recent page lookups. mutable: filling it
    // from read() is logically const (pure lookup acceleration), and a
    // PhysMem belongs to one Simulator, i.e. one thread.
    struct CacheEntry
    {
        Addr ppn = ~Addr{0};
        uint8_t *page = nullptr;
    };
    static constexpr size_t CacheWays = 8;
    mutable std::array<CacheEntry, CacheWays> lookupCache;
};

} // namespace zmt

#endif // ZMT_KERNEL_PHYSMEM_HH
