/**
 * @file
 * Functional fast-forward engine: a superblock translation cache that
 * accelerates FuncMachine, plus the warm-state trace that records what
 * a fast-forwarded program would have left resident in the TLB and the
 * cache hierarchy.
 *
 * The translation cache is seeded from the decode memo (isa
 * DecodeCache, PR 5): discovery decodes each word once through the
 * memo, and the decoded bodies are then memoized per superblock so
 * steady-state execution never decodes at all. Superblocks are
 * straight-line runs ending at the first control transfer (included),
 * stopping *before* anything the interpreter must vet per-instruction
 * (HALT, privileged ops, invalid words). A one-entry chain memo on
 * each block short-circuits the successor lookup for the common
 * repeated-trace case.
 *
 * The warm trace is purely observational: it never changes execution
 * results. It keeps bounded MRU sets of touched (asn, vpn) pages and
 * 32-byte line grains; exporting oldest-first lets warmInstall /
 * warmInsert replay reconstruct the LRU order a real run would have.
 * Each set is a FlatLru: nodes in one vector, linked by index into a
 * recency list, found through an open-addressed index, so a touch
 * never allocates once the working set has been seen.
 */

#ifndef ZMT_KERNEL_FFWD_HH
#define ZMT_KERNEL_FFWD_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/decodecache.hh"
#include "kernel/process.hh"

namespace zmt
{

/** One TLB-resident translation recorded by the warm trace. */
struct WarmPage
{
    Asn asn = 0;
    Addr vpn = 0;
};

/** One cache-resident line grain recorded by the warm trace. */
struct WarmLine
{
    Addr grain = 0; //!< physical address / WarmGrainBytes
    bool data = false;  //!< install into the D-side (dcache + L2)
    bool fetch = false; //!< install into the I-side (icache + L2)
    bool dirty = false; //!< stored to (D-side lines only)
};

/**
 * Bounded LRU set of @p Entry keyed by a 64-bit key. Nodes live in one
 * vector and form a doubly linked recency list by index (head = oldest
 * touch); an open-addressed, linear-probing, power-of-two index maps
 * keys to nodes. Both arrays grow with the number of distinct keys
 * seen, never beyond what the cap needs, and at the cap an insert
 * reuses the evicted oldest node, so a steady-state touch is a hash
 * probe and a few index writes.
 */
template <typename Entry>
class FlatLru
{
  public:
    explicit FlatLru(size_t cap) : cap(cap) {}

    size_t capacity() const { return cap; }
    size_t size() const { return nodes.size(); }

    /**
     * Make @p key the most recent entry, evicting the oldest when an
     * insert would exceed the cap. @pre capacity() > 0.
     * @return the entry (value-initialised when new) and whether it
     *         was inserted by this call
     */
    std::pair<Entry *, bool>
    touch(uint64_t key)
    {
        // Re-touching the newest entry leaves the order unchanged.
        if (tail != Nil && nodes[tail].key == key)
            return {&nodes[tail].entry, false};
        if (!slots.empty()) {
            for (size_t i = home(key);; i = (i + 1) & mask()) {
                uint32_t n = slots[i];
                if (n == Nil)
                    break;
                if (nodes[n].key == key) {
                    unlink(n);
                    append(n);
                    return {&nodes[n].entry, false};
                }
            }
        }

        uint32_t n;
        if (nodes.size() < cap) {
            // Keep the index at most half full.
            if ((nodes.size() + 1) * 2 > slots.size())
                rehash(std::max<size_t>(16, slots.size() * 2));
            n = uint32_t(nodes.size());
            nodes.push_back({});
        } else {
            n = head;
            unlink(n);
            unindex(n);
            nodes[n].entry = {};
        }
        nodes[n].key = key;
        index(n);
        append(n);
        return {&nodes[n].entry, true};
    }

    /** Visit every entry, oldest touch first. */
    template <typename Fn>
    void
    forEachOldestFirst(Fn fn) const
    {
        for (uint32_t n = head; n != Nil; n = nodes[n].next)
            fn(nodes[n].entry);
    }

    void
    clear()
    {
        nodes.clear();
        std::fill(slots.begin(), slots.end(), Nil);
        head = tail = Nil;
    }

  private:
    static constexpr uint32_t Nil = ~uint32_t{0};

    struct Node
    {
        uint64_t key = 0;
        uint32_t prev = Nil;
        uint32_t next = Nil;
        Entry entry{};
    };

    size_t mask() const { return slots.size() - 1; }

    /** Fibonacci hashing: the top bits of the product depend on every
     *  key bit, so sequential grains and ASN-tagged pages spread. */
    size_t
    home(uint64_t key) const
    {
        return size_t((key * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    void
    index(uint32_t n)
    {
        size_t i = home(nodes[n].key);
        while (slots[i] != Nil)
            i = (i + 1) & mask();
        slots[i] = n;
    }

    /** Remove node @p n from the index by backward-shift deletion,
     *  which keeps every probe chain gap-free without tombstones. */
    void
    unindex(uint32_t n)
    {
        size_t i = home(nodes[n].key);
        while (slots[i] != n)
            i = (i + 1) & mask();
        for (size_t j = (i + 1) & mask(); slots[j] != Nil;
             j = (j + 1) & mask()) {
            // Move slot j into the hole at i unless its home lies
            // cyclically in (i, j], where the hole does not break it.
            size_t h = home(nodes[slots[j]].key);
            bool stays = i < j ? (h > i && h <= j) : (h > i || h <= j);
            if (!stays) {
                slots[i] = slots[j];
                i = j;
            }
        }
        slots[i] = Nil;
    }

    /** @pre @p slot_count is a power of two. */
    void
    rehash(size_t slot_count)
    {
        slots.assign(slot_count, Nil);
        shift = 64 - unsigned(std::countr_zero(slot_count));
        for (uint32_t n = 0; n < nodes.size(); ++n)
            index(n);
    }

    void
    unlink(uint32_t n)
    {
        Node &node = nodes[n];
        (node.prev == Nil ? head : nodes[node.prev].next) = node.next;
        (node.next == Nil ? tail : nodes[node.next].prev) = node.prev;
    }

    void
    append(uint32_t n)
    {
        nodes[n].prev = tail;
        nodes[n].next = Nil;
        (tail == Nil ? head : nodes[tail].next) = n;
        tail = n;
    }

    size_t cap;
    std::vector<Node> nodes;
    std::vector<uint32_t> slots; //!< node number or Nil
    unsigned shift = 64;         //!< 64 - log2(slots.size())
    uint32_t head = Nil;         //!< oldest touch
    uint32_t tail = Nil;         //!< newest touch
};

/**
 * Warm-trace granularity: the smallest line size in the hierarchy, so
 * one grain never spans two L1 lines. Coarser caches simply see
 * several grains land in the same line.
 */
constexpr unsigned WarmGrainBytes = 32;

/**
 * Bounded MRU record of the pages and lines a functional run touched.
 * Attach to a FuncMachine (attachWarmTrace) during fast-forward; the
 * export order (oldest touch first) is the replay order.
 */
class WarmTrace
{
  public:
    /**
     * @param max_pages  TLB pages retained (0 disables page tracking)
     * @param max_lines  line grains retained (0 disables line tracking)
     */
    WarmTrace(size_t max_pages, size_t max_lines)
        : pageSet(max_pages), lineSet(max_lines)
    {}

    /**
     * Record one data access: the page translation, the PTE line the
     * miss handler would have loaded, and the data line itself.
     */
    void
    touchData(Asn asn, Addr va, Addr pte_pa, Addr pa, bool dirty)
    {
        touchPage(asn, pageNum(va));
        touchLine(pte_pa, /*data=*/true, /*fetch=*/false, /*dirty=*/false);
        touchLine(pa, /*data=*/true, /*fetch=*/false, dirty);
    }

    /** Record one instruction-fetch grain (already a physical grain PA). */
    void
    touchFetch(Addr grain_pa)
    {
        touchLine(grain_pa, /*data=*/false, /*fetch=*/true, /*dirty=*/false);
    }

    /** Append the recorded state, oldest touch first. */
    void exportState(std::vector<WarmPage> &pages,
                     std::vector<WarmLine> &lines) const;

    size_t pageCount() const { return pageSet.size(); }
    size_t lineCount() const { return lineSet.size(); }

    void
    clear()
    {
        pageSet.clear();
        lineSet.clear();
    }

  private:
    void
    touchPage(Asn asn, Addr vpn)
    {
        if (pageSet.capacity() == 0)
            return;
        // A re-touch keeps the entry recorded first under this key.
        auto [page, inserted] = pageSet.touch((uint64_t(asn) << 48) ^ vpn);
        if (inserted)
            *page = {asn, vpn};
    }

    void
    touchLine(Addr pa, bool data, bool fetch, bool dirty)
    {
        if (lineSet.capacity() == 0)
            return;
        Addr grain = pa / WarmGrainBytes;
        WarmLine &line = *lineSet.touch(grain).first;
        line.grain = grain;
        line.data = line.data || data;
        line.fetch = line.fetch || fetch;
        line.dirty = line.dirty || dirty;
    }

    FlatLru<WarmPage> pageSet;
    FlatLru<WarmLine> lineSet;
};

/**
 * A discovered straight-line block: the decoded body, the text grains
 * it occupies (for I-side warm tracking), and a one-entry chain memo
 * to the most recent successor block.
 */
struct Superblock
{
    Addr pc = 0;
    std::vector<isa::DecodedInst> body;
    std::vector<Addr> fetchGrains; //!< physical grain PAs covering the text

    Addr chainPc = 0;              //!< successor PC the memo is valid for
    Superblock *chainTo = nullptr; //!< memoized successor (never stale:
                                   //!< blocks are immortal once built)
};

/**
 * The superblock translation cache. Keyed on (asn, pc) so one cache
 * can serve every process in a mix. Blocks live for the lifetime of
 * the cache (simulated text is immutable), which is what makes the
 * chain memo safe.
 */
class SuperblockCache
{
  public:
    /** Longest block the builder will form. */
    static constexpr unsigned MaxBlockInsts = 64;

    /**
     * Find (building on demand) the block starting at @p pc. The
     * returned block may have an empty body when the first instruction
     * is one the interpreter must handle itself (HALT, privileged,
     * invalid) — callers fall back to FuncMachine::step().
     */
    Superblock *lookup(Process &proc, Addr pc);

    size_t blockCount() const { return blocks.size(); }

  private:
    Superblock *build(Process &proc, Addr pc);

    static uint64_t
    key(Asn asn, Addr pc)
    {
        return (uint64_t(asn) << 48) ^ pc;
    }

    std::unordered_map<uint64_t, std::unique_ptr<Superblock>> blocks;
    isa::DecodeCache decoder;
};

} // namespace zmt

#endif // ZMT_KERNEL_FFWD_HH
