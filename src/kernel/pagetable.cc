#include "kernel/pagetable.hh"

#include "common/logging.hh"

namespace zmt
{

namespace
{

/** PTEs in the linear table covering [0, va_limit). */
size_t
tableEntries(Addr va_limit)
{
    fatal_if(va_limit == 0, "empty address space");
    fatal_if(va_limit > AddressSpace::MaxVaLimit,
             "address space of %#lx bytes exceeds the %#lx-byte limit",
             va_limit, AddressSpace::MaxVaLimit);
    return size_t(pageNum(va_limit + PageBytes - 1));
}

} // anonymous namespace

AddressSpace::AddressSpace(Asn asn, PhysMem &mem, FrameAllocator &frames,
                           Addr va_limit)
    : _asn(asn), mem(mem), frames(frames), _vaLimit(va_limit),
      shadow(tableEntries(va_limit))
{
    // The linear table needs one 8-byte PTE per virtual page. Allocate
    // it contiguously so handler address arithmetic is a single add.
    size_t table_bytes = shadow.size() * 8;
    size_t table_pages = (table_bytes + PageBytes - 1) / PageBytes;
    _ptbr = frames.allocContiguous(table_pages);
    // PhysMem zero-fills lazily, so all PTEs start invalid, as does
    // every shadow entry.
}

AddressSpace::AddressSpace(Asn asn, PhysMem &mem, FrameAllocator &frames,
                           Addr va_limit, Addr ptbr, size_t mapped_pages)
    : _asn(asn), mem(mem), frames(frames), _vaLimit(va_limit),
      _ptbr(ptbr), _mappedPages(mapped_pages),
      shadow(tableEntries(va_limit))
{
    // A table page with no backing page holds no valid PTE (the valid
    // bit is in a PTE's first byte), so skip it whole rather than ask
    // PhysMem about each of its entries.
    size_t vpn = 0;
    while (vpn < shadow.size()) {
        Addr pte_pa = _ptbr + vpn * 8;
        if (mem.hostPage(pte_pa)) {
            shadow[vpn++].pte = mem.read64(pte_pa);
        } else {
            Addr next_page = pageBase(pte_pa) + PageBytes;
            vpn = size_t((next_page - _ptbr + 7) / 8);
        }
    }
}

void
AddressSpace::setPte(Addr va, uint64_t pte)
{
    mem.write64(pteAddr(va), pte);
    shadow[pageNum(va)].pte = pte;
    ++_mappedPages;
}

void
AddressSpace::mapPage(Addr va)
{
    panic_if(va >= _vaLimit, "mapPage beyond va_limit: %#lx", va);
    if (!entryFor(va))
        setPte(va, Pte::make(frames.alloc()));
}

void
AddressSpace::mapRange(Addr start, Addr len)
{
    for (Addr va = pageBase(start); va < start + len; va += PageBytes)
        mapPage(va);
}

void
AddressSpace::mapSharedPage(Addr va, Addr frame_pa)
{
    panic_if(va >= _vaLimit, "mapSharedPage beyond va_limit: %#lx", va);
    if (const ShadowEntry *e = entryFor(va)) {
        panic_if(Pte::framePa(e->pte) != pageBase(frame_pa),
                 "mapSharedPage remap: va %#lx already backed by %#lx",
                 va, Pte::framePa(e->pte));
        return;
    }
    setPte(va, Pte::make(frame_pa));
}

uint64_t
AddressSpace::loadSlow(ShadowEntry &e, Addr pa, unsigned size) const
{
    if (!e.host)
        e.host = mem.hostPage(pa);
    return mem.read(pa, size);
}

void
AddressSpace::storeSlow(ShadowEntry &e, Addr pa, unsigned size,
                        uint64_t value)
{
    mem.write(pa, size, value); // creates the frame's page if it has none
    if (!e.host)
        e.host = mem.hostPage(pa);
}

} // namespace zmt
