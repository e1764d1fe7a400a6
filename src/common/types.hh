/**
 * @file
 * Fundamental type aliases and constants shared across the simulator.
 */

#ifndef ZMT_COMMON_TYPES_HH
#define ZMT_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <type_traits>

namespace zmt
{

/** A (virtual or physical) memory address in the simulated machine. */
using Addr = uint64_t;

/** A simulated clock cycle. */
using Cycle = uint64_t;

/** Globally unique dynamic-instruction sequence number (fetch order). */
using SeqNum = uint64_t;

/** Hardware thread-context identifier. */
using ThreadID = int16_t;

/** Address-space number, tags TLB entries. */
using Asn = uint16_t;

/** Invalid/unset thread. */
constexpr ThreadID InvalidThreadID = -1;

/** Sentinel for "no cycle" / "not yet". */
constexpr Cycle MaxCycle = std::numeric_limits<Cycle>::max();

/** Sentinel sequence number. */
constexpr SeqNum InvalidSeqNum = std::numeric_limits<SeqNum>::max();

/** Page geometry: 8 KB pages, as on the 21164. */
constexpr unsigned PageBits = 13;
constexpr Addr PageBytes = Addr{1} << PageBits;
constexpr Addr PageMask = PageBytes - 1;

/** Extract the virtual/physical page number of an address. */
constexpr Addr
pageNum(Addr addr)
{
    return addr >> PageBits;
}

/** Align an address down to its page base. */
constexpr Addr
pageBase(Addr addr)
{
    return addr & ~PageMask;
}

/**
 * The record parameter of a field list, a visitFields(record, v)
 * template naming each member of @p T once: @p T, or const @p T when
 * the list is walked for writing.
 */
template <typename R, typename T>
concept RecordOf = std::is_same_v<std::remove_const_t<R>, T>;

} // namespace zmt

#endif // ZMT_COMMON_TYPES_HH
