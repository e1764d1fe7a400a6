/**
 * @file
 * Penalty-attribution categories and the per-run summary POD.
 *
 * The attribution contract (DESIGN.md §10): every *completed* handling
 * is a contiguous span of cycles from detection to the cycle the
 * pipeline is back on the application path, partitioned into the named
 * categories below. The partition points are event timestamps, so by
 * construction
 *
 *     sum(categories) == span == done - detect
 *
 * for every record; the analyzer asserts this when it closes a record,
 * and tests/test_obs.cc enforces it across all four mechanisms.
 * Aborted handlings (squashed traps, cancelled handler threads,
 * HARDEXC reversions, abandoned walks) are counted but contribute no
 * category cycles.
 */

#ifndef ZMT_OBS_ATTRIB_HH
#define ZMT_OBS_ATTRIB_HH

#include <array>
#include <cstdint>
#include <cstdio>

#include "common/types.hh"

namespace zmt::obs
{

/** Where a handling's cycles went (paper Section 3 / Figure 1). */
enum class AttribCat : uint8_t
{
    Drain,        //!< detect -> squash/redirect (0 in this model: the
                  //!< trap squash and fetch redirect are same-cycle)
    HandlerFetch, //!< redirect/spawn -> first handler inst dispatched
                  //!< (the first pipeline refill of Figure 1a)
    HandlerExec,  //!< first handler dispatch -> TLBWR/EMULWR executes
    SpliceWait,   //!< fill -> handler RFE retires (splice close);
                  //!< multithreaded mechanisms only
    Refetch,      //!< RFE executes -> first refetched app inst
                  //!< dispatched (the second refill); inline traps only
    Walker,       //!< FSM walk start -> fill installed; hardware only
    NumCats,
};

constexpr unsigned NumAttribCats = unsigned(AttribCat::NumCats);

const char *attribCatName(AttribCat cat);

/** Aggregated attribution over one simulation run. */
struct AttribSummary
{
    uint64_t completed = 0; //!< handlings attributed end-to-end
    uint64_t aborted = 0;   //!< handlings cut short (no attribution)
    std::array<uint64_t, NumAttribCats> cycles{};
    uint64_t spanCycles = 0; //!< sum of completed handlings' spans

    uint64_t
    categorySum() const
    {
        uint64_t total = 0;
        for (uint64_t c : cycles)
            total += c;
        return total;
    }

    /** The by-construction identity: categories partition the spans. */
    bool consistent() const { return categorySum() == spanCycles; }

    /** Add another run's handlings (a sampled run's probes, a table's
     *  benchmarks). */
    AttribSummary &
    operator+=(const AttribSummary &other)
    {
        completed += other.completed;
        aborted += other.aborted;
        spanCycles += other.spanCycles;
        for (size_t c = 0; c < cycles.size(); ++c)
            cycles[c] += other.cycles[c];
        return *this;
    }

    double
    perHandling(AttribCat cat) const
    {
        return completed ? double(cycles[unsigned(cat)]) / completed : 0.0;
    }

    double
    spanPerHandling() const
    {
        return completed ? double(spanCycles) / completed : 0.0;
    }
};

/**
 * Print the human-readable attribution table (one row per category,
 * total cycles and cycles-per-handling) to @p out — shared by
 * zmt_sim --attrib and the bench --attrib modes.
 */
void printAttribTable(std::FILE *out, const AttribSummary &summary);

} // namespace zmt::obs

#endif // ZMT_OBS_ATTRIB_HH
