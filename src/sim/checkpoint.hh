/**
 * @file
 * Serializable simulator checkpoints and the sampled-simulation
 * driver's shared data structures.
 *
 * A checkpoint captures everything needed to resume detailed
 * simulation at a precise instruction boundary reached by functional
 * fast-forward: per-process workload identity and architectural
 * state, the page tables and every resident physical page, the frame
 * allocator's high-water mark, and the warm-state trace (TLB pages
 * and cache-line grains, in LRU order) recorded during fast-forward.
 *
 * On-disk format (`zmt-checkpoint-v2`): a header line, then one record
 * line `<16-hex fnv1a64> <JSON>` (common/hash.hh's sealRecord framing,
 * shared with the campaign journal) whose JSON object is the whole
 * CheckpointData, written and read through the field lists in
 * checkpoint.cc and the one record codec (sim/jsonfields.hh). Nothing
 * follows the record. A checkpoint is written whole via temp+rename,
 * so loading is strict: a wrong header, a truncated file, a checksum
 * mismatch, any byte after the record, a missing or malformed member
 * (out of its C++ type's range, an array of the wrong length, bad
 * hex), a page longer than PageBytes or a checkpoint without
 * processes rejects the file with an error naming it.
 */

#ifndef ZMT_SIM_CHECKPOINT_HH
#define ZMT_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/ffwd.hh"
#include "wload/workload.hh"

namespace zmt
{

class SmtCore;

/** One process's slice of a checkpoint. */
struct CheckpointProc
{
    /** The resolved workload definition, so a restored run can report
     *  and verify what it is simulating. */
    WorkloadParams wload;

    /** The address space and the precise resume state at the
     *  fast-forward boundary, as Process's restore constructor takes
     *  them. */
    ProcessRestore restore;

    uint64_t ffwdInsts = 0; //!< instructions this process fast-forwarded
    uint64_t storeHash = 0; //!< running store hash at the boundary
    bool halted = false;    //!< program ran to HALT during fast-forward
};

/** One resident physical page. */
struct CheckpointPage
{
    Addr ppn = 0;
    std::vector<uint8_t> bytes; //!< contents, trailing zeros trimmed
};

/** A complete checkpoint, in memory. */
struct CheckpointData
{
    uint64_t ffwdTotal = 0; //!< total fast-forwarded instructions
    Addr framesNext = 0;    //!< FrameAllocator resume point

    std::vector<CheckpointProc> procs;
    std::vector<CheckpointPage> pages;

    /** Warm state, oldest touch first (replay order). */
    std::vector<WarmPage> warmPages;
    std::vector<WarmLine> warmLines;
};

/**
 * Write @p data to @p path (temp file + atomic rename).
 * @return false with @p error set on I/O failure.
 */
bool saveCheckpoint(const CheckpointData &data, const std::string &path,
                    std::string *error);

/**
 * Load a checkpoint. Strict: returns false with @p error naming the
 * file on any damage listed in the file comment.
 */
bool loadCheckpoint(const std::string &path, CheckpointData *data,
                    std::string *error);

/**
 * Install recorded warm state into a freshly built core: TLB pages
 * via Tlb::warmInsert, line grains into the I/D L1s and the L2 via
 * Cache::warmInstall, both oldest-first so LRU order is reproduced.
 * Finishes with MemHierarchy::settleTiming() so the installed lines
 * behave as long-resident.
 */
void applyWarmState(SmtCore &core, const std::vector<WarmPage> &pages,
                    const std::vector<WarmLine> &lines);

} // namespace zmt

#endif // ZMT_SIM_CHECKPOINT_HH
