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
 * On-disk format (`zmt-checkpoint-v1`) follows the campaign journal's
 * conventions (sim/campaign.cc): a header line, then one record per
 * line as `<16-hex-char fnv1a64> <payload>` where the checksum covers
 * the payload; payloads are whitespace-separated key=value tokens
 * with percent-encoded strings (common/fieldcodec.hh). Unlike the
 * journal — an append-only log where a torn *final* line just means a
 * crash mid-append — a checkpoint is written whole via temp+rename,
 * so loading is strict: any malformed line, count mismatch, or
 * missing `end` trailer rejects the file with a line-numbered error.
 */

#ifndef ZMT_SIM_CHECKPOINT_HH
#define ZMT_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kernel/ffwd.hh"
#include "wload/workload.hh"

namespace zmt
{

class SmtCore;

/** One process's slice of a checkpoint. */
struct CheckpointProc
{
    /** The resolved workload definition (canonicalKey round trip), so
     *  a restored run can report and verify what it is simulating. */
    WorkloadParams wload;

    Asn asn = 0;
    Addr ptbr = 0;
    Addr vaLimit = 0;
    uint64_t mappedPages = 0;
    Addr entry = 0;

    /** Precise resume state at the fast-forward boundary. */
    ArchState arch;

    uint64_t ffwdInsts = 0; //!< instructions this process fast-forwarded
    uint64_t storeHash = 0; //!< running store hash at the boundary
    bool halted = false;    //!< program ran to HALT during fast-forward
};

/** A complete checkpoint, in memory. */
struct CheckpointData
{
    uint64_t ffwdTotal = 0; //!< total fast-forwarded instructions
    Addr framesNext = 0;    //!< FrameAllocator resume point

    std::vector<CheckpointProc> procs;

    /** Resident physical pages: (ppn, zero-trimmed contents). */
    std::vector<std::pair<Addr, std::vector<uint8_t>>> pages;

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
 * Load a checkpoint. Strict: returns false with a line/offset-bearing
 * @p error on any damage — wrong header, checksum mismatch, malformed
 * or missing fields, record-count mismatch, missing `end` trailer.
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
