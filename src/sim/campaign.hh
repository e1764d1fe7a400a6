/**
 * @file
 * The job runner: every sweep cell of the bench binaries runs here.
 *
 * With default options CampaignRunner runs the cells in-process on a
 * SweepRunner thread pool (sim/sweep.hh), results in submission order.
 * One pool in one process means a single panic()/abort in any of 10^5
 * configurations kills the whole campaign and discards every finished
 * cell. In the spirit of treating control-flow errors as events to
 * recover from rather than die on, the options turn a crashing or
 * hanging cell into a structured, quarantined result:
 *
 *  - process isolation: each job runs in a forked child with captured
 *    stderr, exit status and wall-clock, so panic(), sanitizer aborts
 *    and OOM kills become a typed JobFailure record instead of taking
 *    down the runner;
 *  - retry / timeout / backoff: a per-job wall-clock timeout (child is
 *    SIGKILLed), bounded retries with exponential backoff, and early
 *    quarantine when two consecutive attempts fail identically (a
 *    deterministic failure — retrying is pointless);
 *  - crash-resumable journal: an append-only fsync'd zmt-journal-v2
 *    file keyed on the job's canonical parameter + workload
 *    serialization; a truncated trailing record (the process died
 *    mid-append) is tolerated, mid-file corruption is rejected, and
 *    resuming from the journal re-runs only the missing cells;
 *  - sharding: deterministic index-modulo partitioning so N machines
 *    each run 1/N of a campaign and tools/sweep_merge reassembles the
 *    shards into output byte-identical to an unsharded run;
 *  - graceful shutdown: SIGINT/SIGTERM stop new jobs, drain in-flight
 *    ones into the journal, and leave a resumable state.
 *
 * Every record crossing this layer, a child's result or a journal
 * line, is the results-JSON object of its type, written and read from
 * one field list (sim/jsonfields.hh).
 */

#ifndef ZMT_SIM_CAMPAIGN_HH
#define ZMT_SIM_CAMPAIGN_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/core.hh"
#include "sim/sweep.hh"

namespace zmt
{

// ---------------------------------------------------------------------
// Options and failure records
// ---------------------------------------------------------------------

/** Campaign configuration (the --isolate/--timeout/... flag set). */
struct CampaignOptions
{
    bool isolate = false;        //!< run each job in a forked child
    double timeoutSeconds = 0.0; //!< per-attempt wall clock (0 = none)
    unsigned retries = 0;        //!< extra attempts after the first
    double backoffSeconds = 0.05;//!< base for exponential retry backoff
    unsigned shardIndex = 0;     //!< this process's shard (--shard i/N)
    unsigned shardCount = 1;     //!< total shards
    std::string journalPath;     //!< append results here ("" = off)
    std::string resumePath;      //!< skip cells journaled here ("" = off)
};

/**
 * Parse and strip the campaign flags from argv (compacting argc):
 * --isolate, --timeout S, --retries N, --backoff S, --shard I/N,
 * --journal PATH, --resume PATH. Shared by the bench binaries so
 * every campaign consumer spells fault tolerance the same way.
 */
void parseCampaignFlags(int &argc, char **argv, CampaignOptions &opts);

/** Typed failure record for a cell whose every attempt failed. */
struct JobFailure
{
    RunStatus status = RunStatus::Crashed; //!< Crashed or Timeout
    int exitCode = 0;       //!< child exit code (normal exit)
    int termSignal = 0;     //!< terminating signal (0 if none)
    unsigned attempts = 0;  //!< attempts consumed (1 = no retry)
    bool quarantined = false; //!< exhausted retries / deterministic
    std::string message;    //!< one-line cause
    std::string stderrTail; //!< last bytes of the child's stderr
};

/** JSON object for a JobFailure (the cell "failure" member). */
std::string jobFailureJson(const JobFailure &failure);

/** How a campaign cell ended up. */
enum class CellState : uint8_t
{
    Done,        //!< ran to completion this invocation
    FromJournal, //!< completed by a previous run; result reloaded
    Failed,      //!< every attempt failed; see failure
    OtherShard,  //!< belongs to a different --shard partition
    Pending,     //!< not started (campaign interrupted before it)
};

/** One cell's campaign outcome. */
struct CampaignOutcome
{
    CellState state = CellState::Pending;
    SweepOutcome outcome; //!< valid when ok()
    JobFailure failure;   //!< valid when state == Failed

    bool
    ok() const
    {
        return state == CellState::Done ||
               state == CellState::FromJournal;
    }
};

// ---------------------------------------------------------------------
// Job identity
// ---------------------------------------------------------------------

/**
 * Canonical identity of a sweep cell: FNV-1a over the label, the full
 * SimParams::canonicalKey(), the workload serialization and the
 * baseline flag, rendered as 16 hex digits. Two jobs with equal keys
 * simulate identically, so a journal hit can stand in for a re-run.
 */
std::string sweepJobKey(const SweepJob &job);

// ---------------------------------------------------------------------
// Process isolation
// ---------------------------------------------------------------------

/** What became of a function run in a forked child. */
struct ChildResult
{
    enum class State : uint8_t
    {
        Ok,         //!< exited 0 with a payload
        Exited,     //!< exited nonzero (fatal(), bad_alloc exit, ...)
        Signaled,   //!< killed by a signal (panic/abort, ASan, OOM)
        TimedOut,   //!< exceeded the wall-clock budget; SIGKILLed
        ForkFailed, //!< could not fork/pipe at all
    };

    State state = State::ForkFailed;
    int exitCode = 0;       //!< when Exited
    int termSignal = 0;     //!< when Signaled/TimedOut
    std::string payload;    //!< child's result pipe contents
    std::string stderrTail; //!< last bytes of captured stderr
};

/**
 * Run @p fn in a forked child; its return value travels back over a
 * pipe and its stderr is captured. @p timeoutSeconds > 0 SIGKILLs the
 * child when exceeded. The child _exit(0)s after writing the payload,
 * so a crash anywhere in @p fn (panic, sanitizer abort, OOM kill) is
 * reported as Signaled/Exited instead of killing the caller.
 *
 * Forking from a pool of worker threads is safe here because the
 * parent's worker threads do no simulation work of their own in
 * isolate mode (glibc makes malloc/stdio consistent in the child; the
 * child only takes locks no parent thread holds during sweeps).
 */
ChildResult runInForkedChild(const std::function<std::string()> &fn,
                             double timeoutSeconds);

/**
 * The failure of a child that returned no readable result: Timeout
 * when it was killed for its budget, Crashed otherwise, with its exit
 * code, signal, stderr tail and a one-line message (attempts and
 * quarantine are the retry loop's to fill in).
 */
JobFailure childFailure(const ChildResult &child);

// ---------------------------------------------------------------------
// Crash-resumable journal (schema zmt-journal-v2)
// ---------------------------------------------------------------------

/**
 * One journal record: a completed (ok or failed) cell. Failed cells
 * are journaled for the quarantine report but are re-run on resume —
 * only ok records short-circuit work.
 */
struct JournalRecord
{
    std::string key; //!< sweepJobKey of the cell
    std::string label;
    CampaignOutcome outcome; //!< loaded as Done or Failed
};

/**
 * Append-only journal writer. After the zmt-journal-v2 header line,
 * every record is one line "<16-hex fnv1a64 of the JSON> <JSON>", the
 * JSON an object {"key","label","outcome"} for an ok cell (outcome as
 * writeSweepOutcome prints it) or {"key","label","failure"} for a
 * failed one. Each line is written with a single write() and fsync'd,
 * so the strongest possible failure is one truncated trailing record —
 * which the loader tolerates by design.
 */
class CampaignJournal
{
  public:
    CampaignJournal() = default;
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /** Open (creating or appending). Returns false on I/O failure. */
    bool open(const std::string &path);

    bool isOpen() const { return fd >= 0; }

    /** Serialize, checksum, append and fsync one record. Thread-safe. */
    void append(const JournalRecord &record);

    void close();

  private:
    int fd = -1;
    std::mutex mutex;
};

/**
 * Load a journal. A malformed, checksum-failing or undecodable FINAL
 * line is tolerated (the writer died mid-append) and reported via
 * @p truncatedTrailing; a bad record anywhere else is corruption and
 * fails the load with a line-numbered error, as does any header but
 * zmt-journal-v2. Records are returned in file order; on duplicate
 * keys the last record wins (a resumed run re-ran a previously failed
 * cell).
 */
bool loadJournal(const std::string &path,
                 std::vector<JournalRecord> *records, std::string *error,
                 bool *truncatedTrailing = nullptr);

// ---------------------------------------------------------------------
// The campaign runner
// ---------------------------------------------------------------------

/** Executes sweep jobs with isolation, retries, journaling, sharding
 *  and graceful shutdown; results in submission order. */
class CampaignRunner
{
  public:
    /** Called (serialized) after each cell completes or fails. */
    using ProgressFn =
        std::function<void(size_t index, const CampaignOutcome &)>;

    CampaignRunner(CampaignOptions options, unsigned jobs = 0);

    unsigned threads() const { return runner.threads(); }

    /**
     * Run the campaign. Every job gets an outcome slot: OtherShard and
     * Pending cells simply never ran here. Fatal on an unreadable or
     * corrupt resume journal (resuming over corruption would silently
     * re-run completed work — or worse, trust damaged results).
     */
    std::vector<CampaignOutcome> run(const std::vector<SweepJob> &jobs,
                                     const ProgressFn &progress = {});

    /** A SIGINT/SIGTERM (or requestStop) ended the run early. */
    bool interrupted() const { return wasInterrupted; }

    /** Programmatic stop, equivalent to receiving SIGTERM (tests and
     *  embedding tools). */
    static void requestStop();

  private:
    CampaignOutcome runOneJob(const SweepJob &job);
    CampaignOutcome attemptJob(const SweepJob &job);

    CampaignOptions options;
    SweepRunner runner;
    bool wasInterrupted = false;
};

// ---------------------------------------------------------------------
// Campaign results JSON + shard/resume merging
// ---------------------------------------------------------------------

/**
 * The results document (schema "zmt-sweep-results-v1"):
 *
 *   { "schema", "name", "jobs": threads, "wall_seconds",
 *     "campaign": {isolate, timeout_seconds, retries, shard_index,
 *                  shard_count, interrupted, completed, from_journal,
 *                  failed, quarantined, other_shard, pending},
 *     "cells": [ emitSweepCell elements ] }
 *
 * Cells are emitted only for Done/FromJournal/Failed states, each
 * carrying its submission "index" and a "failure" member, so shard and
 * resumed outputs can be reassembled by mergeSweepResults.
 */
std::string campaignResultsJson(const std::string &name,
                                const std::vector<SweepJob> &jobs,
                                const std::vector<CampaignOutcome> &outcomes,
                                unsigned threads, double wallSeconds,
                                const CampaignOptions &options,
                                bool interrupted);

/**
 * Write campaignResultsJson to @p path (creating the parent directory
 * if it is a simple "dir/file" path). Returns false on I/O failure.
 */
bool writeCampaignResultsJson(const std::string &path,
                              const std::string &name,
                              const std::vector<SweepJob> &jobs,
                              const std::vector<CampaignOutcome> &outcomes,
                              unsigned threads, double wallSeconds,
                              const CampaignOptions &options,
                              bool interrupted);

/**
 * Merge zmt-sweep-results-v1 documents (shards of one campaign,
 * partial + resumed runs, or a single file to canonicalize). Validates
 * every document's schema, orders cells by "index", and rejects
 * duplicate indices whose payloads conflict (an ok duplicate of a
 * failed cell wins — the resume re-ran it). Host-side noise (top-level
 * jobs/wall_seconds, per-cell wall_seconds) is normalized to 0, so two
 * merges of the same simulated results are byte-identical regardless
 * of machine, thread count, interruption or sharding. Unless
 * @p allowGaps, the merged index set must be contiguous from 0.
 * Returns false with a diagnostic in @p error on any inconsistency.
 */
bool mergeSweepResults(const std::vector<std::string> &documents,
                       std::string *merged, std::string *error,
                       bool allowGaps = false);

} // namespace zmt

#endif // ZMT_SIM_CAMPAIGN_HH
