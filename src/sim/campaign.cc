#include "sim/campaign.hh"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <fcntl.h>
#include <map>
#include <poll.h>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "sim/jsonfields.hh"

namespace zmt
{

// ---------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------

std::optional<double>
parseSeconds(std::string_view text)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    auto [stop, error] = std::from_chars(text.data(), end, v,
                                         std::chars_format::general);
    if (error != std::errc() || stop != end || !(v >= 0.0) ||
        v > MaxBudgetSeconds)
        return std::nullopt;
    return v;
}

void
parseCampaignFlags(int &argc, char **argv, CampaignOptions &opts)
{
    int out = 1;
    // Accept both "--flag VALUE" and "--flag=VALUE", like parseJobsFlag.
    auto takeValue = [&](int &i, const char *arg, const char *name,
                         const char **value) -> bool {
        size_t n = std::strlen(name);
        if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
            *value = arg + n + 1;
            return true;
        }
        if (std::strcmp(arg, name) == 0) {
            fatal_if(i + 1 >= argc, "%s needs a value", name);
            *value = argv[++i];
            return true;
        }
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--isolate") == 0) {
            opts.isolate = true;
        } else if (takeValue(i, arg, "--timeout", &value)) {
            std::optional<double> seconds = parseSeconds(value);
            fatal_if(!seconds, "bad --timeout value '%s'", value);
            opts.timeoutSeconds = *seconds;
        } else if (takeValue(i, arg, "--retries", &value)) {
            opts.retries = parseUnsigned<unsigned>("--retries", value);
        } else if (takeValue(i, arg, "--shard", &value)) {
            std::string_view text = value;
            size_t slash = text.find('/');
            const uint64_t max = std::numeric_limits<unsigned>::max();
            std::optional<uint64_t> index, count;
            if (slash != std::string_view::npos) {
                index = parseDecimal(text.substr(0, slash), max);
                count = parseDecimal(text.substr(slash + 1), max);
            }
            fatal_if(!index || !count || *index >= *count,
                     "bad --shard value '%s' (want I/N with I < N)", value);
            opts.shardIndex = unsigned(*index);
            opts.shardCount = unsigned(*count);
        } else if (takeValue(i, arg, "--journal", &value)) {
            opts.journalPath = value;
        } else if (takeValue(i, arg, "--resume", &value)) {
            opts.resumePath = value;
        } else {
            argv[out++] = argv[i];
        }
    }
    argv[out] = nullptr;
    argc = out;
}

// ---------------------------------------------------------------------
// Job identity + serialization
// ---------------------------------------------------------------------

std::string
sweepJobKey(const SweepJob &job)
{
    return hex64(fnv1a64(job.label + '\n' +
                         cellKey(job.params, job.workloads) +
                         "\nskip:" + (job.skipBaseline ? "1" : "0")));
}

/** JobFailure's field list: the results cell's "failure" object and a
 *  failed journal record. In namespace zmt, not the anonymous one, so
 *  that argument-dependent lookup finds it. */
template <RecordOf<JobFailure> R, typename V>
void
visitFields(R &f, V &&v)
{
    v("status", f.status);
    v("exit_code", f.exitCode);
    v("signal", f.termSignal);
    v("attempts", f.attempts);
    v("quarantined", f.quarantined);
    v("message", f.message);
    v("stderr_tail", f.stderrTail);
}

// ---------------------------------------------------------------------
// Process isolation
// ---------------------------------------------------------------------

namespace
{

constexpr size_t StderrTailBytes = 4096;

/**
 * Bound a captured stderr stream to ~StderrTailBytes, keeping both
 * ends: the head holds the cause (panic/fatal print first), the tail
 * holds the end of any crash-hook state dump that follows it.
 */
std::string
tailOf(const std::string &text)
{
    if (text.size() <= StderrTailBytes)
        return text;
    const size_t half = StderrTailBytes / 2;
    return text.substr(0, half) + "\n...[" +
           std::to_string(text.size() - 2 * half) +
           " bytes elided]...\n" + text.substr(text.size() - half);
}

} // anonymous namespace

ChildResult
runInForkedChild(const std::function<std::string()> &fn,
                 double timeoutSeconds)
{
    ChildResult res;

    int resultPipe[2];
    int errPipe[2];
    if (::pipe(resultPipe) != 0) {
        res.stderrTail = "pipe() failed";
        return res;
    }
    if (::pipe(errPipe) != 0) {
        ::close(resultPipe[0]);
        ::close(resultPipe[1]);
        res.stderrTail = "pipe() failed";
        return res;
    }

    auto start = std::chrono::steady_clock::now();
    pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {resultPipe[0], resultPipe[1], errPipe[0],
                       errPipe[1]})
            ::close(fd);
        res.stderrTail = "fork() failed";
        return res;
    }

    if (pid == 0) {
        // Child: run fn() with stderr captured, write the payload over
        // the result pipe and _exit without running atexit handlers or
        // static destructors (glibc's fork leaves malloc and stdio
        // consistent even when the parent has worker threads).
        ::close(resultPipe[0]);
        ::close(errPipe[0]);
        ::dup2(errPipe[1], 2);
        ::close(errPipe[1]);
        std::string payload = fn();
        const char *p = payload.data();
        size_t left = payload.size();
        while (left > 0) {
            ssize_t w = ::write(resultPipe[1], p, left);
            if (w <= 0)
                break;
            p += size_t(w);
            left -= size_t(w);
        }
        ::close(resultPipe[1]);
        ::_exit(0);
    }

    // Parent: drain both pipes to EOF, enforcing the wall-clock budget.
    ::close(resultPipe[1]);
    ::close(errPipe[1]);

    std::string payload;
    std::string childErr;
    std::string *sinks[2] = {&payload, &childErr};
    struct pollfd fds[2] = {{resultPipe[0], POLLIN, 0},
                            {errPipe[0], POLLIN, 0}};
    bool killed = false;
    int openFds = 2;
    while (openFds > 0) {
        int timeoutMs = -1;
        if (timeoutSeconds > 0.0 && !killed) {
            double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
            double budget = timeoutSeconds - elapsed;
            if (budget <= 0.0) {
                ::kill(pid, SIGKILL);
                killed = true;
            } else {
                timeoutMs = int(budget * 1000.0) + 1;
            }
        }
        int rv = ::poll(fds, 2, timeoutMs);
        if (rv < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rv == 0)
            continue; // deadline re-checked at the top
        for (int i = 0; i < 2; ++i) {
            if (fds[i].fd < 0 || fds[i].revents == 0)
                continue;
            char buf[4096];
            ssize_t n = ::read(fds[i].fd, buf, sizeof(buf));
            if (n > 0) {
                sinks[i]->append(buf, size_t(n));
            } else {
                ::close(fds[i].fd);
                fds[i].fd = -1;
                --openFds;
            }
        }
    }
    for (auto &fd : fds)
        if (fd.fd >= 0)
            ::close(fd.fd);

    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }

    res.payload = std::move(payload);
    res.stderrTail = tailOf(childErr);
    if (killed) {
        res.state = ChildResult::State::TimedOut;
        res.termSignal = SIGKILL;
    } else if (WIFSIGNALED(wstatus)) {
        res.state = ChildResult::State::Signaled;
        res.termSignal = WTERMSIG(wstatus);
    } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
        res.state = ChildResult::State::Exited;
        res.exitCode = WEXITSTATUS(wstatus);
    } else {
        res.state = ChildResult::State::Ok;
    }
    return res;
}

JobFailure
childFailure(const ChildResult &child)
{
    JobFailure failure;
    failure.status = child.state == ChildResult::State::TimedOut
                         ? RunStatus::Timeout
                         : RunStatus::Crashed;
    failure.exitCode = child.exitCode;
    failure.termSignal = child.termSignal;
    failure.stderrTail = child.stderrTail;
    switch (child.state) {
      case ChildResult::State::Ok:
        failure.message = "child result payload unparseable";
        break;
      case ChildResult::State::Exited:
        failure.message = "child exited with status " +
                          std::to_string(child.exitCode);
        break;
      case ChildResult::State::Signaled:
        failure.message = "child killed by signal " +
                          std::to_string(child.termSignal);
        break;
      case ChildResult::State::TimedOut:
        failure.message = "child exceeded its wall-clock budget";
        break;
      case ChildResult::State::ForkFailed:
        failure.message =
            "could not fork an isolated child: " + child.stderrTail;
        break;
    }
    return failure;
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

namespace
{

const char JournalHeader[] = "zmt-journal-v3";

/** A record's JSON: key, label, and the outcome of a cell with a
 *  result or the failure of one without. */
std::string
journalPayload(const JournalRecord &rec)
{
    std::ostringstream os;
    os << '{';
    JsonFieldWriter member(os);
    member("key", rec.key);
    member("label", rec.label);
    if (rec.outcome.ok()) {
        os << ",\"outcome\":";
        writeSweepOutcome(os, rec.outcome.outcome);
    } else {
        member("failure", rec.outcome.failure);
    }
    os << '}';
    return os.str();
}

bool
parseJournalPayload(const std::string &payload, JournalRecord *rec)
{
    jsonspan::Span root, outcome;
    if (!jsonspan::validate(payload, &root))
        return false;
    JournalRecord r;
    JsonFieldReader member(payload, root);
    member("key", r.key);
    member("label", r.label);
    if (jsonspan::objectField(payload, root, "outcome", &outcome)) {
        r.outcome.state = CellState::Done;
        if (!parseSweepOutcome(outcome.text(payload), &r.outcome.outcome))
            return false;
    } else {
        r.outcome.state = CellState::Failed;
        member("failure", r.outcome.failure);
    }
    if (!member.ok())
        return false;
    *rec = std::move(r);
    return true;
}

bool
parseJournalLine(const std::string &line, JournalRecord *rec,
                 std::string *why)
{
    std::string payload;
    if (!openRecord(line, &payload, why))
        return false;
    if (!parseJournalPayload(payload, rec)) {
        *why = "record does not decode";
        return false;
    }
    return true;
}

} // anonymous namespace

CampaignJournal::~CampaignJournal() { close(); }

bool
CampaignJournal::open(const std::string &path)
{
    close();
    fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
                0644);
    if (fd < 0)
        return false;
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size == 0) {
        std::string header = std::string(JournalHeader) + "\n";
        if (::write(fd, header.data(), header.size()) !=
            ssize_t(header.size())) {
            close();
            return false;
        }
        ::fsync(fd);
    }
    return true;
}

void
CampaignJournal::append(const JournalRecord &record)
{
    if (fd < 0)
        return;
    std::string line = sealRecord(journalPayload(record)) + "\n";
    std::lock_guard<std::mutex> lock(mutex);
    // One write() + fsync per record: O_APPEND makes the write atomic
    // with respect to other appenders, and a crash can at worst leave
    // one truncated trailing line — which loadJournal tolerates.
    ssize_t written = ::write(fd, line.data(), line.size());
    if (written != ssize_t(line.size())) {
        warn("campaign journal append failed (%zd of %zu bytes)",
             written, line.size());
        return;
    }
    ::fsync(fd);
}

void
CampaignJournal::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool
loadJournal(const std::string &path, std::vector<JournalRecord> *records,
            std::string *error, bool *truncatedTrailing)
{
    if (truncatedTrailing)
        *truncatedTrailing = false;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();
    if (content.empty())
        return true;

    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < content.size()) {
        size_t nl = content.find('\n', pos);
        if (nl == std::string::npos) {
            lines.push_back(content.substr(pos));
            break;
        }
        lines.push_back(content.substr(pos, nl - pos));
        pos = nl + 1;
    }

    if (lines.empty() || lines[0] != JournalHeader) {
        if (error)
            *error = "'" + path + "' is not a " + JournalHeader + " file";
        return false;
    }

    for (size_t i = 1; i < lines.size(); ++i) {
        JournalRecord rec;
        std::string why;
        if (!parseJournalLine(lines[i], &rec, &why)) {
            // The writer appends one fsync'd line at a time, so a bad
            // FINAL line is the signature of a crash mid-append: drop
            // it and resume. A bad line anywhere else means the file
            // was damaged after the fact — refuse to trust any of it.
            if (i + 1 == lines.size()) {
                if (truncatedTrailing)
                    *truncatedTrailing = true;
                break;
            }
            if (error)
                *error = "'" + path + "' line " + std::to_string(i + 1) +
                         ": " + why;
            return false;
        }
        records->push_back(std::move(rec));
    }
    return true;
}

// ---------------------------------------------------------------------
// Campaign runner
// ---------------------------------------------------------------------

namespace
{

/** Base of the exponential backoff between a cell's attempts. */
constexpr double RetryBackoffSeconds = 0.05;

std::atomic<int> gStopRequested{0};

void
stopSignalHandler(int)
{
    gStopRequested.store(1);
}

bool
stopRequested()
{
    return gStopRequested.load() != 0;
}

void
sleepWithStopCheck(double seconds)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(seconds);
    while (!stopRequested() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

SweepOutcome
measureJob(const SweepJob &job)
{
    SweepOutcome outcome;
    auto start = std::chrono::steady_clock::now();
    outcome.result =
        measurePenalty(job.params, job.workloads, job.skipBaseline);
    outcome.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return outcome;
}

bool
sameFailureSignature(const JobFailure &a, const JobFailure &b)
{
    return a.status == b.status && a.exitCode == b.exitCode &&
           a.termSignal == b.termSignal;
}

} // anonymous namespace

CampaignRunner::CampaignRunner(CampaignOptions opts, unsigned jobs)
    : options(std::move(opts)), runner(jobs)
{
}

void
CampaignRunner::requestStop()
{
    gStopRequested.store(1);
}

CampaignOutcome
CampaignRunner::attemptJob(const SweepJob &job)
{
    CampaignOutcome out;

    // A timeout can only be enforced on a killable child, so
    // --timeout implies isolation even without --isolate.
    if (!options.isolate && options.timeoutSeconds <= 0.0) {
        out.outcome = measureJob(job);
        out.state = CellState::Done;
        return out;
    }

    ChildResult child = runInForkedChild(
        [&job] {
            std::ostringstream os;
            writeSweepOutcome(os, measureJob(job));
            return os.str();
        },
        options.timeoutSeconds);
    if (child.state == ChildResult::State::Ok &&
        parseSweepOutcome(child.payload, &out.outcome)) {
        out.state = CellState::Done;
    } else {
        out.state = CellState::Failed;
        out.failure = childFailure(child);
    }
    return out;
}

CampaignOutcome
CampaignRunner::runOneJob(const SweepJob &job)
{
    const unsigned maxAttempts = options.retries + 1;
    JobFailure previous;
    CampaignOutcome out;
    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        if (attempt > 1) {
            // Exponential backoff: base * 2^(retry - 1).
            sleepWithStopCheck(RetryBackoffSeconds *
                               double(1u << (attempt - 2 > 20
                                                 ? 20
                                                 : attempt - 2)));
            // Interrupted before this retry started: report the last
            // attempt's failure as-is (not quarantined — the retry
            // budget was cut short, so a resume should try again).
            if (stopRequested())
                return out;
        }
        out = attemptJob(job);
        out.failure.attempts = attempt;
        if (out.ok())
            return out;
        // Two consecutive identical failures mean the failure is
        // deterministic — further retries just repeat the crash.
        if (attempt > 1 && sameFailureSignature(out.failure, previous)) {
            out.failure.quarantined = true;
            return out;
        }
        previous = out.failure;
        if (stopRequested())
            return out;
    }
    if (out.state == CellState::Failed)
        out.failure.quarantined = true; // retry budget exhausted
    return out;
}

std::vector<CampaignOutcome>
CampaignRunner::run(const std::vector<SweepJob> &jobs,
                    const ProgressFn &progress)
{
    std::vector<CampaignOutcome> outcomes(jobs.size());

    // Resume: last-wins map of completed cells from a prior journal.
    std::map<std::string, const JournalRecord *> resumeMap;
    std::vector<JournalRecord> resumeRecords;
    if (!options.resumePath.empty()) {
        std::string error;
        bool truncated = false;
        if (!loadJournal(options.resumePath, &resumeRecords, &error,
                         &truncated))
            fatal("cannot resume: %s", error.c_str());
        if (truncated)
            warn("resume journal '%s': dropped a truncated trailing "
                 "record (crashed mid-append)",
                 options.resumePath.c_str());
        for (const JournalRecord &rec : resumeRecords)
            resumeMap[rec.key] = &rec;
    }

    CampaignJournal journal;
    if (!options.journalPath.empty())
        fatal_if(!journal.open(options.journalPath),
                 "cannot open campaign journal '%s'",
                 options.journalPath.c_str());
    // Appending FromJournal cells again is only useful when the new
    // journal is a different file (otherwise they are already there).
    const bool rejournalResumed =
        journal.isOpen() && options.journalPath != options.resumePath;

    gStopRequested.store(0);
    wasInterrupted = false;

    struct sigaction action {};
    struct sigaction oldInt {};
    struct sigaction oldTerm {};
    action.sa_handler = stopSignalHandler;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &oldInt);
    ::sigaction(SIGTERM, &action, &oldTerm);

    std::mutex progressMutex;
    runner.parallelFor(jobs.size(), [&](size_t i) {
        if (i % options.shardCount != options.shardIndex) {
            outcomes[i].state = CellState::OtherShard;
            return;
        }
        if (stopRequested())
            return; // stays Pending: resumable
        const SweepJob &job = jobs[i];
        const std::string key = sweepJobKey(job);

        auto hit = resumeMap.find(key);
        if (hit != resumeMap.end() && hit->second->outcome.ok()) {
            outcomes[i] = hit->second->outcome;
            outcomes[i].state = CellState::FromJournal;
            if (rejournalResumed)
                journal.append({key, job.label, outcomes[i]});
            if (progress) {
                std::lock_guard<std::mutex> lock(progressMutex);
                progress(i, outcomes[i]);
            }
            return;
        }

        outcomes[i] = runOneJob(job);
        if (outcomes[i].state == CellState::Pending)
            return; // interrupted before any attempt finished
        if (journal.isOpen())
            journal.append({key, job.label, outcomes[i]});
        if (progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            progress(i, outcomes[i]);
        }
    });

    ::sigaction(SIGINT, &oldInt, nullptr);
    ::sigaction(SIGTERM, &oldTerm, nullptr);

    wasInterrupted = stopRequested();
    return outcomes;
}

// ---------------------------------------------------------------------
// Results JSON + merging
// ---------------------------------------------------------------------

std::string
jobFailureJson(const JobFailure &failure)
{
    std::ostringstream os;
    writeJsonObject(os, failure);
    return os.str();
}

std::string
campaignResultsJson(const std::string &name,
                    const std::vector<SweepJob> &jobs,
                    const std::vector<CampaignOutcome> &outcomes,
                    unsigned threads, double wallSeconds,
                    const CampaignOptions &options, bool interrupted)
{
    panic_if(jobs.size() != outcomes.size(),
             "campaign JSON: %zu jobs but %zu outcomes", jobs.size(),
             outcomes.size());

    size_t done = 0, fromJournal = 0, failed = 0, quarantined = 0;
    size_t otherShard = 0, pending = 0;
    for (const CampaignOutcome &outcome : outcomes) {
        switch (outcome.state) {
          case CellState::Done: ++done; break;
          case CellState::FromJournal: ++fromJournal; break;
          case CellState::Failed:
            ++failed;
            if (outcome.failure.quarantined)
                ++quarantined;
            break;
          case CellState::OtherShard: ++otherShard; break;
          case CellState::Pending: ++pending; break;
        }
    }

    std::ostringstream os;
    os << "{\"schema\":\"zmt-sweep-results-v1\",\"name\":\""
       << jsonEscape(name) << "\",\"jobs\":" << threads
       << ",\"wall_seconds\":" << jsonNumber(wallSeconds)
       << ",\"campaign\":{\"isolate\":"
       << (options.isolate ? "true" : "false") << ",\"timeout_seconds\":"
       << jsonNumber(options.timeoutSeconds)
       << ",\"retries\":" << options.retries
       << ",\"shard_index\":" << options.shardIndex
       << ",\"shard_count\":" << options.shardCount
       << ",\"interrupted\":" << (interrupted ? "true" : "false")
       << ",\"completed\":" << done
       << ",\"from_journal\":" << fromJournal << ",\"failed\":" << failed
       << ",\"quarantined\":" << quarantined
       << ",\"other_shard\":" << otherShard << ",\"pending\":" << pending
       << "},\"cells\":[";

    bool first = true;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CampaignOutcome &outcome = outcomes[i];
        if (outcome.state == CellState::OtherShard ||
            outcome.state == CellState::Pending)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
        if (outcome.state == CellState::Failed) {
            // No simulation result exists: zeroed counters, the
            // failure's RunStatus on the mech record, perfect null.
            SweepOutcome failedOutcome;
            failedOutcome.result.mech.status = outcome.failure.status;
            emitSweepCell(os, i, jobs[i], failedOutcome,
                          jobFailureJson(outcome.failure), true);
        } else {
            emitSweepCell(os, i, jobs[i], outcome.outcome);
        }
    }
    os << "\n]}\n";
    return os.str();
}

bool
writeCampaignResultsJson(const std::string &path, const std::string &name,
                         const std::vector<SweepJob> &jobs,
                         const std::vector<CampaignOutcome> &outcomes,
                         unsigned threads, double wallSeconds,
                         const CampaignOptions &options, bool interrupted)
{
    auto slash = path.rfind('/');
    if (slash != std::string::npos && slash > 0)
        ::mkdir(path.substr(0, slash).c_str(), 0777); // EEXIST is fine

    std::ofstream out(path);
    if (!out)
        return false;
    out << campaignResultsJson(name, jobs, outcomes, threads, wallSeconds,
                               options, interrupted);
    return bool(out);
}

bool
mergeSweepResults(const std::vector<std::string> &documents,
                  std::string *merged, std::string *error, bool allowGaps)
{
    using jsonspan::Span;

    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };

    struct MergedCell
    {
        std::string text; //!< raw emitter bytes, wall_seconds zeroed
        bool ok;          //!< "failure" member was null
    };
    std::map<size_t, MergedCell> cells;
    std::string name;
    bool haveName = false;

    for (size_t d = 0; d < documents.size(); ++d) {
        const std::string &doc = documents[d];
        auto where = [&](const std::string &what) {
            return "input " + std::to_string(d + 1) + ": " + what;
        };

        Span root;
        std::string parseError;
        if (!jsonspan::validate(doc, &root, &parseError))
            return fail(where(parseError));

        Span span;
        std::string schema;
        if (!jsonspan::objectField(doc, root, "schema", &span) ||
            !jsonspan::decodeString(doc, span, &schema))
            return fail(where("missing schema"));
        if (schema != "zmt-sweep-results-v1")
            return fail(where("unsupported schema '" + schema + "'"));

        std::string docName;
        if (!jsonspan::objectField(doc, root, "name", &span) ||
            !jsonspan::decodeString(doc, span, &docName))
            return fail(where("missing name"));
        if (!haveName) {
            name = docName;
            haveName = true;
        } else if (docName != name) {
            return fail(where("sweep name '" + docName +
                              "' does not match '" + name + "'"));
        }

        Span cellsSpan;
        std::vector<Span> elements;
        if (!jsonspan::objectField(doc, root, "cells", &cellsSpan) ||
            !jsonspan::arrayElements(doc, cellsSpan, &elements))
            return fail(where("missing cells array"));

        for (const Span &cell : elements) {
            uint64_t index = 0;
            if (!jsonspan::objectField(doc, cell, "index", &span) ||
                !jsonspan::decodeUnsigned(doc, span, &index))
                return fail(where(
                    "cell without a valid \"index\" (output of an "
                    "older sweep binary?)"));

            if (!jsonspan::objectField(doc, cell, "failure", &span))
                return fail(where("cell " + std::to_string(index) +
                                  " lacks a \"failure\" member"));
            bool cellOk = jsonspan::isNull(doc, span);

            // Zero the per-cell wall clock by splicing the raw bytes:
            // everything else is machine-independent simulator output
            // and must survive the merge byte-for-byte.
            std::string text;
            if (jsonspan::objectField(doc, cell, "wall_seconds",
                                      &span)) {
                text = doc.substr(cell.begin, span.begin - cell.begin) +
                       "0" + doc.substr(span.end, cell.end - span.end);
            } else {
                text = doc.substr(cell.begin, cell.size());
            }

            auto it = cells.find(index);
            if (it == cells.end()) {
                cells.emplace(index,
                              MergedCell{std::move(text), cellOk});
                continue;
            }
            if (cellOk && it->second.ok) {
                if (text != it->second.text)
                    return fail(where("conflicting results for cell "
                                      "index " +
                                      std::to_string(index)));
                continue; // identical duplicate (overlapping resume)
            }
            if (cellOk) {
                // ok beats failed: the resume re-ran a failed cell.
                it->second = MergedCell{std::move(text), true};
            } else if (!it->second.ok) {
                // Both failed: keep the later attempt's record.
                it->second = MergedCell{std::move(text), false};
            }
            // failed vs existing ok: drop the failed duplicate.
        }
    }

    if (!haveName)
        return fail("no input documents");

    if (!allowGaps) {
        size_t expected = 0;
        for (const auto &entry : cells) {
            if (entry.first != expected)
                return fail("cell index " + std::to_string(expected) +
                            " is missing (incomplete shard set or "
                            "interrupted campaign; --allow-gaps to "
                            "merge anyway)");
            ++expected;
        }
    }

    std::ostringstream os;
    os << "{\"schema\":\"zmt-sweep-results-v1\",\"name\":\""
       << jsonEscape(name) << "\",\"jobs\":0,\"wall_seconds\":0,"
       << "\"cells\":[";
    bool first = true;
    for (const auto &entry : cells) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  " << entry.second.text;
    }
    os << "\n]}\n";
    *merged = os.str();
    return true;
}

} // namespace zmt
