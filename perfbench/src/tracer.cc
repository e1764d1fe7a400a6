#include <algorithm>
#include <atomic>
#include <fstream>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

// The innermost open span on this thread: the default parent, so the
// spans a cell opens nest under the cell span on the worker's thread.
thread_local int currentSpan = -1;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned index = next.fetch_add(1);
    return index;
}

} // anonymous namespace

int
Tracer::open(const char *name, int cell, int parent)
{
    if (!on)
        return -1;
    double now = std::chrono::duration<double>(Clock::now() - origin).count();
    std::lock_guard<std::mutex> lock(mutex);
    int id = int(spans.size());
    spans.push_back({name, cell, parent >= 0 ? parent : currentSpan, now,
                     -1.0, threadIndex()});
    currentSpan = id;
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    double now = std::chrono::duration<double>(Clock::now() - origin).count();
    std::lock_guard<std::mutex> lock(mutex);
    Span &span = spans.at(size_t(id));
    span.end = now;
    // A span opened with an explicit parent on another thread (a cell
    // under the job span) restores this thread's previous innermost.
    currentSpan = -1;
    for (int i = int(spans.size()) - 1; i >= 0; --i) {
        const Span &s = spans[size_t(i)];
        if (s.end < 0.0 && s.tid == threadIndex()) {
            currentSpan = i;
            break;
        }
    }
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && s.end >= 0.0)
            kids[size_t(s.parent)].emplace_back(s.start, s.end);

    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.end < 0.0)
            continue;
        // Children of a parallel parent overlap: subtract the union of
        // their intervals, clipped to the parent, not their sum.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::map<std::string, double> total;
    for (const Span &s : spans)
        if (s.end >= 0.0)
            total[s.name] += s.end - s.start;
    return total;
}

std::map<std::string, uint64_t>
Tracer::counts() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::map<std::string, uint64_t> n;
    for (const Span &s : spans)
        if (s.end >= 0.0)
            ++n[s.name];
    return n;
}

double
Tracer::longest(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    double best = 0.0;
    for (const Span &s : spans)
        if (s.end >= 0.0 && name == s.name)
            best = std::max(best, s.end - s.start);
    return best;
}

std::vector<std::pair<int, double>>
Tracer::spansOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::pair<int, double>> out;
    for (const Span &s : spans)
        if (s.end >= 0.0 && name == s.name)
            out.emplace_back(s.cell, s.end - s.start);
    return out;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    spans.clear();
    currentSpan = -1;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    bool first = true;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.end < 0.0)
            continue;
        os << (first ? "" : ",\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << s.start * 1e6
           << ",\"dur\":" << (s.end - s.start) * 1e6
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"cell\":" << s.cell << "}}";
        first = false;
    }
    os << "\n]}\n";
    return bool(os);
}

} // namespace perfbench
