/**
 * @file
 * In-memory spans recorded by the benchmark around every call it
 * makes into a library layer (traced runs only), and the self-time
 * arithmetic over them. Spans are written out when the run ends.
 */
#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** steady_clock in nanoseconds: the one clock of the benchmark. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One closed span. parent 0 = root; req 0 = not a request. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t req = 0;
    const char *name = ""; ///< a string literal
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** Per-name totals from selfTimes(). */
struct SpanTotals
{
    uint64_t count = 0;
    int64_t totalNs = 0; ///< summed durations
    int64_t selfNs = 0;  ///< summed durations minus child coverage
};

/**
 * Self time per span name: each span's duration minus the part of
 * its interval covered by the union of its children's intervals
 * (clipped to the parent), so overlapping children are not
 * subtracted twice.
 */
std::map<std::string, SpanTotals> selfTimes(const std::vector<Span> &spans);

/**
 * Thread-safe span sink. When disabled, open() returns 0 and every
 * other call is a no-op, so untraced runs pay one branch per site.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** A fresh span id (0 when disabled). */
    uint64_t
    newId()
    {
        return enabled_ ? next_.fetch_add(1, std::memory_order_relaxed)
                        : 0;
    }

    /** Record a finished span with a caller-chosen id. */
    void add(const Span &s);

    /** Everything recorded so far (call after the load has stopped). */
    std::vector<Span> spans() const;

    /** Write the spans as a JSON array of objects. */
    bool writeJson(const std::string &path) const;

  private:
    const bool enabled_;
    std::atomic<uint64_t> next_{1};
    mutable std::mutex m_;
    std::vector<Span> spans_; // guarded by m_
};

/** RAII span around a synchronous call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint64_t parent = 0,
               uint64_t req = 0)
        : log_(log), span_{log.newId(), parent, req, name,
                           log.enabled() ? nowNs() : 0, 0}
    {
    }
    ~ScopedSpan()
    {
        if (log_.enabled()) {
            span_.endNs = nowNs();
            log_.add(span_);
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span_.id; }

  private:
    SpanLog &log_;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
