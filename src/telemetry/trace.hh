/**
 * @file
 * Stage-timed request tracing primitives.
 *
 * Every request travelling through the serving fabric carries a
 * TraceClock: a fixed array of nanosecond timestamps, one per Stage.
 * Hot paths stamp stages as the request passes checkpoints; on
 * completion the deltas between consecutive stamps decompose the
 * end-to-end latency into queue-wait / coalesce-wait / crypto /
 * guard / callback stages, each feeding its own per-plane histogram.
 *
 * With telemetry runtime-disabled (TelemetryConfig::enabled,
 * Telemetry::setEnabled) the cost is one relaxed-load branch per
 * stamp.
 */

#ifndef HEROSIGN_TELEMETRY_TRACE_HH
#define HEROSIGN_TELEMETRY_TRACE_HH

#include <chrono>
#include <cstdint>

namespace herosign::telemetry
{

/** Which serving plane a request belongs to. */
enum class Plane : uint8_t
{
    Sign = 0,
    Verify = 1,
};

constexpr const char *
planeName(Plane p)
{
    return p == Plane::Sign ? "sign" : "verify";
}

/** Checkpoints stamped onto a request as it moves through a plane. */
enum class Stage : uint8_t
{
    Admit = 0,       ///< accepted by admission control, enqueued
    Dequeue = 1,     ///< popped from the shard queue by a worker
    GroupFormed = 2, ///< coalesce chunk / same-context group sealed
    CryptoStart = 3, ///< sign/verify kernel begins
    CryptoEnd = 4,   ///< sign/verify kernel returns
    GuardEnd = 5,    ///< verify-after-sign guard done (== CryptoEnd
                     ///< when the guard is off)
    Done = 6,        ///< promise settled, callback returned
};

constexpr unsigned kStageCount = 7;

/** Derived per-request latency decompositions fed to histograms. */
enum class StageMetric : uint8_t
{
    QueueWait = 0,    ///< Admit → Dequeue
    CoalesceWait = 1, ///< Dequeue → GroupFormed
    Crypto = 2,       ///< CryptoStart → CryptoEnd
    Guard = 3,        ///< CryptoEnd → GuardEnd
    Callback = 4,     ///< GuardEnd → Done
    EndToEnd = 5,     ///< Admit → Done
};

constexpr unsigned kStageMetricCount = 6;

constexpr const char *
stageMetricName(StageMetric m)
{
    switch (m)
    {
    case StageMetric::QueueWait:
        return "queue_wait";
    case StageMetric::CoalesceWait:
        return "coalesce_wait";
    case StageMetric::Crypto:
        return "crypto";
    case StageMetric::Guard:
        return "guard";
    case StageMetric::Callback:
        return "callback";
    case StageMetric::EndToEnd:
        return "end_to_end";
    }
    return "unknown";
}

/** Monotonic wall-free nanosecond clock used for every stamp. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Compact per-request stamp card: kStageCount nanosecond timestamps,
 * 0 = never stamped. Plain (non-atomic) fields — a request is owned
 * by exactly one thread at every checkpoint, and the queue handoff
 * between stamping threads synchronises the earlier stamps.
 */
struct TraceClock
{
    uint64_t ts[kStageCount] = {};

    void
    stamp(Stage s, uint64_t ns)
    {
        ts[static_cast<unsigned>(s)] = ns;
    }

    void stamp(Stage s) { stamp(s, nowNs()); }

    uint64_t
    at(Stage s) const
    {
        return ts[static_cast<unsigned>(s)];
    }

    bool stamped(Stage s) const { return at(s) != 0; }

    /**
     * Nanoseconds from @p from to @p to; 0 when either stamp is
     * missing or the pair is inverted (e.g. a request failed before
     * reaching @p from).
     */
    uint64_t
    delta(Stage from, Stage to) const
    {
        const uint64_t a = at(from);
        const uint64_t b = at(to);
        if (a == 0 || b == 0 || b < a)
            return 0;
        return b - a;
    }

    uint64_t
    metric(StageMetric m) const
    {
        switch (m)
        {
        case StageMetric::QueueWait:
            return delta(Stage::Admit, Stage::Dequeue);
        case StageMetric::CoalesceWait:
            return delta(Stage::Dequeue, Stage::GroupFormed);
        case StageMetric::Crypto:
            return delta(Stage::CryptoStart, Stage::CryptoEnd);
        case StageMetric::Guard:
            return delta(Stage::CryptoEnd, Stage::GuardEnd);
        case StageMetric::Callback:
            return delta(Stage::GuardEnd, Stage::Done);
        case StageMetric::EndToEnd:
            return delta(Stage::Admit, Stage::Done);
        }
        return 0;
    }
};

} // namespace herosign::telemetry

#endif // HEROSIGN_TELEMETRY_TRACE_HH
