/**
 * @file
 * Telemetry: the per-fabric telemetry plane. One instance is owned
 * by a StatsRegistry (so services sharing a registry feed one merged
 * view) and another by each standalone BatchSigner.
 *
 * Aggregates three sinks:
 *  - per-plane, per-stage LatencyHistograms (queue/coalesce/crypto/
 *    guard/callback/end-to-end), plus group-size and lane-fill-ratio
 *    histograms fed from the coalescing paths;
 *  - a TraceRecorder capturing complete timelines for a
 *    deterministic 1-in-N sample of requests;
 *  - drop/sample counters for self-diagnosis.
 *
 * Disarmed cost: enabled() is one relaxed load, checked once per
 * stamp/record call site.
 */

#ifndef HEROSIGN_TELEMETRY_TELEMETRY_HH
#define HEROSIGN_TELEMETRY_TELEMETRY_HH

#include "telemetry/histogram.hh"
#include "telemetry/recorder.hh"
#include "telemetry/trace.hh"

#include <atomic>
#include <map>
#include <string>

namespace herosign::telemetry
{

struct TelemetryConfig
{
    /// Master switch, also settable later via Telemetry::setEnabled.
    bool enabled = true;
    /// Record a full TraceSpan for every Nth completed request
    /// (per plane, deterministic). 0 disables span sampling.
    unsigned sampleEvery = 64;
    /// TraceRecorder ring capacity (spans retained).
    size_t traceCapacity = 1024;
};

/** Everything known about one finished request, for complete(). */
struct RequestOutcome
{
    Plane plane = Plane::Sign;
    uint64_t seq = 0;
    const std::string *tenant = nullptr; ///< optional label for spans
    uint32_t flags = 0;                  ///< kSpan* bits
    /// When false (failures), stage histograms are skipped so
    /// latency percentiles describe successful traffic only; the
    /// span (with its failure flags) is still sampled.
    bool recordHistograms = true;
    /// Optional per-tenant end-to-end sink (owned by the caller's
    /// stats registry); fed the EndToEnd metric when non-null.
    LatencyHistogram *tenantEndToEnd = nullptr;
};

class Telemetry
{
  public:
    explicit Telemetry(const TelemetryConfig &config = {});

    /** True when telemetry is enabled. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    const TelemetryConfig &config() const { return config_; }

    /** Stamp @p stage on @p tc now (no-op when disarmed). */
    void
    stamp(TraceClock &tc, Stage stage) const
    {
        if (enabled())
            tc.stamp(stage);
    }

    /**
     * Record a sealed coalesce/lockstep group: its size and its fill
     * ratio (percent of @p preferred, the lane width the scheduler
     * aims for).
     */
    void recordGroup(Plane plane, size_t size, size_t preferred);

    /**
     * Fold a finished request into the histograms and (1-in-N)
     * the trace ring. The TraceClock must carry its final stamps.
     */
    void complete(const TraceClock &tc, const RequestOutcome &out);

    /**
     * Merged snapshots of every stage histogram for @p plane, keyed
     * "<plane>_<metric>" (plus "<plane>_group_size" and
     * "<plane>_lane_fill_pct"). Empty histograms are skipped.
     */
    std::map<std::string, HistogramSnapshot>
    snapshotStages(Plane plane) const;

    /** Both planes merged into one map. */
    std::map<std::string, HistogramSnapshot> snapshotAll() const;

    const TraceRecorder &recorder() const { return recorder_; }

    /** Spans sampled into the ring so far (pre-drop). */
    uint64_t
    sampled() const
    {
        return sampled_.load(std::memory_order_relaxed);
    }

  private:
    struct PlaneSinks
    {
        LatencyHistogram stages[kStageMetricCount];
        LatencyHistogram groupSize;
        LatencyHistogram laneFillPct;
        std::atomic<uint64_t> sampleTick{0};
    };

    PlaneSinks &plane(Plane p) { return p == Plane::Sign ? sign_ : verify_; }
    const PlaneSinks &
    plane(Plane p) const
    {
        return p == Plane::Sign ? sign_ : verify_;
    }

    TelemetryConfig config_;
    std::atomic<bool> enabled_;
    PlaneSinks sign_;
    PlaneSinks verify_;
    TraceRecorder recorder_;
    std::atomic<uint64_t> sampled_{0};
};

} // namespace herosign::telemetry

#endif // HEROSIGN_TELEMETRY_TELEMETRY_HH
