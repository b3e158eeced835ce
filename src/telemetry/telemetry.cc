#include "telemetry.hh"

namespace herosign::telemetry
{

Telemetry::Telemetry(const TelemetryConfig &config)
    : config_(config), enabled_(config.enabled),
      recorder_(config.traceCapacity)
{
}

void
Telemetry::recordGroup(Plane p, size_t size, size_t preferred)
{
    if (!enabled())
        return;
    PlaneSinks &sinks = plane(p);
    sinks.groupSize.record(size);
    if (preferred != 0)
        sinks.laneFillPct.record(size * 100 / preferred);
}

void
Telemetry::complete(const TraceClock &tc, const RequestOutcome &out)
{
    if (!enabled())
        return;
    PlaneSinks &sinks = plane(out.plane);
    if (out.recordHistograms)
    {
        for (unsigned m = 0; m < kStageMetricCount; ++m)
        {
            const uint64_t ns =
                tc.metric(static_cast<StageMetric>(m));
            if (ns != 0)
                sinks.stages[m].record(ns);
        }
        if (out.tenantEndToEnd != nullptr)
        {
            const uint64_t e2e = tc.metric(StageMetric::EndToEnd);
            if (e2e != 0)
                out.tenantEndToEnd->record(e2e);
        }
    }
    const unsigned every = config_.sampleEvery;
    if (every == 0)
        return;
    const uint64_t tick =
        sinks.sampleTick.fetch_add(1, std::memory_order_relaxed);
    if (tick % every != 0)
        return;
    TraceSpan span;
    span.seq = out.seq;
    span.plane = out.plane;
    span.flags = out.flags;
    for (unsigned s = 0; s < kStageCount; ++s)
        span.ts[s] = tc.ts[s];
    if (out.tenant != nullptr)
        span.setTenant(*out.tenant);
    sampled_.fetch_add(1, std::memory_order_relaxed);
    recorder_.record(span);
}

std::map<std::string, HistogramSnapshot>
Telemetry::snapshotStages(Plane p) const
{
    std::map<std::string, HistogramSnapshot> out;
    const PlaneSinks &sinks = plane(p);
    const std::string prefix = std::string(planeName(p)) + "_";
    for (unsigned m = 0; m < kStageMetricCount; ++m)
    {
        auto snap = sinks.stages[m].snapshot();
        if (!snap.empty())
            out.emplace(
                prefix +
                    stageMetricName(static_cast<StageMetric>(m)),
                std::move(snap));
    }
    if (auto snap = sinks.groupSize.snapshot(); !snap.empty())
        out.emplace(prefix + "group_size", std::move(snap));
    if (auto snap = sinks.laneFillPct.snapshot(); !snap.empty())
        out.emplace(prefix + "lane_fill_pct", std::move(snap));
    return out;
}

std::map<std::string, HistogramSnapshot>
Telemetry::snapshotAll() const
{
    auto out = snapshotStages(Plane::Sign);
    auto verify = snapshotStages(Plane::Verify);
    for (auto &[key, snap] : verify)
        out.emplace(key, std::move(snap));
    return out;
}

} // namespace herosign::telemetry
