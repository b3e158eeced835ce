/**
 * @file
 * TraceClock and TraceRecorder suite: stage-delta semantics (missing
 * and inverted stamps degrade to 0, never underflow), deterministic
 * 1-in-N span sampling through Telemetry::complete, ring wrap
 * retention, flag/tenant preservation, and concurrent record+dump
 * (a TSan target — the recorder claims slots per-entry, no global
 * lock).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/recorder.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"

using namespace herosign::telemetry;

namespace
{

TraceClock clockWithStamps(uint64_t base)
{
    TraceClock tc;
    tc.stamp(Stage::Admit, base);
    tc.stamp(Stage::Dequeue, base + 100);
    tc.stamp(Stage::GroupFormed, base + 150);
    tc.stamp(Stage::CryptoStart, base + 160);
    tc.stamp(Stage::CryptoEnd, base + 1160);
    tc.stamp(Stage::GuardEnd, base + 1360);
    tc.stamp(Stage::Done, base + 1400);
    return tc;
}

} // namespace

TEST(TraceClock, MetricsDecomposeTheTimeline)
{
    const TraceClock tc = clockWithStamps(5000);
    EXPECT_EQ(tc.metric(StageMetric::QueueWait), 100u);
    EXPECT_EQ(tc.metric(StageMetric::CoalesceWait), 50u);
    EXPECT_EQ(tc.metric(StageMetric::Crypto), 1000u);
    EXPECT_EQ(tc.metric(StageMetric::Guard), 200u);
    EXPECT_EQ(tc.metric(StageMetric::Callback), 40u);
    EXPECT_EQ(tc.metric(StageMetric::EndToEnd), 1400u);
    // Stage sums reconstruct the end-to-end latency exactly when
    // every checkpoint is stamped.
    uint64_t sum = 0;
    for (unsigned m = 0; m + 1 < kStageMetricCount; ++m)
        sum += tc.metric(static_cast<StageMetric>(m));
    // QueueWait+CoalesceWait+Crypto+Guard+Callback misses only the
    // GroupFormed→CryptoStart gap (10ns here).
    EXPECT_EQ(sum + 10, tc.metric(StageMetric::EndToEnd));
}

TEST(TraceClock, MissingOrInvertedStampsYieldZero)
{
    TraceClock tc;
    EXPECT_FALSE(tc.stamped(Stage::Admit));
    EXPECT_EQ(tc.metric(StageMetric::EndToEnd), 0u);

    tc.stamp(Stage::Admit, 1000);
    // Done never stamped.
    EXPECT_EQ(tc.metric(StageMetric::EndToEnd), 0u);
    // Inverted pair: Done before Admit (e.g. clock reuse) — 0, not
    // an underflowed huge number.
    tc.stamp(Stage::Done, 500);
    EXPECT_EQ(tc.metric(StageMetric::EndToEnd), 0u);
    EXPECT_EQ(tc.delta(Stage::Admit, Stage::Done), 0u);
    tc.stamp(Stage::Done, 1700);
    EXPECT_EQ(tc.metric(StageMetric::EndToEnd), 700u);
}

TEST(TraceRecorder, RoundTripsSpansWithFlagsAndTenant)
{
    TraceRecorder rec(8);
    TraceSpan s;
    s.seq = 42;
    s.plane = Plane::Verify;
    s.flags = kSpanFailed | kSpanLaneQuarantine;
    s.setTenant("tenant-zero");
    s.ts[0] = 10;
    s.ts[6] = 90;
    rec.record(s);

    auto spans = rec.dump();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].seq, 42u);
    EXPECT_EQ(spans[0].plane, Plane::Verify);
    EXPECT_EQ(spans[0].flags, kSpanFailed | kSpanLaneQuarantine);
    EXPECT_STREQ(spans[0].tenant, "tenant-zero");
    EXPECT_EQ(spans[0].ts[0], 10u);
    EXPECT_EQ(spans[0].ts[6], 90u);
    EXPECT_EQ(rec.offered(), 1u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, TenantNamesTruncateSafely)
{
    TraceSpan s;
    const std::string longName(64, 'x');
    s.setTenant(longName);
    EXPECT_EQ(std::strlen(s.tenant), TraceSpan::kTenantBytes - 1);
}

TEST(TraceRecorder, RingWrapKeepsTheNewestSpans)
{
    constexpr size_t kCap = 16;
    TraceRecorder rec(kCap);
    for (uint64_t i = 0; i < 3 * kCap; ++i) {
        TraceSpan s;
        s.seq = i;
        rec.record(s);
    }
    auto spans = rec.dump();
    ASSERT_EQ(spans.size(), kCap);
    // Oldest-first, gap-free indices covering the last kCap records.
    for (size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].index, 2 * kCap + i);
        EXPECT_EQ(spans[i].seq, 2 * kCap + i);
    }
}

TEST(TraceRecorder, ConcurrentRecordAndDumpNeverTear)
{
    TraceRecorder rec(32);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < 4; ++t) {
        writers.emplace_back([&rec, &stop, t] {
            uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                TraceSpan s;
                s.seq = n++;
                // All stamps equal per span: a torn copy would show
                // mixed values.
                const uint64_t v = (uint64_t{t} << 32) | s.seq;
                for (auto &ts : s.ts)
                    ts = v;
                rec.record(s);
            }
        });
    }
    for (int i = 0; i < 500; ++i) {
        auto spans = rec.dump();
        for (const auto &s : spans) {
            for (unsigned j = 1; j < kStageCount; ++j)
                ASSERT_EQ(s.ts[j], s.ts[0]) << "torn span copy";
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &w : writers)
        w.join();
    // Accounting closes: everything offered was either stored or
    // counted as dropped.
    EXPECT_GE(rec.offered(), rec.dropped());
}

TEST(Telemetry, SamplesDeterministicallyOneInN)
{
    TelemetryConfig cfg;
    cfg.sampleEvery = 4;
    cfg.traceCapacity = 256;
    Telemetry tel(cfg);

    const std::string tenant = "t0";
    for (uint64_t i = 0; i < 100; ++i) {
        TraceClock tc = clockWithStamps(1000 * (i + 1));
        RequestOutcome out;
        out.plane = Plane::Sign;
        out.seq = i;
        out.tenant = &tenant;
        tel.complete(tc, out);
    }
    EXPECT_EQ(tel.sampled(), 25u);
    auto spans = tel.recorder().dump();
    ASSERT_EQ(spans.size(), 25u);
    // Sampled spans carry the full reconstructed timeline.
    for (const auto &s : spans) {
        EXPECT_EQ(s.plane, Plane::Sign);
        EXPECT_STREQ(s.tenant, "t0");
        for (unsigned j = 0; j < kStageCount; ++j)
            EXPECT_NE(s.ts[j], 0u);
        EXPECT_EQ(s.ts[6] - s.ts[0], 1400u);
    }
    // Histograms saw every completion, not just the sampled ones.
    auto stages = tel.snapshotStages(Plane::Sign);
    ASSERT_TRUE(stages.count("sign_end_to_end"));
    EXPECT_EQ(stages.at("sign_end_to_end").count, 100u);
    EXPECT_EQ(stages.at("sign_end_to_end").max, 1400u);
    ASSERT_TRUE(stages.count("sign_crypto"));
    EXPECT_EQ(stages.at("sign_crypto").count, 100u);
}

TEST(Telemetry, SampleEveryZeroDisablesSpans)
{
    TelemetryConfig cfg;
    cfg.sampleEvery = 0;
    Telemetry tel(cfg);
    for (uint64_t i = 0; i < 10; ++i) {
        RequestOutcome out;
        tel.complete(clockWithStamps(100 * (i + 1)), out);
    }
    EXPECT_EQ(tel.sampled(), 0u);
    EXPECT_TRUE(tel.recorder().dump().empty());
    // Histograms still fed.
    auto stages = tel.snapshotStages(Plane::Sign);
    EXPECT_EQ(stages.at("sign_end_to_end").count, 10u);
}

TEST(Telemetry, FailedRequestsSkipHistogramsButKeepSpans)
{
    TelemetryConfig cfg;
    cfg.sampleEvery = 1;
    Telemetry tel(cfg);
    RequestOutcome out;
    out.flags = kSpanFailed | kSpanExpired;
    out.recordHistograms = false;
    tel.complete(clockWithStamps(1000), out);

    auto stages = tel.snapshotStages(Plane::Sign);
    EXPECT_EQ(stages.count("sign_end_to_end"), 0u);
    auto spans = tel.recorder().dump();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].flags, kSpanFailed | kSpanExpired);
}

TEST(Telemetry, RuntimeDisableStopsStampsAndCompletions)
{
    TelemetryConfig cfg;
    cfg.sampleEvery = 1;
    Telemetry tel(cfg);
    tel.setEnabled(false);
    EXPECT_FALSE(tel.enabled());

    TraceClock tc;
    tel.stamp(tc, Stage::Admit);
    EXPECT_FALSE(tc.stamped(Stage::Admit));

    RequestOutcome out;
    tel.complete(clockWithStamps(1000), out);
    tel.recordGroup(Plane::Sign, 8, 8);
    EXPECT_EQ(tel.sampled(), 0u);
    EXPECT_TRUE(tel.snapshotAll().empty());

    tel.setEnabled(true);
    tel.stamp(tc, Stage::Admit);
    EXPECT_TRUE(tc.stamped(Stage::Admit));
}

TEST(Telemetry, GroupShapeHistogramsTrackFillRatio)
{
    TelemetryConfig cfg;
    Telemetry tel(cfg);
    tel.recordGroup(Plane::Sign, 8, 8);  // 100% fill
    tel.recordGroup(Plane::Sign, 4, 8);  // 50% fill
    tel.recordGroup(Plane::Verify, 2, 8);

    auto sign = tel.snapshotStages(Plane::Sign);
    ASSERT_TRUE(sign.count("sign_group_size"));
    EXPECT_EQ(sign.at("sign_group_size").count, 2u);
    EXPECT_EQ(sign.at("sign_group_size").max, 8u);
    ASSERT_TRUE(sign.count("sign_lane_fill_pct"));
    EXPECT_EQ(sign.at("sign_lane_fill_pct").max, 100u);
    EXPECT_EQ(sign.at("sign_lane_fill_pct").min, 50u);

    auto all = tel.snapshotAll();
    ASSERT_TRUE(all.count("verify_group_size"));
    EXPECT_EQ(all.at("verify_group_size").count, 1u);
}
