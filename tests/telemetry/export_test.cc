/**
 * @file
 * Exporter suite: drives a live SignService/VerifyService fabric,
 * then validates that the merged ServiceStats snapshot renders to
 * (a) well-formed single-line JSON carrying per-stage percentiles
 * and (b) Prometheus text exposition that passes the promCheck
 * format validator. Also covers the MetricsReporter background
 * thread (JSONL appends, final flush on stop) and the promCheck
 * validator's own rejection paths.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "../batch/batch_test_util.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "telemetry/prom_check.hh"
#include "telemetry/reporter.hh"

using namespace herosign;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::verifyReq;
using service::KeyStore;
using service::ServiceConfig;
using service::ServiceStats;
using service::SignService;
using service::StatsRegistry;
using service::VerifyService;

namespace
{

struct Fabric
{
    sphincs::Params p = miniParams();
    sphincs::SphincsPlus scheme{p};
    KeyStore store;
    ByteVec msg = patternMsg(24, 0x5a);
    ByteVec sig;

    Fabric()
    {
        auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p, 3));
        store.addKey("t0", kp);
        store.addKey("t1",
                     scheme.keygenFromSeed(batchtest::fixedSeed(p, 8)));
        sig = scheme.sign(msg, kp.sk);
    }
};

/** Run mixed traffic and return the merged fabric snapshot. */
ServiceStats
runFabric(Fabric &fx)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.verifyWorkers = 2;
    cfg.telemetry.sampleEvery = 1;
    SignService sign_svc(fx.store, cfg);
    VerifyService verify_svc(fx.store, cfg, sign_svc.contextCache(),
                             sign_svc.statsRegistry(),
                             sign_svc.admission());

    std::vector<std::future<ByteVec>> sfuts;
    std::vector<std::future<bool>> vfuts;
    for (unsigned i = 0; i < 12; ++i) {
        sfuts.push_back(sign_svc.submit(
            i % 2 ? "t0" : "t1",
            signReq(patternMsg(16, static_cast<uint8_t>(i)))));
        vfuts.push_back(
            verify_svc.submit("t0", verifyReq(fx.msg, fx.sig)));
    }
    for (auto &f : sfuts)
        f.get();
    for (auto &f : vfuts)
        EXPECT_TRUE(f.get());
    sign_svc.drain();
    verify_svc.drain();
    return sign_svc.stats().mergedWith(verify_svc.stats());
}

size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

TEST(Export, LiveFabricSnapshotCarriesStageHistograms)
{
    Fabric fx;
    const ServiceStats snap = runFabric(fx);
    ASSERT_EQ(snap.signsCompleted, 12u);
    ASSERT_EQ(snap.verifies, 12u);

    // Every always-stamped stage appears for both planes.
    for (const char *key :
         {"sign_queue_wait", "sign_crypto", "sign_callback",
          "sign_end_to_end", "sign_group_size", "sign_lane_fill_pct",
          "verify_queue_wait", "verify_crypto", "verify_callback",
          "verify_end_to_end", "verify_group_size"}) {
        ASSERT_TRUE(snap.stages.count(key)) << "missing " << key;
        EXPECT_FALSE(snap.stages.at(key).empty()) << key;
    }
    EXPECT_EQ(snap.stages.at("sign_end_to_end").count, 12u);
    EXPECT_EQ(snap.stages.at("verify_end_to_end").count, 12u);
    EXPECT_GT(snap.stages.at("sign_end_to_end").percentile(0.99),
              snap.stages.at("sign_crypto").percentile(0.5) / 2);

    // Per-tenant end-to-end latency survived the plane-masked merge.
    ASSERT_TRUE(snap.tenants.count("t0"));
    EXPECT_EQ(snap.tenants.at("t0").signLatency.count, 6u);
    EXPECT_EQ(snap.tenants.at("t0").verifyLatency.count, 12u);
    EXPECT_EQ(snap.tenants.at("t1").signLatency.count, 6u);
}

TEST(Export, JsonIsSingleLineWithExpectedSections)
{
    Fabric fx;
    const ServiceStats snap = runFabric(fx);
    const std::string json = StatsRegistry::exportJson(snap);

    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    // Balanced braces/brackets — a cheap structural check that does
    // not need a JSON parser.
    int depth = 0;
    bool inString = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(inString);

    for (const char *key :
         {"\"counters\"", "\"gauges\"", "\"cache\"", "\"tenants\"",
          "\"signs_completed\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_NE(json.find("\"stages\""), std::string::npos);
    EXPECT_NE(json.find("\"sign_end_to_end\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
}

TEST(Export, PrometheusOutputPassesFormatChecker)
{
    Fabric fx;
    const ServiceStats snap = runFabric(fx);
    const std::string prom = StatsRegistry::exportPrometheus(snap);

    auto check = telemetry::promCheck(prom);
    EXPECT_TRUE(check.ok) << [&] {
        std::string all;
        for (const auto &e : check.errors)
            all += e + "\n";
        return all;
    }();
    EXPECT_GT(check.samples, 10u);
    EXPECT_GT(check.typeDecls, 5u);

    EXPECT_NE(prom.find("herosign_signs_completed_total"),
              std::string::npos);
    EXPECT_NE(prom.find("herosign_queue_depth"), std::string::npos);
    EXPECT_NE(prom.find("herosign_stage_latency_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(prom.find("plane=\"sign\""), std::string::npos);
    EXPECT_NE(prom.find("stage=\"end_to_end\""), std::string::npos);
    EXPECT_NE(prom.find("herosign_tenant_latency_seconds"),
              std::string::npos);
    // One +Inf bucket per emitted histogram series (each series also
    // emits exactly one _count sample).
    EXPECT_GT(countOccurrences(prom, "le=\"+Inf\""), 0u);
    EXPECT_EQ(countOccurrences(prom, "le=\"+Inf\""),
              countOccurrences(prom, "_count{"));
}

TEST(Export, PromCheckRejectsMalformedExposition)
{
    // Sample without a TYPE declaration.
    auto r1 = telemetry::promCheck("orphan_metric 1\n");
    EXPECT_FALSE(r1.ok);

    // Non-cumulative buckets.
    auto r2 = telemetry::promCheck(
        "# TYPE h histogram\n"
        "h_bucket{le=\"1\"} 5\n"
        "h_bucket{le=\"2\"} 3\n"
        "h_bucket{le=\"+Inf\"} 5\n"
        "h_sum 9\n"
        "h_count 5\n");
    EXPECT_FALSE(r2.ok);

    // +Inf bucket disagrees with _count.
    auto r3 = telemetry::promCheck(
        "# TYPE h histogram\n"
        "h_bucket{le=\"+Inf\"} 4\n"
        "h_sum 9\n"
        "h_count 5\n");
    EXPECT_FALSE(r3.ok);

    // Bad metric name and bad value.
    EXPECT_FALSE(telemetry::promCheck("# TYPE 9bad counter\n").ok);
    EXPECT_FALSE(telemetry::promCheck("# TYPE m counter\nm xyz\n").ok);

    // A tiny valid document is accepted.
    auto ok = telemetry::promCheck(
        "# HELP m total things\n"
        "# TYPE m counter\n"
        "m{tenant=\"t0\"} 42\n");
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.samples, 1u);
}

TEST(Export, MetricsReporterAppendsJsonLines)
{
    const std::string path =
        testing::TempDir() + "herosign_reporter_test.jsonl";
    std::remove(path.c_str());

    int calls = 0;
    {
        telemetry::MetricsReporter reporter(
            path, std::chrono::milliseconds(20),
            [&calls]() -> std::string {
                return "{\"tick\":" + std::to_string(calls++) + "}";
            });
        std::this_thread::sleep_for(std::chrono::milliseconds(90));
        reporter.stop();
        EXPECT_GE(reporter.linesWritten(), 2u);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    size_t lines = 0;
    int lastTick = -1;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        const int tick = std::stoi(line.substr(8));
        EXPECT_GT(tick, lastTick);
        lastTick = tick;
        ++lines;
    }
    EXPECT_GE(lines, 2u);
    std::remove(path.c_str());
}
