/**
 * @file
 * SignService: multi-tenant routing correctness (byte-identical to
 * the scalar per-key path), the no-per-sign-Context-construction
 * guarantee, admission control, the constructor's knob clamps and the
 * unified stats surface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>

#include "../batch/batch_test_util.hh"
#include "common/hex.hh"
#include "service/sign_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using service::KeyStore;
using service::ServiceConfig;
using service::ServiceOverload;
using service::SignService;
using sphincs::Context;
using sphincs::SphincsPlus;

namespace
{

struct Tenancy
{
    KeyStore store;
    std::map<std::string, sphincs::KeyPair> keys;
};

void
addTenants(Tenancy &t, const sphincs::Params &p, unsigned count)
{
    SphincsPlus scheme(p);
    for (unsigned i = 0; i < count; ++i) {
        const std::string id = std::string("tenant-").append(std::to_string(i));
        auto kp = scheme.keygenFromSeed(
            batchtest::fixedSeed(p, static_cast<uint8_t>(3 * i + 1)));
        t.keys.emplace(id, kp);
        t.store.addKey(id, kp);
    }
}

} // namespace

TEST(SignService, RoutesTenantsByteIdentically)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 3);

    ServiceConfig cfg;
    cfg.workers = 3;
    SignService svc(t.store, cfg);

    // Interleave tenants so routing actually multiplexes.
    std::vector<std::pair<std::string, ByteVec>> jobs;
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 12; ++i) {
        const std::string id = std::string("tenant-").append(std::to_string(i % 3));
        ByteVec msg = patternMsg(40, static_cast<uint8_t>(i));
        futs.push_back(svc.submit(id, signReq(msg)));
        jobs.emplace_back(id, std::move(msg));
    }

    SphincsPlus scheme(p);
    for (size_t i = 0; i < jobs.size(); ++i) {
        ByteVec got = futs[i].get();
        ByteVec ref =
            scheme.sign(jobs[i].second, t.keys.at(jobs[i].first).sk);
        EXPECT_EQ(hexEncode(got), hexEncode(ref)) << "job " << i;
    }
    svc.drain();

    auto st = svc.stats();
    EXPECT_EQ(st.signsSubmitted, 12u);
    EXPECT_EQ(st.signsCompleted, 12u);
    EXPECT_EQ(st.signFailures, 0u);
    EXPECT_EQ(st.inFlight, 0u);
    EXPECT_EQ(st.queueDepth, 0u);
    EXPECT_GT(st.sigsPerSec, 0.0);
    ASSERT_EQ(st.tenants.size(), 3u);
    for (const auto &[id, ts] : st.tenants) {
        EXPECT_EQ(ts.signsSubmitted, 4u) << id;
        EXPECT_EQ(ts.signsCompleted, 4u) << id;
        EXPECT_GT(ts.sigsPerSec, 0.0) << id;
    }
}

// The unified request-struct surface: per-request optRand and
// callbacks must survive the queue and the coalesced lane groups,
// with output bytes identical to the scalar per-key path.
TEST(SignService, RequestStructsCarryOptRandAndCallbacks)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 2);

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.signCoalesce = 0; // auto: coalescing active
    SignService svc(t.store, cfg);

    std::mutex m;
    std::map<uint64_t, std::string> cb_sigs;

    std::vector<std::string> ids;
    std::vector<ByteVec> msgs, rands;
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 10; ++i) {
        const std::string id =
            std::string("tenant-").append(std::to_string(i % 2));
        batch::SignRequest req;
        req.message = patternMsg(33, static_cast<uint8_t>(0x40 + i));
        if (i % 2)
            req.optRand = ByteVec(p.n, static_cast<uint8_t>(0x21 * i));
        req.callback = [&](uint64_t seq, const ByteVec &sig) {
            std::lock_guard<std::mutex> lk(m);
            cb_sigs[seq] = hexEncode(sig);
        };
        ids.push_back(id);
        msgs.push_back(req.message);
        rands.push_back(req.optRand);
        futs.push_back(svc.submit(id, std::move(req)));
    }

    SphincsPlus scheme(p);
    std::vector<std::string> got;
    for (size_t i = 0; i < futs.size(); ++i) {
        ByteVec sig = futs[i].get();
        ByteVec ref = scheme.sign(msgs[i], t.keys.at(ids[i]).sk,
                                  rands[i]);
        EXPECT_EQ(hexEncode(sig), hexEncode(ref)) << "req " << i;
        got.push_back(hexEncode(sig));
    }
    svc.drain();

    // Every callback fired, each with its own request's bytes.
    ASSERT_EQ(cb_sigs.size(), futs.size());
    std::lock_guard<std::mutex> lk(m);
    for (const auto &[seq, hex] : cb_sigs) {
        EXPECT_NE(std::find(got.begin(), got.end(), hex), got.end())
            << "seq " << seq;
    }

    auto st = svc.stats();
    EXPECT_EQ(st.signsCompleted, 10u);
    EXPECT_EQ(st.signFailures, 0u);
    // Coalescing accounting stays consistent: every cross-signed job
    // belongs to some group of >= 2, and no more jobs than submitted.
    EXPECT_LE(st.signCrossSignJobs, 10u);
    EXPECT_LE(2 * st.signLaneGroups, st.signCrossSignJobs);
}

// submitMany(span) routes a whole burst for one tenant; coalescing
// disabled via signCoalesce=1 must report zero lane groups.
TEST(SignService, SubmitManySpanAndCoalesceOff)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);

    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.signCoalesce = 1; // within-signature only
    SignService svc(t.store, cfg);

    std::vector<ByteVec> msgs;
    std::vector<batch::SignRequest> reqs;
    for (unsigned i = 0; i < 8; ++i) {
        msgs.push_back(patternMsg(24, static_cast<uint8_t>(i)));
        reqs.push_back({msgs.back(), {}, {}, {}});
    }
    // submitMany moves from the span; msgs keeps the reference copy.
    auto futs = svc.submitMany("tenant-0", reqs);
    ASSERT_EQ(futs.size(), msgs.size());

    SphincsPlus scheme(p);
    for (size_t i = 0; i < futs.size(); ++i) {
        ByteVec ref = scheme.sign(msgs[i], t.keys.at("tenant-0").sk);
        EXPECT_EQ(hexEncode(futs[i].get()), hexEncode(ref));
    }
    svc.drain();

    auto st = svc.stats();
    EXPECT_EQ(st.signsCompleted, 8u);
    EXPECT_EQ(st.signLaneGroups, 0u);
    EXPECT_EQ(st.signCrossSignJobs, 0u);
}

TEST(SignService, HotPathConstructsNoContexts)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 2);

    ServiceConfig cfg;
    cfg.workers = 2;
    SignService svc(t.store, cfg);

    // Warm-up wave: one context build per tenant, nothing else.
    const uint64_t ctx0 = Context::constructionCount();
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 8; ++i)
        futs.push_back(svc.submit(std::string("tenant-").append(std::to_string(i % 2)),
                                  signReq(patternMsg(32, i))));
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(Context::constructionCount() - ctx0, 2u);

    // Steady state: zero constructions, pure cache hits.
    const uint64_t ctx1 = Context::constructionCount();
    futs.clear();
    for (unsigned i = 0; i < 8; ++i)
        futs.push_back(svc.submit(std::string("tenant-").append(std::to_string(i % 2)),
                                  signReq(patternMsg(32, 100 + i))));
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(Context::constructionCount() - ctx1, 0u);

    auto st = svc.stats();
    EXPECT_EQ(st.cache.misses, 2u);
    EXPECT_EQ(st.cache.hits, 14u);
}

// Zero workers are clamped to one at construction, and the clamped
// service still signs.
TEST(SignService, ConstructorClampsZeroWorkers)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);

    ServiceConfig cfg;
    cfg.workers = 0;
    SignService svc(t.store, cfg);
    EXPECT_EQ(svc.workers(), 1u);
    EXPECT_EQ(svc.submit("tenant-0", signReq(patternMsg(16))).get().size(),
              p.sigBytes());
}

TEST(SignService, RejectsUnknownAndVerifyOnlyKeys)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    SphincsPlus scheme(p);
    auto vkp = scheme.keygenFromSeed(batchtest::fixedSeed(p, 99));
    t.store.addVerifyKey("verify-only", vkp.pk);

    SignService svc(t.store);
    EXPECT_THROW(svc.submit("nope", signReq(patternMsg(8))),
                 std::invalid_argument);
    EXPECT_THROW(svc.submit("verify-only", signReq(patternMsg(8))),
                 std::invalid_argument);
    EXPECT_THROW(svc.submit("tenant-0",
                            signReq(patternMsg(8), ByteVec(p.n + 1))),
                 std::invalid_argument);

    // Well-formed opt_rand still works.
    auto f = svc.submit("tenant-0",
                        signReq(patternMsg(8), ByteVec(p.n, 0xa5)));
    EXPECT_EQ(f.get(), scheme.sign(patternMsg(8),
                                   t.keys.at("tenant-0").sk,
                                   ByteVec(p.n, 0xa5)));
}

TEST(SignService, AdmissionControlBoundsPending)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);

    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.maxPending = 4;
    SignService svc(t.store, cfg);

    unsigned accepted = 0, rejected = 0;
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 64; ++i) {
        try {
            futs.push_back(
                svc.submit("tenant-0", signReq(patternMsg(16, i))));
            ++accepted;
        } catch (const ServiceOverload &) {
            ++rejected;
        }
    }
    // One worker cannot keep up with a 64-submit burst at cap 4.
    EXPECT_GT(rejected, 0u);
    EXPECT_GE(accepted, 4u);
    for (auto &f : futs)
        EXPECT_EQ(f.get().size(), p.sigBytes());
    svc.drain();

    auto st = svc.stats();
    EXPECT_EQ(st.signsSubmitted, accepted);
    EXPECT_EQ(st.signsCompleted, accepted);
    EXPECT_EQ(st.signsRejected, rejected);
    EXPECT_EQ(st.inFlight, 0u);
}

TEST(SignService, SharedCacheAcrossServices)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 2);

    auto cache = std::make_shared<service::ContextCache>(8);
    ServiceConfig cfg;
    cfg.workers = 2;
    SignService a(t.store, cfg, cache);
    SignService b(t.store, cfg, cache);

    a.submit("tenant-0", signReq(patternMsg(8))).get();
    b.submit("tenant-0", signReq(patternMsg(9))).get();

    auto st = cache->stats();
    EXPECT_EQ(st.misses, 1u); // b reused a's warm context
    EXPECT_EQ(st.hits, 1u);
}
