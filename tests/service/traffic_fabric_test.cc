/**
 * @file
 * The unified traffic fabric: a SignService/VerifyService pair
 * sharing one ContextCache, StatsRegistry and AdmissionController
 * under multi-threaded mixed traffic. Asserts the ledger identities
 * that make the merged ServiceStats snapshot trustworthy, typed
 * overload rejection on every configured limit, and sync/async verify
 * verdict identity on all Table I parameter sets. This suite is a
 * primary target of the TSan CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "../batch/batch_test_util.hh"
#include "service/admission.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::verifyReq;
using service::AdmissionController;
using service::AdmissionLimits;
using service::KeyStore;
using service::Plane;
using service::ServiceConfig;
using service::ServiceOverload;
using service::SignService;
using service::StatsRegistry;
using service::VerifyService;
using sphincs::SphincsPlus;

namespace
{

struct Tenancy
{
    sphincs::Params p = miniParams();
    SphincsPlus scheme{p};
    KeyStore store;
    std::map<std::string, sphincs::KeyPair> keys;

    explicit Tenancy(unsigned tenants)
    {
        for (unsigned i = 0; i < tenants; ++i) {
            const std::string id =
                std::string("t").append(std::to_string(i));
            auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(
                p, static_cast<uint8_t>(5 * i + 3)));
            keys.emplace(id, kp);
            store.addKey(id, kp);
        }
    }
};

/** Sum a TenantStats field across every tenant in a snapshot. */
template <typename F>
uint64_t
tenantSum(const std::map<std::string, service::TenantStats> &tenants,
          F field)
{
    uint64_t sum = 0;
    for (const auto &[id, ts] : tenants)
        sum += field(ts);
    return sum;
}

} // namespace

TEST(TrafficFabric, MixedStressKeepsLedgerIdentities)
{
    constexpr unsigned kTenants = 3;
    constexpr unsigned kProducers = 4;
    constexpr unsigned kIters = 24;

    Tenancy fx(kTenants);

    // Pre-build verify traffic: one valid and one corrupted signature
    // per tenant, so producer threads only submit (no signing cost in
    // the loop) and the expected verdict of every request is known.
    std::map<std::string, std::pair<ByteVec, ByteVec>> good, bad;
    for (const auto &[id, kp] : fx.keys) {
        ByteVec msg = patternMsg(32, static_cast<uint8_t>(id.back()));
        ByteVec sig = fx.scheme.sign(msg, kp.sk);
        good[id] = {msg, sig};
        ByteVec tampered = sig;
        tampered[11] ^= 0x20;
        bad[id] = {msg, tampered};
    }

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.verifyWorkers = 2;
    SignService sign_svc(fx.store, cfg);
    VerifyService verify_svc(fx.store, cfg, sign_svc.contextCache(),
                             sign_svc.statsRegistry(),
                             sign_svc.admission());

    std::atomic<uint64_t> verdicts_true{0}, verdicts_false{0};
    std::atomic<uint64_t> sign_ok{0};
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
            std::vector<std::future<bool>> vfuts;
            std::vector<std::future<ByteVec>> sfuts;
            for (unsigned i = 0; i < kIters; ++i) {
                const std::string id =
                    std::string("t").append(
                        std::to_string((t + i) % kTenants));
                switch (i % 4) {
                case 0:
                    sfuts.push_back(sign_svc.submit(
                        id, signReq(patternMsg(
                                16, static_cast<uint8_t>(i)))));
                    break;
                case 1:
                    vfuts.push_back(verify_svc.submit(
                        id,
                        verifyReq(good[id].first, good[id].second)));
                    break;
                case 2:
                    vfuts.push_back(verify_svc.submit(
                        id, verifyReq(bad[id].first, bad[id].second)));
                    break;
                default:
                    // Unknown tenant: rejects without throwing and
                    // must reconcile via unknownTenantRejects.
                    vfuts.push_back(verify_svc.submit(
                        "ghost", verifyReq(good["t0"].first,
                                           good["t0"].second)));
                    break;
                }
            }
            for (auto &f : vfuts) {
                if (f.get())
                    verdicts_true.fetch_add(1);
                else
                    verdicts_false.fetch_add(1);
            }
            for (auto &f : sfuts) {
                if (!f.get().empty())
                    sign_ok.fetch_add(1);
            }
        });
    }
    for (auto &th : producers)
        th.join();
    sign_svc.drain();
    verify_svc.drain();

    const uint64_t per_kind = kProducers * kIters / 4;
    EXPECT_EQ(verdicts_true.load(), per_kind);      // valid sigs
    EXPECT_EQ(verdicts_false.load(), 2 * per_kind); // bad + ghost
    EXPECT_EQ(sign_ok.load(), per_kind);

    const auto ss = sign_svc.stats();
    const auto vs = verify_svc.stats();
    const auto merged = ss.mergedWith(vs);

    // Sign-plane ledger.
    EXPECT_EQ(ss.signsSubmitted, per_kind);
    EXPECT_EQ(ss.signsCompleted, ss.signsSubmitted);
    EXPECT_EQ(ss.signFailures, 0u);
    EXPECT_EQ(ss.inFlight, 0u);

    // Verify-plane ledger: every accepted request got a verdict.
    EXPECT_EQ(vs.verifiesSubmitted, 3 * per_kind);
    EXPECT_EQ(vs.verifies + vs.verifyFailures, vs.verifiesSubmitted);
    EXPECT_EQ(vs.verifyFailures, 0u);
    EXPECT_EQ(vs.verifyInFlight, 0u);
    EXPECT_EQ(vs.verifyRejects, 2 * per_kind);
    EXPECT_EQ(vs.unknownTenantRejects, per_kind);

    // Reconciliation: per-tenant ledgers plus the unknown bucket
    // account for the global counters exactly, on the merged view.
    EXPECT_EQ(tenantSum(merged.tenants,
                        [](const auto &t) { return t.verifies; }) +
                  merged.unknownTenantRejects,
              merged.verifies);
    EXPECT_EQ(tenantSum(merged.tenants,
                        [](const auto &t) { return t.verifyRejects; }) +
                  merged.unknownTenantRejects,
              merged.verifyRejects);
    EXPECT_EQ(tenantSum(merged.tenants,
                        [](const auto &t) { return t.signsCompleted; }),
              merged.signsCompleted);
    for (const auto &[id, ts] : merged.tenants) {
        EXPECT_EQ(ts.signsSubmitted, ts.signsCompleted + ts.signFailures)
            << id;
        EXPECT_EQ(ts.verifiesSubmitted, ts.verifies + ts.verifyFailures)
            << id;
        EXPECT_EQ(ts.pending, 0u) << id;
    }

    // The shared admission budget is fully returned after drain.
    EXPECT_EQ(sign_svc.admission()->pendingTotal(), 0u);
    EXPECT_EQ(merged.tenants.count("ghost"), 0u);
}

TEST(TrafficFabric, AdmissionControllerTypesEveryRefusal)
{
    StatsRegistry reg;
    auto &t0 = reg.tenant("t0");
    auto &t1 = reg.tenant("t1");

    {
        AdmissionLimits lim;
        lim.maxPendingSign = 1;
        AdmissionController ac(lim);
        ac.admit(Plane::Sign, t0, "t0");
        try {
            ac.admit(Plane::Sign, t1, "t1");
            FAIL() << "sign cap not enforced";
        } catch (const ServiceOverload &e) {
            EXPECT_EQ(e.kind(), ServiceOverload::Kind::SignCap);
        }
        // The verify plane is not bounded by the sign cap.
        ac.admit(Plane::Verify, t1, "t1");
        ac.release(Plane::Sign, t0);
        ac.release(Plane::Verify, t1);
        EXPECT_EQ(ac.pendingTotal(), 0u);
    }
    {
        AdmissionLimits lim;
        lim.maxPendingVerify = 1;
        AdmissionController ac(lim);
        ac.admit(Plane::Verify, t0, "t0");
        try {
            ac.admit(Plane::Verify, t1, "t1");
            FAIL() << "verify cap not enforced";
        } catch (const ServiceOverload &e) {
            EXPECT_EQ(e.kind(), ServiceOverload::Kind::VerifyCap);
        }
        ac.admit(Plane::Sign, t1, "t1"); // sign plane unaffected
        ac.release(Plane::Verify, t0);
        ac.release(Plane::Sign, t1);
    }
    {
        AdmissionLimits lim;
        lim.maxPendingTotal = 2;
        AdmissionController ac(lim);
        ac.admit(Plane::Sign, t0, "t0");
        ac.admit(Plane::Verify, t0, "t0");
        try {
            ac.admit(Plane::Sign, t1, "t1");
            FAIL() << "total cap not enforced";
        } catch (const ServiceOverload &e) {
            EXPECT_EQ(e.kind(), ServiceOverload::Kind::TotalCap);
        }
        ac.release(Plane::Sign, t0);
        ac.release(Plane::Verify, t0);
    }
    {
        AdmissionLimits lim;
        lim.maxPendingPerTenant = 1;
        AdmissionController ac(lim);
        ac.admit(Plane::Sign, t0, "t0");
        try {
            ac.admit(Plane::Verify, t0, "t0");
            FAIL() << "tenant quota not enforced";
        } catch (const ServiceOverload &e) {
            EXPECT_EQ(e.kind(), ServiceOverload::Kind::TenantQuota);
        }
        // A quota refusal must not leak budget on any ledger.
        EXPECT_EQ(ac.pendingTotal(), 1u);
        ac.admit(Plane::Verify, t1, "t1"); // other tenants unaffected
        ac.release(Plane::Sign, t0);
        ac.release(Plane::Verify, t1);
        EXPECT_EQ(t0.pending.load(), 0u);
        EXPECT_EQ(t1.pending.load(), 0u);
    }
}

TEST(TrafficFabric, ServicesRejectAgainstSharedBudget)
{
    // Pre-claim slots directly on the shared controller so the
    // service-level refusal paths trigger deterministically, without
    // racing the worker pools.
    Tenancy fx(2);
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.verifyWorkers = 1;
    cfg.maxPendingTotal = 1;
    SignService sign_svc(fx.store, cfg);
    VerifyService verify_svc(fx.store, cfg, sign_svc.contextCache(),
                             sign_svc.statsRegistry(),
                             sign_svc.admission());

    auto &ac = *sign_svc.admission();
    auto &blocker = sign_svc.statsRegistry()->tenant("t1");
    ac.admit(Plane::Sign, blocker, "t1"); // budget now exhausted

    ByteVec msg = patternMsg(16);
    ByteVec sig = fx.scheme.sign(msg, fx.keys.at("t0").sk);
    EXPECT_THROW(sign_svc.submit("t0", signReq(msg)), ServiceOverload);
    EXPECT_THROW(verify_svc.submit("t0", verifyReq(msg, sig)),
                 ServiceOverload);
    EXPECT_EQ(sign_svc.stats().signsRejected, 1u);
    EXPECT_EQ(verify_svc.stats().verifiesRejected, 1u);
    // The synchronous verify path is admission-exempt: it runs on the
    // caller's thread and holds no queue slot.
    EXPECT_TRUE(verify_svc.verify("t0", msg, sig));

    ac.release(Plane::Sign, blocker, 1);
    EXPECT_TRUE(verify_svc.submit("t0", verifyReq(msg, sig)).get());
    verify_svc.drain();
    auto fut = sign_svc.submit("t0", signReq(msg));
    EXPECT_EQ(fut.get().size(), fx.p.sigBytes());
    sign_svc.drain();
    EXPECT_EQ(ac.pendingTotal(), 0u);
}

TEST(TrafficFabric, AsyncVerifyMatchesSyncOnTableIParams)
{
    // On every Table I parameter set, the async submit() must return
    // the exact verdict the synchronous path computes — for valid
    // signatures, a bit flip, a truncated signature and a wrong
    // message alike.
    for (const auto &p : sphincs::Params::all()) {
        SphincsPlus scheme(p);
        KeyStore store;
        auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p, 0x2a));
        store.addKey(p.name, kp);

        ByteVec msg = patternMsg(48, 0x11);
        ByteVec sig = scheme.sign(msg, kp.sk);
        ByteVec flipped = sig;
        flipped[sig.size() / 2] ^= 0x04;
        ByteVec truncated(sig.begin(), sig.end() - 1);
        ByteVec wrong_msg = msg;
        wrong_msg[0] ^= 0x01;

        ServiceConfig cfg;
        cfg.verifyWorkers = 2;
        VerifyService svc(store, cfg);

        const std::vector<std::pair<ByteVec, ByteVec>> cases = {
            {msg, sig}, {msg, flipped}, {msg, truncated},
            {wrong_msg, sig}};
        std::vector<std::future<bool>> futs;
        std::vector<bool> sync_verdicts;
        for (const auto &[m, s] : cases) {
            sync_verdicts.push_back(svc.verify(p.name, m, s));
            futs.push_back(
                svc.submit(p.name, verifyReq(ByteVec(m), ByteVec(s))));
        }
        for (size_t i = 0; i < cases.size(); ++i)
            EXPECT_EQ(futs[i].get(), sync_verdicts[i])
                << p.name << " case " << i;
        EXPECT_EQ(sync_verdicts,
                  (std::vector<bool>{true, false, false, false}))
            << p.name;
        svc.drain();
        auto st = svc.stats();
        EXPECT_EQ(st.verifies + st.verifyFailures,
                  st.verifiesSubmitted);
    }
}
