/**
 * @file
 * Serving-plane robustness: verify-after-sign behind
 * ServiceConfig::verifyAfterSign, per-request deadlines on both
 * planes, worker supervision, close() fast-fail and the
 * callback-error counter — all with the admission ledger identities
 * intact (every failure path releases its slot, so the shared budget
 * always drains back to zero).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "../batch/batch_test_util.hh"
#include "common/errors.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using batchtest::fixedSeed;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::verifyReq;
using service::KeyStore;
using service::ServiceConfig;
using service::ServiceStats;
using service::SignService;
using service::VerifyService;
using sphincs::SphincsPlus;

namespace
{

struct ServiceRobustnessTest : ::testing::Test
{
    sphincs::Params p = miniParams();
    SphincsPlus scheme{p};
    KeyStore store;
    sphincs::KeyPair kp = scheme.keygenFromSeed(fixedSeed(p));

    void SetUp() override
    {
        FaultInjector::instance().disarm();
        sha256LanesClearQuarantines();
        store.addKey("t0", kp);
    }
    void TearDown() override
    {
        FaultInjector::instance().disarm();
        sha256LanesClearQuarantines();
    }

    ServiceConfig
    smallConfig(bool guard = false) const
    {
        ServiceConfig cfg;
        cfg.workers = 1;
        cfg.verifyWorkers = 1;
        cfg.verifyAfterSign = guard;
        return cfg;
    }
};

} // namespace

TEST_F(ServiceRobustnessTest, GuardRecoversAndKeepsLedgerClean)
{
    if (laneDispatch().backend == LaneBackend::Scalar)
        GTEST_SKIP() << "needs active SIMD dispatch";

    FaultPlan plan;
    plan.rule(FaultPoint::SimdLane).active = true;
    FaultInjector::instance().arm(plan);

    SignService svc(store, smallConfig(true));
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 4; ++i)
        futs.push_back(svc.submit("t0", signReq(patternMsg(40, i))));
    std::vector<ByteVec> sigs;
    for (auto &f : futs)
        sigs.push_back(f.get());
    svc.drain();
    FaultInjector::instance().disarm();

    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(scheme.verify(patternMsg(40, i), sigs[i], kp.pk));
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.signFailures, 0u);
    EXPECT_GE(st.guardMismatches, 1u);
    EXPECT_GE(st.laneQuarantines, 1u);
    EXPECT_EQ(svc.admission()->pendingTotal(), 0u);
}

TEST_F(ServiceRobustnessTest, DeadlinesDropOnBothPlanes)
{
    SignService sign_svc(store, smallConfig());
    const auto past =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);

    batch::SignRequest late;
    late.message = patternMsg(40, 1);
    late.deadline = past;
    auto late_fut = sign_svc.submit("t0", std::move(late));
    auto ok_fut = sign_svc.submit("t0", signReq(patternMsg(40, 2)));
    EXPECT_THROW(late_fut.get(), DeadlineExceeded);
    const ByteVec ok_sig = ok_fut.get();
    EXPECT_TRUE(scheme.verify(patternMsg(40, 2), ok_sig, kp.pk));
    sign_svc.drain();
    const ServiceStats sst = sign_svc.stats();
    EXPECT_EQ(sst.signExpired, 1u);
    EXPECT_EQ(sst.signFailures, 1u);
    // The dropped job returned its admission slot.
    EXPECT_EQ(sign_svc.admission()->pendingTotal(), 0u);

    VerifyService verify_svc(store, smallConfig());
    batch::VerifyRequest vlate;
    vlate.message = patternMsg(40, 2);
    vlate.signature = ok_sig;
    vlate.deadline = past;
    auto vlate_fut = verify_svc.submit("t0", std::move(vlate));
    auto vok_fut =
        verify_svc.submit("t0", verifyReq(patternMsg(40, 2), ok_sig));
    EXPECT_THROW(vlate_fut.get(), DeadlineExceeded);
    EXPECT_TRUE(vok_fut.get());
    verify_svc.drain();
    const ServiceStats vst = verify_svc.stats();
    EXPECT_EQ(vst.verifyExpired, 1u);
    EXPECT_EQ(vst.verifyFailures, 1u);
    EXPECT_EQ(verify_svc.admission()->pendingTotal(), 0u);
}

TEST_F(ServiceRobustnessTest, ThrowingCallbackIsCountedNotFatal)
{
    SignService svc(store, smallConfig());
    batch::SignRequest req;
    req.message = patternMsg(40, 3);
    req.callback = [](uint64_t, const ByteVec &) {
        throw std::runtime_error("user callback bug");
    };
    auto fut = svc.submit("t0", std::move(req));
    EXPECT_TRUE(scheme.verify(patternMsg(40, 3), fut.get(), kp.pk));
    svc.drain();
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.signFailures, 0u);
    EXPECT_EQ(st.callbackErrors, 1u);
}

TEST_F(ServiceRobustnessTest, WorkersSurviveEscapedExceptions)
{
    FaultPlan plan;
    FaultRule &rule = plan.rule(FaultPoint::WorkerThrow);
    rule.active = true;
    rule.max = 1;
    FaultInjector::instance().arm(plan);

    SignService svc(store, smallConfig());
    EXPECT_THROW(svc.submit("t0", signReq(patternMsg(40, 0))).get(),
                 FaultInjected);
    // The supervised worker is still alive and signing.
    EXPECT_TRUE(scheme.verify(
        patternMsg(40, 1),
        svc.submit("t0", signReq(patternMsg(40, 1))).get(), kp.pk));
    svc.drain();
    FaultInjector::instance().disarm();
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.workerRestarts, 1u);
    EXPECT_EQ(st.signFailures, 1u);
    EXPECT_EQ(svc.admission()->pendingTotal(), 0u);
    EXPECT_EQ(svc.workers(), 1u);
}

TEST_F(ServiceRobustnessTest, CloseFailsQueuedWorkOnBothPlanes)
{
    auto sign_svc =
        std::make_unique<SignService>(store, smallConfig());
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 12; ++i)
        futs.push_back(
            sign_svc->submit("t0", signReq(patternMsg(40, i))));
    sign_svc->close();
    unsigned signed_ok = 0, shut_down = 0;
    for (unsigned i = 0; i < 12; ++i) {
        try {
            EXPECT_TRUE(scheme.verify(patternMsg(40, i),
                                      futs[i].get(), kp.pk));
            ++signed_ok;
        } catch (const ServiceShutdown &) {
            ++shut_down;
        }
    }
    EXPECT_EQ(signed_ok + shut_down, 12u);
    EXPECT_EQ(sign_svc->pending(), 0u);
    // Every slot came back, whether the job signed or was failed.
    EXPECT_EQ(sign_svc->admission()->pendingTotal(), 0u);
    EXPECT_THROW(sign_svc->submit("t0", signReq(patternMsg(40, 99))),
                 ServiceShutdown);
    sign_svc.reset();

    // Verify plane: sign a valid pair first, then close over a
    // backlog of async verifies.
    const ByteVec msg = patternMsg(40, 7);
    const ByteVec sig = scheme.sign(msg, kp.sk);
    auto verify_svc =
        std::make_unique<VerifyService>(store, smallConfig());
    std::vector<std::future<bool>> vfuts;
    for (unsigned i = 0; i < 12; ++i)
        vfuts.push_back(verify_svc->submit("t0", verifyReq(msg, sig)));
    verify_svc->close();
    unsigned verdicts = 0, vshut = 0;
    for (auto &f : vfuts) {
        try {
            EXPECT_TRUE(f.get());
            ++verdicts;
        } catch (const ServiceShutdown &) {
            ++vshut;
        }
    }
    EXPECT_EQ(verdicts + vshut, 12u);
    EXPECT_EQ(verify_svc->pending(), 0u);
    EXPECT_EQ(verify_svc->admission()->pendingTotal(), 0u);
    EXPECT_THROW(verify_svc->submit("t0", verifyReq(msg, sig)),
                 ServiceShutdown);
}
