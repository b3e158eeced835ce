/**
 * @file
 * BatchSigner robustness: the verify-after-sign guard (with SIMD-tier
 * quarantine and forced-scalar re-sign under injected lane faults),
 * per-request deadlines, worker supervision, close() fast-fail
 * semantics and the callback-error counter. Fault plans are armed
 * programmatically around drained windows, so every schedule is
 * deterministic.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "batch/batch_signer.hh"
#include "batch_test_util.hh"
#include "common/errors.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::batch;
using batchtest::fixedSeed;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using sphincs::SphincsPlus;

namespace
{

struct RobustnessTest : ::testing::Test
{
    sphincs::Params p = miniParams();
    SphincsPlus scheme{p};
    sphincs::KeyPair kp = scheme.keygenFromSeed(fixedSeed(p));

    void SetUp() override
    {
        FaultInjector::instance().disarm();
        sha256LanesClearQuarantines();
    }
    void TearDown() override
    {
        FaultInjector::instance().disarm();
        sha256LanesClearQuarantines();
    }

    BatchSignerConfig
    smallConfig(bool guard = false) const
    {
        BatchSignerConfig cfg;
        cfg.workers = 1;
        cfg.verifyAfterSign = guard;
        return cfg;
    }
};

} // namespace

TEST_F(RobustnessTest, VerifyAfterSignPassesCleanTrafficThrough)
{
    BatchSigner signer(p, kp.sk, smallConfig(true));
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 6; ++i)
        futs.push_back(signer.submit(signReq(patternMsg(40, i))));
    for (unsigned i = 0; i < 6; ++i) {
        const ByteVec sig = futs[i].get();
        EXPECT_TRUE(scheme.verify(patternMsg(40, i), sig, kp.pk));
    }
    const BatchStats st = signer.drain();
    EXPECT_EQ(st.jobs, 6u);
    EXPECT_EQ(st.failures, 0u);
    EXPECT_EQ(st.guardMismatches, 0u);
    EXPECT_EQ(st.laneQuarantines, 0u);
}

TEST_F(RobustnessTest, GuardRecoversFromInjectedSimdLaneFaults)
{
    if (laneDispatch().backend == LaneBackend::Scalar)
        GTEST_SKIP() << "needs active SIMD dispatch (the simd-lane "
                        "point never fires on scalar tails)";

    // Corrupt one SIMD-produced digest in every fused one-block
    // batch: effectively every signature from a SIMD tier is bad.
    FaultPlan plan;
    plan.rule(FaultPoint::SimdLane).active = true;
    FaultInjector::instance().arm(plan);

    BatchSigner signer(p, kp.sk, smallConfig(true));
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 4; ++i)
        futs.push_back(signer.submit(signReq(patternMsg(40, i))));
    std::vector<ByteVec> sigs;
    for (auto &f : futs)
        sigs.push_back(f.get()); // no SigningFault: scalar redo wins
    const BatchStats st = signer.drain();
    FaultInjector::instance().disarm();

    // Every released signature verifies pristinely — corrupt bytes
    // never escaped the guard.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(scheme.verify(patternMsg(40, i), sigs[i], kp.pk));
    EXPECT_EQ(st.failures, 0u);
    EXPECT_GE(st.guardMismatches, 1u);
    // The guard demoted the faulty tier(s); once dispatch reaches the
    // portable path the fault point goes dead by construction.
    EXPECT_GE(st.laneQuarantines, 1u);
    EXPECT_LE(st.laneQuarantines, 2u);
    EXPECT_GE(sha256LanesQuarantineCount(), 1u);
    EXPECT_EQ(laneDispatch().backend, LaneBackend::Scalar);
}

TEST_F(RobustnessTest, ExpiredDeadlinesDropWithTypedError)
{
    BatchSigner signer(p, kp.sk, smallConfig());
    const auto past =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);

    SignRequest late;
    late.message = patternMsg(40, 1);
    late.deadline = past;
    auto late_fut = signer.submit(std::move(late));
    auto ok_fut = signer.submit(signReq(patternMsg(40, 2)));

    EXPECT_THROW(late_fut.get(), DeadlineExceeded);
    EXPECT_TRUE(
        scheme.verify(patternMsg(40, 2), ok_fut.get(), kp.pk));
    const BatchStats st = signer.drain();
    EXPECT_EQ(st.jobs, 2u);
    EXPECT_EQ(st.expired, 1u);
    EXPECT_EQ(st.failures, 1u); // the expired job is the failure
}

TEST_F(RobustnessTest, ThrowingCallbackIsCountedNotFatal)
{
    BatchSigner signer(p, kp.sk, smallConfig());
    SignRequest req;
    req.message = patternMsg(40, 3);
    req.callback = [](uint64_t, const ByteVec &) {
        throw std::runtime_error("user callback bug");
    };
    auto fut = signer.submit(std::move(req));
    EXPECT_TRUE(scheme.verify(patternMsg(40, 3), fut.get(), kp.pk));
    const BatchStats st = signer.drain();
    EXPECT_EQ(st.failures, 0u);
    EXPECT_EQ(st.callbackErrors, 1u);
}

TEST_F(RobustnessTest, WorkerSurvivesEscapedExceptions)
{
    // The first two worker passes throw outside every per-job
    // handler; supervision must fail only those passes' jobs and
    // keep the (single) worker alive.
    FaultPlan plan;
    FaultRule &rule = plan.rule(FaultPoint::WorkerThrow);
    rule.active = true;
    rule.max = 2;
    FaultInjector::instance().arm(plan);

    BatchSigner signer(p, kp.sk, smallConfig());
    // Sequential submit + get so each job is its own pass.
    EXPECT_THROW(signer.submit(signReq(patternMsg(40, 0))).get(),
                 FaultInjected);
    EXPECT_THROW(signer.submit(signReq(patternMsg(40, 1))).get(),
                 FaultInjected);
    EXPECT_TRUE(scheme.verify(patternMsg(40, 2),
                              signer.submit(signReq(patternMsg(40, 2)))
                                  .get(),
                              kp.pk));
    const BatchStats st = signer.drain();
    FaultInjector::instance().disarm();

    EXPECT_EQ(st.jobs, 3u);
    EXPECT_EQ(st.failures, 2u);
    EXPECT_EQ(st.workerRestarts, 2u);
    EXPECT_EQ(signer.workers(), 1u); // pool never shrank
}

TEST_F(RobustnessTest, CloseFailsQueuedJobsAndRejectsNewOnes)
{
    auto signer = std::make_unique<BatchSigner>(p, kp.sk,
                                                smallConfig());
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 16; ++i)
        futs.push_back(signer->submit(signReq(patternMsg(40, i))));
    signer->close();

    // Not one future is stranded: each either carries a signature
    // (it was in flight or signed before the close) or the typed
    // shutdown error.
    unsigned signed_ok = 0, shut_down = 0;
    for (unsigned i = 0; i < 16; ++i) {
        try {
            const ByteVec sig = futs[i].get();
            EXPECT_TRUE(
                scheme.verify(patternMsg(40, i), sig, kp.pk));
            ++signed_ok;
        } catch (const ServiceShutdown &) {
            ++shut_down;
        }
    }
    EXPECT_EQ(signed_ok + shut_down, 16u);
    EXPECT_EQ(signer->pending(), 0u);
    EXPECT_THROW(signer->submit(signReq(patternMsg(40, 99))),
                 ServiceShutdown);
    signer.reset(); // destructor after close() is a no-op join
}
