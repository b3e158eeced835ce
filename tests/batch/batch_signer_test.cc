/**
 * @file
 * BatchSigner correctness: batch output must byte-match sequential
 * scalar SphincsPlus signing for the same seeds — for every Table I
 * parameter set, for any worker count, with callbacks and opt_rand —
 * plus drain-on-empty / zero-message edge cases.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "batch/batch_signer.hh"
#include "batch_test_util.hh"
#include "common/hex.hh"

using namespace herosign;
using namespace herosign::batch;
using batchtest::fixedSeed;
using batchtest::miniParams;
using batchtest::patternBatch;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::signReqs;
using sphincs::Params;
using sphincs::SphincsPlus;

TEST(BatchSigner, ByteMatchesScalarForEveryTableISet)
{
    for (const Params *pp :
         {&Params::sphincs128f(), &Params::sphincs192f(),
          &Params::sphincs256f()}) {
        SphincsPlus scheme(*pp);
        auto kp = scheme.keygenFromSeed(fixedSeed(*pp));

        BatchSignerConfig cfg;
        cfg.workers = 3;
        cfg.shards = 2;
        BatchSigner signer(*pp, kp.sk, cfg);

        auto msgs = patternBatch(3);
        auto reqs = signReqs(msgs);
        auto futures = signer.submitMany(reqs);
        ASSERT_EQ(futures.size(), msgs.size());
        for (size_t i = 0; i < msgs.size(); ++i) {
            ByteVec got = futures[i].get();
            ByteVec ref = scheme.sign(msgs[i], kp.sk);
            EXPECT_EQ(hexEncode(got), hexEncode(ref))
                << pp->name << " msg " << i;
            EXPECT_TRUE(scheme.verify(msgs[i], got, kp.pk));
        }
        auto st = signer.drain();
        EXPECT_EQ(st.jobs, msgs.size());
        EXPECT_GT(st.wallUs, 0.0);
        EXPECT_GT(st.sigsPerSec, 0.0);
        EXPECT_EQ(st.failures, 0u);
    }
}

TEST(BatchSigner, WorkerCountInvariance1v8)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    auto msgs = patternBatch(12, 24);

    std::vector<std::string> sigs1, sigs8;
    {
        BatchSignerConfig cfg;
        cfg.workers = 1;
        cfg.shards = 1;
        BatchSigner signer(p, kp.sk, cfg);
        auto reqs = signReqs(msgs);
        for (auto &f : signer.submitMany(reqs))
            sigs1.push_back(hexEncode(f.get()));
    }
    {
        BatchSignerConfig cfg;
        cfg.workers = 8;
        cfg.shards = 4;
        BatchSigner signer(p, kp.sk, cfg);
        auto reqs = signReqs(msgs);
        for (auto &f : signer.submitMany(reqs))
            sigs8.push_back(hexEncode(f.get()));
    }
    EXPECT_EQ(sigs1, sigs8);
}

TEST(BatchSigner, CallbacksRunForEveryJob)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));

    BatchSignerConfig cfg;
    cfg.workers = 4;
    cfg.shards = 4;
    BatchSigner signer(p, kp.sk, cfg);

    constexpr unsigned count = 16;
    std::mutex m;
    std::vector<std::string> bySeq(count);
    std::atomic<unsigned> calls{0};

    std::vector<std::future<ByteVec>> futures;
    for (unsigned i = 0; i < count; ++i) {
        futures.push_back(signer.submit(SignRequest{
            patternMsg(20, static_cast<uint8_t>(i)),
            {},
            [&](uint64_t seq, const ByteVec &sig) {
                std::lock_guard<std::mutex> lk(m);
                bySeq.at(seq) = hexEncode(sig);
                calls.fetch_add(1);
            },
            {}}));
    }
    auto st = signer.drain();
    EXPECT_EQ(st.jobs, count);
    EXPECT_EQ(calls.load(), count);
    for (unsigned i = 0; i < count; ++i) {
        // The callback saw exactly the bytes the future yields.
        EXPECT_EQ(bySeq[i], hexEncode(futures[i].get())) << i;
    }
}

TEST(BatchSigner, OptRandMatchesScalar)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    BatchSigner signer(p, kp.sk);

    ByteVec msg = patternMsg(32);
    ByteVec opt(p.n, 0x5a);
    auto fut = signer.submit(signReq(msg, opt));
    EXPECT_EQ(hexEncode(fut.get()),
              hexEncode(scheme.sign(msg, kp.sk, opt)));
}

TEST(BatchSigner, WrongLengthOptRandThrowsOnSubmit)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    BatchSigner signer(p, kp.sk);
    EXPECT_THROW(
        signer.submit(signReq(patternMsg(8), ByteVec(p.n + 1, 0))),
                 std::invalid_argument);
}

TEST(BatchSigner, DrainOnEmptyReturnsZeroStats)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    BatchSigner signer(p, kp.sk);

    auto st = signer.drain();
    EXPECT_EQ(st.jobs, 0u);
    EXPECT_EQ(st.wallUs, 0.0);
    EXPECT_EQ(st.sigsPerSec, 0.0);
    EXPECT_EQ(st.failures, 0u);
    ASSERT_EQ(st.perWorkerSigned.size(), signer.workers());
    for (uint64_t c : st.perWorkerSigned)
        EXPECT_EQ(c, 0u);
}

TEST(BatchSigner, ZeroMessageSubmitMany)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    BatchSigner signer(p, kp.sk);

    std::vector<SignRequest> none;
    auto futures = signer.submitMany(none);
    EXPECT_TRUE(futures.empty());
    EXPECT_EQ(signer.drain().jobs, 0u);
}

TEST(BatchSigner, SubmitManyPreservesOptRandAndCallbacks)
{
    // Regression: the message-only submitMany used to flatten batches
    // through submit(msg), silently dropping any per-request signing
    // randomness and completion callback. The request-struct overload
    // must honor both for every batch member.
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));

    BatchSignerConfig cfg;
    cfg.workers = 4;
    cfg.shards = 2;
    BatchSigner signer(p, kp.sk, cfg);

    constexpr unsigned count = 10;
    std::mutex m;
    std::vector<std::string> bySeq(count);
    std::vector<SignRequest> reqs(count);
    std::vector<ByteVec> msgs, rands;
    for (unsigned i = 0; i < count; ++i) {
        msgs.push_back(patternMsg(24, static_cast<uint8_t>(i)));
        rands.push_back(i % 2 ? ByteVec(p.n, uint8_t(0x11 * i))
                              : ByteVec{});
        reqs[i].message = msgs[i];
        reqs[i].optRand = rands[i];
        reqs[i].callback = [&](uint64_t seq, const ByteVec &sig) {
            std::lock_guard<std::mutex> lk(m);
            bySeq.at(seq) = hexEncode(sig);
        };
    }
    auto futures = signer.submitMany(std::span<SignRequest>(reqs));
    ASSERT_EQ(futures.size(), count);
    for (unsigned i = 0; i < count; ++i) {
        const std::string got = hexEncode(futures[i].get());
        // Per-request opt_rand reached the signer (the deterministic
        // and randomized references differ, so a dropped optRand
        // would fail here)...
        EXPECT_EQ(got, hexEncode(scheme.sign(msgs[i], kp.sk, rands[i])))
            << i;
        // ...and so did the per-request callback.
        EXPECT_EQ(bySeq[i], got) << i;
    }
    EXPECT_EQ(signer.drain().failures, 0u);
}

TEST(BatchSigner, CoalescedGroupsByteMatchScalar)
{
    // Cross-signature coalescing at several worker counts: whatever
    // group shapes the queue races produce, output bytes must match
    // the scalar path per message.
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    auto msgs = patternBatch(24, 20);

    std::vector<std::string> ref;
    for (const auto &msg : msgs)
        ref.push_back(hexEncode(scheme.sign(msg, kp.sk)));

    for (unsigned workers : {1u, 4u, 16u}) {
        BatchSignerConfig cfg;
        cfg.workers = workers;
        cfg.shards = 2;
        BatchSigner signer(p, kp.sk, cfg);
        auto reqs = signReqs(msgs);
        auto futures = signer.submitMany(reqs);
        for (size_t i = 0; i < msgs.size(); ++i)
            EXPECT_EQ(hexEncode(futures[i].get()), ref[i])
                << "workers=" << workers << " msg=" << i;
        auto st = signer.drain();
        EXPECT_EQ(st.failures, 0u);
        EXPECT_LE(st.crossSignJobs, st.jobs);
    }
}

TEST(BatchSigner, LaneGroupOneDisablesCoalescing)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));

    BatchSignerConfig cfg;
    cfg.laneGroup = 1;
    BatchSigner signer(p, kp.sk, cfg);
    EXPECT_EQ(signer.laneGroup(), 1u);
    auto reqs = signReqs(patternBatch(8, 16));
    auto futures = signer.submitMany(reqs);
    for (auto &f : futures)
        EXPECT_EQ(f.get().size(), p.sigBytes());
    auto st = signer.drain();
    EXPECT_EQ(st.laneGroups, 0u);
    EXPECT_EQ(st.crossSignJobs, 0u);
}

TEST(BatchSigner, DrainSeparatesEpochs)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    BatchSigner signer(p, kp.sk);

    auto r1 = signReqs(patternBatch(5, 16));
    auto f1 = signer.submitMany(r1);
    auto st1 = signer.drain();
    EXPECT_EQ(st1.jobs, 5u);
    EXPECT_EQ(std::accumulate(st1.perWorkerSigned.begin(),
                              st1.perWorkerSigned.end(), uint64_t{0}),
              5u);

    // A second drain with nothing new in between reports nothing.
    auto st2 = signer.drain();
    EXPECT_EQ(st2.jobs, 0u);

    auto r3 = signReqs(patternBatch(3, 16));
    auto f3 = signer.submitMany(r3);
    auto st3 = signer.drain();
    EXPECT_EQ(st3.jobs, 3u);
}

TEST(BatchSigner, DestructorCompletesPendingFutures)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));

    std::vector<std::future<ByteVec>> futures;
    {
        BatchSignerConfig cfg;
        cfg.workers = 2;
        cfg.shards = 2;
        BatchSigner signer(p, kp.sk, cfg);
        auto reqs = signReqs(patternBatch(6, 16));
        futures = signer.submitMany(reqs);
        // No drain: the destructor must finish the queue.
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        ByteVec sig = futures[i].get();
        EXPECT_EQ(sig.size(), p.sigBytes()) << i;
    }
}
