/**
 * @file
 * Stress and semantics tests for the worker plane's MPMC queue and the
 * BatchSigner under many small submissions from multiple producer
 * threads. These are the tests the ASan/UBSan CI job leans on to
 * guard the threaded queue against data races and lifetime bugs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "batch/batch_signer.hh"
#include "batch/mpmc_queue.hh"
#include "batch_test_util.hh"
#include "common/hex.hh"

using namespace herosign;
using namespace herosign::batch;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

Params
miniParams()
{
    return batchtest::miniParams("mini-stress");
}

} // namespace

TEST(MpmcQueue, ManyProducersManyConsumers)
{
    constexpr unsigned producers = 4;
    constexpr unsigned consumers = 4;
    constexpr uint64_t per_producer = 5000;

    MpmcQueue<uint64_t> q;
    std::atomic<uint64_t> popped{0};
    std::atomic<uint64_t> sum{0};

    std::vector<std::thread> cs;
    for (unsigned c = 0; c < consumers; ++c) {
        cs.emplace_back([&] {
            std::vector<uint64_t> got;
            while (q.popUpTo(got, 8)) {
                for (uint64_t v : got)
                    sum.fetch_add(v, std::memory_order_relaxed);
                popped.fetch_add(got.size(), std::memory_order_relaxed);
            }
        });
    }

    std::vector<std::thread> ps;
    for (unsigned p = 0; p < producers; ++p) {
        ps.emplace_back([&, p] {
            for (uint64_t i = 0; i < per_producer; ++i)
                q.push(p * per_producer + i + 1);
        });
    }
    for (auto &t : ps)
        t.join();
    q.close();
    for (auto &t : cs)
        t.join();

    const uint64_t total = producers * per_producer;
    EXPECT_EQ(popped.load(), total);
    // Sum of 1..total (values were a permutation of that range).
    EXPECT_EQ(sum.load(), total * (total + 1) / 2);
    EXPECT_EQ(q.sizeApprox(), 0u);
}

TEST(MpmcQueue, PopUpToTakesAtMostMaxAndNeverWaitsForMore)
{
    MpmcQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push(i);

    std::vector<int> got;
    ASSERT_TRUE(q.popUpTo(got, 3));
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.sizeApprox(), 2u);

    // Two queued, eight allowed: the two come back at once.
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.popUpTo(got, 8));
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(got, (std::vector<int>{3, 4}));
    EXPECT_LT(waited, std::chrono::milliseconds(50));
    EXPECT_EQ(q.sizeApprox(), 0u);
}

TEST(MpmcQueue, CloseWakesBlockedConsumer)
{
    MpmcQueue<int> q;
    std::atomic<bool> returned{false};
    std::thread consumer([&] {
        std::vector<int> got;
        EXPECT_FALSE(q.popUpTo(got, 4));
        EXPECT_TRUE(got.empty());
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    q.close();
    consumer.join();
    EXPECT_TRUE(returned.load());
}

TEST(MpmcQueue, PushWakesParkedConsumerPromptly)
{
    // A consumer idles long enough (>= 30 ms) for its timed wait to
    // reach the 5 ms cap; a push must then reach it through the
    // notification, not the next timeout. A lost wakeup would cost
    // the rest of the current 5 ms wait, so the idle times step
    // through one whole wait period (30 ms + i x 5/8 ms): about half
    // of the eight trials would then land late, whatever the phase.
    // One late trial is allowed for a scheduler outlier.
    constexpr int trials = 8;
    MpmcQueue<int> q;
    std::atomic<int> received{-1};
    std::chrono::steady_clock::time_point got_at[trials];
    std::thread consumer([&] {
        std::vector<int> got;
        while (q.popUpTo(got, 1)) {
            got_at[got[0]] = std::chrono::steady_clock::now();
            received.store(got[0], std::memory_order_release);
        }
    });

    int late = 0;
    for (int i = 0; i < trials; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            30000 + i * 5000 / trials));
        const auto pushed_at = std::chrono::steady_clock::now();
        q.push(i);
        while (received.load(std::memory_order_acquire) != i)
            std::this_thread::yield();
        const double latency_ms =
            std::chrono::duration<double, std::milli>(got_at[i] -
                                                      pushed_at)
                .count();
        if (latency_ms >= 2.5)
            ++late;
    }
    q.close();
    consumer.join();
    EXPECT_LE(late, 1);
}

TEST(MpmcQueue, ItemsPushedBeforeCloseStillDrain)
{
    MpmcQueue<int> q;
    for (int i = 0; i < 9; ++i)
        q.push(i);
    q.close();
    std::vector<int> got;
    int count = 0;
    while (q.popUpTo(got, 2))
        count += static_cast<int>(got.size());
    EXPECT_EQ(count, 9);
}

TEST(MpmcQueue, PushAfterCloseThrows)
{
    MpmcQueue<int> q;
    q.close();
    EXPECT_THROW(q.push(1), std::runtime_error);
}

TEST(BatchSignerStress, ManySmallSubmitsFromMultipleProducers)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(1));
    auto kp = scheme.keygenFromSeed(seed);

    BatchSignerConfig cfg;
    cfg.workers = 4;
    BatchSigner signer(p, kp.sk, cfg);

    constexpr unsigned producers = 4;
    constexpr unsigned per_producer = 32;
    std::atomic<unsigned> callbacks{0};

    std::mutex fm;
    std::vector<std::pair<ByteVec, std::future<ByteVec>>> results;

    std::vector<std::thread> ps;
    for (unsigned t = 0; t < producers; ++t) {
        ps.emplace_back([&, t] {
            for (unsigned i = 0; i < per_producer; ++i) {
                ByteVec msg{static_cast<uint8_t>(t),
                            static_cast<uint8_t>(i)};
                auto fut = signer.submit(SignRequest{
                    msg,
                    {},
                    [&](uint64_t, const ByteVec &) {
                        callbacks.fetch_add(1);
                    },
                    {}});
                std::lock_guard<std::mutex> lk(fm);
                results.emplace_back(std::move(msg), std::move(fut));
            }
        });
    }
    for (auto &t : ps)
        t.join();

    auto st = signer.drain();
    const unsigned total = producers * per_producer;
    EXPECT_EQ(st.jobs, total);
    EXPECT_EQ(st.failures, 0u);
    EXPECT_EQ(callbacks.load(), total);
    EXPECT_EQ(std::accumulate(st.perWorkerSigned.begin(),
                              st.perWorkerSigned.end(), uint64_t{0}),
              total);

    // Every future is ready and correct; spot-verify a sample and
    // byte-compare everything against the scalar path.
    ASSERT_EQ(results.size(), total);
    for (size_t i = 0; i < results.size(); ++i) {
        ByteVec sig = results[i].second.get();
        EXPECT_EQ(hexEncode(sig),
                  hexEncode(scheme.sign(results[i].first, kp.sk)))
            << i;
        if (i % 16 == 0) {
            EXPECT_TRUE(scheme.verify(results[i].first, sig, kp.pk));
        }
    }
}

TEST(BatchSignerStress, RepeatedDrainCyclesUnderLoad)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    ByteVec seed(3 * p.n, 0x42);
    auto kp = scheme.keygenFromSeed(seed);

    BatchSignerConfig cfg;
    cfg.workers = 3;
    BatchSigner signer(p, kp.sk, cfg);

    uint64_t grand_total = 0;
    for (unsigned round = 0; round < 5; ++round) {
        std::vector<ByteVec> msgs;
        for (unsigned i = 0; i <= round; ++i)
            msgs.push_back({static_cast<uint8_t>(round),
                            static_cast<uint8_t>(i)});
        auto reqs = batchtest::signReqs(msgs);
        auto futures = signer.submitMany(reqs);
        for (auto &f : futures)
            EXPECT_EQ(f.get().size(), p.sigBytes());
        auto st = signer.drain();
        EXPECT_EQ(st.jobs, msgs.size()) << "round " << round;
        grand_total += st.jobs;
    }
    EXPECT_EQ(grand_total, 15u);
    EXPECT_EQ(signer.pending(), 0u);
}
