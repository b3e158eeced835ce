/**
 * @file
 * Shutdown races on real cores, for all three front ends on the
 * shared worker plane (BatchSigner, SignService, VerifyService): four
 * producer threads submit while the main thread runs close() or
 * drain(), or destroys the front end while consumer threads wait on
 * the futures. Every fourth request carries a deadline that has
 * already passed by the time a worker dequeues it.
 *
 * Whatever the interleaving, every future a submit returned settles
 * with a value, ServiceShutdown or DeadlineExceeded (a refused submit
 * throws ServiceShutdown instead of returning one), pending() reaches
 * 0, and the shared admission budget returns to idle.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "../batch/batch_test_util.hh"
#include "batch/batch_signer.hh"
#include "common/errors.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using batch::BatchSigner;
using batch::BatchSignerConfig;
using batch::Deadline;
using batchtest::fixedSeed;
using batchtest::miniParams;
using batchtest::patternMsg;
using service::KeyStore;
using service::ServiceConfig;
using service::SignService;
using service::VerifyService;
using sphincs::SphincsPlus;

namespace
{

constexpr unsigned kProducers = 4;
constexpr unsigned kPerProducer = 24;

enum class Ending
{
    Close,
    Drain,
    Destroy
};

/** How the futures of one race settled. */
struct Tally
{
    std::atomic<unsigned> values{0};
    std::atomic<unsigned> shutdowns{0};
    std::atomic<unsigned> expired{0};
    std::atomic<unsigned> refused{0}; ///< submits that threw
};

/** The message producer @p t sends as its @p i-th request. */
ByteVec
raceMsg(unsigned t, unsigned i)
{
    return patternMsg(24, static_cast<uint8_t>(t * kPerProducer + i));
}

/** Every fourth request is already late when a worker reaches it. */
std::optional<Deadline>
raceDeadline(unsigned i)
{
    if (i % 4 != 3)
        return std::nullopt;
    return std::chrono::steady_clock::now();
}

/**
 * Wait on @p fut and tally how it settled; @p check validates a value
 * (signature bytes or verdict) for request (@p t, @p i).
 */
template <typename R, typename Check>
void
settle(std::future<R> &fut, unsigned t, unsigned i, Tally &tally,
       const Check &check)
{
    try {
        check(fut.get(), t, i);
        ++tally.values;
    } catch (const ServiceShutdown &) {
        ++tally.shutdowns;
    } catch (const DeadlineExceeded &) {
        ++tally.expired;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "future settled with an untyped error: "
                      << e.what();
    }
}

/**
 * Race kProducers producers against @p ending on @p front. @p submit
 * queues request (t, i); @p check validates a settled value. Returns
 * after every future settled; @p front is null afterwards only for
 * Ending::Destroy.
 */
template <typename Front, typename Submit, typename Check>
void
race(std::unique_ptr<Front> &front, Ending ending, const Submit &submit,
     const Check &check, Tally &tally)
{
    using Future = decltype(submit(*front, 0u, 0u));
    std::vector<Future> futs[kProducers];
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
            ++ready;
            while (!go.load())
                std::this_thread::yield();
            for (unsigned i = 0; i < kPerProducer; ++i) {
                try {
                    futs[t].push_back(submit(*front, t, i));
                } catch (const ServiceShutdown &) {
                    ++tally.refused;
                }
            }
        });
    }
    while (ready.load() < kProducers)
        std::this_thread::yield();
    go = true;
    // Let a few submits land so the ending meets a live backlog.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    if (ending == Ending::Close) {
        front->close();
    } else if (ending == Ending::Drain) {
        for (unsigned k = 0; k < 4; ++k)
            front->drain();
    }
    for (auto &p : producers)
        p.join();

    if (ending == Ending::Destroy) {
        // Consumers block on the futures while the destructor runs:
        // graceful teardown must finish the whole backlog.
        std::vector<std::thread> consumers;
        for (unsigned t = 0; t < kProducers; ++t) {
            consumers.emplace_back([&, t] {
                for (unsigned i = 0; i < futs[t].size(); ++i)
                    settle(futs[t][i], t, i, tally, check);
            });
        }
        front.reset();
        for (auto &c : consumers)
            c.join();
        return;
    }

    front->drain();
    EXPECT_EQ(front->pending(), 0u);
    for (unsigned t = 0; t < kProducers; ++t) {
        for (unsigned i = 0; i < futs[t].size(); ++i)
            settle(futs[t][i], t, i, tally, check);
    }
    if (ending == Ending::Close) {
        EXPECT_THROW(submit(*front, 0u, 0u), ServiceShutdown);
    }
}

/** The per-ending accounting every front end must satisfy. */
void
expectAccounted(const Tally &tally, Ending ending, const char *what)
{
    const unsigned values = tally.values.load();
    const unsigned shutdowns = tally.shutdowns.load();
    const unsigned refused = tally.refused.load();
    EXPECT_EQ(values + shutdowns + tally.expired.load() + refused,
              kProducers * kPerProducer)
        << what;
    if (ending != Ending::Close) {
        // Nothing was closed: no refusal, no shutdown error.
        EXPECT_EQ(refused, 0u) << what;
        EXPECT_EQ(shutdowns, 0u) << what;
        EXPECT_GT(values, 0u) << what;
    }
}

struct ShutdownRaceTest : ::testing::TestWithParam<Ending>
{
    sphincs::Params p = miniParams("mini-race");
    SphincsPlus scheme{p};
    sphincs::KeyPair kp = scheme.keygenFromSeed(fixedSeed(p));
    KeyStore store;

    void SetUp() override { store.addKey("t0", kp); }

    ServiceConfig
    config() const
    {
        ServiceConfig cfg;
        cfg.workers = 2;
        cfg.shards = 2;
        cfg.verifyWorkers = 2;
        cfg.verifyShards = 2;
        return cfg;
    }

    /** Checks a signature value against the request's message. */
    auto
    sigCheck() const
    {
        return [this](const ByteVec &sig, unsigned t, unsigned i) {
            EXPECT_TRUE(scheme.verify(raceMsg(t, i), sig, kp.pk));
        };
    }
};

TEST_P(ShutdownRaceTest, BatchSigner)
{
    BatchSignerConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    auto signer = std::make_unique<BatchSigner>(p, kp.sk, cfg);
    Tally tally;
    race(
        signer, GetParam(),
        [](BatchSigner &s, unsigned t, unsigned i) {
            return s.submit({raceMsg(t, i), {}, {}, raceDeadline(i)});
        },
        sigCheck(), tally);
    expectAccounted(tally, GetParam(), "BatchSigner");
}

TEST_P(ShutdownRaceTest, SignService)
{
    auto svc = std::make_unique<SignService>(store, config());
    const auto admission = svc->admission();
    Tally tally;
    race(
        svc, GetParam(),
        [](SignService &s, unsigned t, unsigned i) {
            return s.submit("t0",
                            {raceMsg(t, i), {}, {}, raceDeadline(i)});
        },
        sigCheck(), tally);
    expectAccounted(tally, GetParam(), "SignService");
    EXPECT_EQ(admission->pendingTotal(), 0u);
}

TEST_P(ShutdownRaceTest, VerifyServiceSharingTheBudget)
{
    // The verify plane shares its admission budget with a sign
    // plane, as in the serving fabric.
    SignService sign_svc(store, config());
    auto svc = std::make_unique<VerifyService>(
        store, config(), sign_svc.contextCache(),
        sign_svc.statsRegistry(), sign_svc.admission());
    const ByteVec msg = raceMsg(0, 0);
    const ByteVec sig = scheme.sign(msg, kp.sk);
    Tally tally;
    race(
        svc, GetParam(),
        [&](VerifyService &s, unsigned, unsigned i) {
            return s.submit("t0", {msg, sig, raceDeadline(i)});
        },
        [](bool verdict, unsigned, unsigned) { EXPECT_TRUE(verdict); },
        tally);
    expectAccounted(tally, GetParam(), "VerifyService");
    EXPECT_EQ(sign_svc.admission()->pendingTotal(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Endings, ShutdownRaceTest,
                         ::testing::Values(Ending::Close, Ending::Drain,
                                           Ending::Destroy),
                         [](const auto &info) {
                             switch (info.param) {
                             case Ending::Close: return "Close";
                             case Ending::Drain: return "Drain";
                             default: return "Destroy";
                             }
                         });

} // namespace
