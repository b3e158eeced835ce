/**
 * @file
 * Chaos fabric: mixed sign/verify traffic through a shared-budget
 * service pair while a multi-point fault plan is live (lane
 * corruption, worker-loop throws, queue stalls, throwing callbacks,
 * hash-compress bit flips). The suite asserts *invariants*, not
 * outcomes: every future settles with a value or a typed error, a
 * corrupt signature never escapes the verify-after-sign guard, the
 * per-tenant ledgers reconcile and the admission budget drains back to
 * idle. Runs under TSan in CI; the fault-matrix CI mode also starts it
 * with HEROSIGN_FAULT_PLAN already armed, which it detects and keeps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../batch/batch_test_util.hh"
#include "common/errors.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "service/admission.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::verifyReq;
using service::KeyStore;
using service::ServiceConfig;
using service::ServiceOverload;
using service::ServiceStats;
using service::SignService;
using service::VerifyService;
using sphincs::SphincsPlus;

namespace
{

constexpr unsigned kTenants = 3;
constexpr unsigned kProducers = 2;
constexpr unsigned kIters = 24;

/// The canned plan used when the environment did not arm one: every
/// point lit, the destructive ones bounded so the fabric still makes
/// forward progress.
constexpr const char *kChaosPlan =
    "seed=11;simd-lane:every=7;worker-throw:every=23:max=4;"
    "queue-stall:every=11:ms=1;callback-throw:every=3;"
    "hash-compress:every=1009:max=6";

struct SignOutcome
{
    std::string tenant;
    uint8_t salt;
    ByteVec sig;
};

} // namespace

TEST(ChaosFabric, MixedTrafficUnderFaultsKeepsInvariants)
{
    sphincs::Params p = miniParams();
    SphincsPlus scheme(p);
    KeyStore store;
    std::map<std::string, sphincs::KeyPair> keys;
    std::map<std::string, std::pair<ByteVec, ByteVec>> good, bad;
    for (unsigned i = 0; i < kTenants; ++i) {
        const std::string id =
            std::string("t").append(std::to_string(i));
        auto kp = scheme.keygenFromSeed(
            batchtest::fixedSeed(p, static_cast<uint8_t>(5 * i + 3)));
        keys.emplace(id, kp);
        store.addKey(id, kp);
        // Verify traffic is pre-signed while everything is still
        // clean, so its expected verdicts are known-good inputs.
        ByteVec msg = patternMsg(32, static_cast<uint8_t>(0x40 + i));
        ByteVec sig = scheme.sign(msg, kp.sk);
        good[id] = {msg, sig};
        ByteVec tampered = sig;
        tampered[11] ^= 0x20;
        bad[id] = {msg, tampered};
    }

    sha256LanesClearQuarantines();
    // The fault-matrix CI mode launches this binary with a plan in
    // HEROSIGN_FAULT_PLAN; only arm the canned one when nothing is.
    const bool env_armed = FaultInjector::armed();
    if (!env_armed)
        FaultInjector::instance().arm(FaultPlan::parse(kChaosPlan));

    std::atomic<uint64_t> settled_sigs{0}, typed_errors{0},
        untyped_errors{0}, verdicts{0}, overloads{0};
    std::mutex outcomes_m;
    std::vector<SignOutcome> outcomes;
    ServiceStats ss, vs, merged;
    uint64_t pending_after = 0;
    unsigned sign_workers = 0, verify_workers = 0;

    {
        ServiceConfig cfg;
        cfg.workers = 2;
        cfg.verifyWorkers = 2;
        cfg.verifyAfterSign = true;
        SignService sign_svc(store, cfg);
        VerifyService verify_svc(
            store, cfg, sign_svc.contextCache(),
            sign_svc.statsRegistry(), sign_svc.admission());

        std::vector<std::thread> producers;
        for (unsigned t = 0; t < kProducers; ++t) {
            producers.emplace_back([&, t] {
                std::vector<std::pair<SignOutcome,
                                      std::future<ByteVec>>> sfuts;
                std::vector<std::future<bool>> vfuts;
                for (unsigned i = 0; i < kIters; ++i) {
                    const std::string id = std::string("t").append(
                        std::to_string((t + i) % kTenants));
                    const auto salt =
                        static_cast<uint8_t>(t * kIters + i);
                    try {
                        switch (i % 4) {
                        case 0: {
                            sfuts.emplace_back(
                                SignOutcome{id, salt, {}},
                                sign_svc.submit(
                                    id, signReq(patternMsg(32, salt))));
                            break;
                        }
                        case 1:
                            vfuts.push_back(verify_svc.submit(
                                id, verifyReq(good[id].first,
                                              good[id].second)));
                            break;
                        case 2:
                            vfuts.push_back(verify_svc.submit(
                                id, verifyReq(bad[id].first,
                                              bad[id].second)));
                            break;
                        default: {
                            // Signed with a callback (feeding the
                            // callback-throw point) and, on the last
                            // lap, an already-expired deadline.
                            batch::SignRequest req;
                            req.message = patternMsg(32, salt);
                            req.callback = [](uint64_t,
                                              const ByteVec &) {};
                            if (i + 4 >= kIters)
                                req.deadline =
                                    std::chrono::steady_clock::now() -
                                    std::chrono::seconds(1);
                            sfuts.emplace_back(
                                SignOutcome{id, salt, {}},
                                sign_svc.submit(id, std::move(req)));
                            break;
                        }
                        }
                    } catch (const ServiceOverload &) {
                        overloads.fetch_add(1);
                    }
                }
                for (auto &[outcome, fut] : sfuts) {
                    try {
                        outcome.sig = fut.get();
                        settled_sigs.fetch_add(1);
                        const std::lock_guard lock(outcomes_m);
                        outcomes.push_back(std::move(outcome));
                    } catch (const FaultInjected &) {
                        typed_errors.fetch_add(1);
                    } catch (const SigningFault &) {
                        typed_errors.fetch_add(1);
                    } catch (const DeadlineExceeded &) {
                        typed_errors.fetch_add(1);
                    } catch (...) {
                        untyped_errors.fetch_add(1);
                    }
                }
                for (auto &fut : vfuts) {
                    // Verdicts may be wrong under injected hash
                    // corruption — settling is the invariant here.
                    try {
                        (void)fut.get();
                        verdicts.fetch_add(1);
                    } catch (const FaultInjected &) {
                        typed_errors.fetch_add(1);
                    } catch (...) {
                        untyped_errors.fetch_add(1);
                    }
                }
            });
        }
        for (auto &th : producers)
            th.join();
        sign_svc.drain();
        verify_svc.drain();

        ss = sign_svc.stats();
        vs = verify_svc.stats();
        merged = ss.mergedWith(vs);
        pending_after = sign_svc.admission()->pendingTotal();
        sign_workers = sign_svc.workers();
        verify_workers = verify_svc.workers();
    }

    // Faults off before the pristine re-verification below; the
    // services are already gone, so nothing races the injector.
    FaultInjector::instance().disarm();
    sha256LanesClearQuarantines();

    // Every submitted future settled, and only with typed errors.
    const uint64_t sign_subs = ss.signsSubmitted;
    const uint64_t verify_subs = vs.verifiesSubmitted;
    EXPECT_EQ(sign_subs + verify_subs + overloads.load(),
              static_cast<uint64_t>(kProducers) * kIters);
    EXPECT_EQ(settled_sigs.load() + verdicts.load() +
                  typed_errors.load(),
              sign_subs + verify_subs);
    EXPECT_EQ(untyped_errors.load(), 0u);

    // Zero corrupt escapes: every signature that was released
    // verifies pristinely now that the faults are gone.
    for (const SignOutcome &o : outcomes)
        EXPECT_TRUE(scheme.verify(patternMsg(32, o.salt), o.sig,
                                  keys.at(o.tenant).pk))
            << "corrupt signature escaped for " << o.tenant;

    // Ledger identities hold on both planes and per tenant.
    EXPECT_EQ(ss.inFlight, 0u);
    EXPECT_EQ(vs.verifyInFlight, 0u);
    EXPECT_EQ(ss.signsCompleted, sign_subs); // includes failed jobs
    EXPECT_EQ(vs.verifies + vs.verifyFailures, verify_subs);
    for (const auto &[id, ts] : merged.tenants) {
        EXPECT_EQ(ts.signsSubmitted,
                  ts.signsCompleted + ts.signFailures)
            << id;
        EXPECT_EQ(ts.verifiesSubmitted, ts.verifies + ts.verifyFailures)
            << id;
        EXPECT_EQ(ts.pending, 0u) << id;
    }

    // The shared admission budget drained back to idle, and no worker
    // was lost to an escaped exception.
    EXPECT_EQ(pending_after, 0u);
    EXPECT_EQ(sign_workers, 2u);
    EXPECT_EQ(verify_workers, 2u);

    // The canned plan injected real chaos (only provable when this
    // run armed it itself — an env plan may target other points).
    if (!env_armed) {
        const FaultInjector &inj = FaultInjector::instance();
        EXPECT_GT(inj.hits(FaultPoint::WorkerThrow), 0u);
        EXPECT_GT(inj.hits(FaultPoint::HashCompress), 0u);
    }
}
