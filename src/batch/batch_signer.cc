#include "batch/batch_signer.hh"

#include <algorithm>
#include <stdexcept>

namespace herosign::batch
{

using sphincs::Params;
using sphincs::SecretKey;

namespace
{

/** Shared copy of @p sk whose secret seeds zeroize on release. */
std::shared_ptr<const SecretKey>
zeroizingCopy(const SecretKey &sk)
{
    return std::shared_ptr<const SecretKey>(
        new SecretKey(sk), [](const SecretKey *p) {
            auto *k = const_cast<SecretKey *>(p);
            k->zeroize();
            delete k;
        });
}

std::shared_ptr<const SecretKey>
requireKey(std::shared_ptr<const SecretKey> sk)
{
    if (!sk)
        throw std::invalid_argument("BatchSigner: null secret key");
    return sk;
}

unsigned
resolveLaneGroup(unsigned configured)
{
    if (configured == 0)
        return LaneScheduler::preferredGroup();
    return std::min(configured, LaneScheduler::maxGroup);
}

} // namespace

BatchSigner::BatchSigner(const Params &params, const SecretKey &sk,
                         const BatchSignerConfig &config)
    : BatchSigner(params, zeroizingCopy(sk), config)
{
}

BatchSigner::BatchSigner(const Params &params,
                         std::shared_ptr<const SecretKey> sk,
                         const BatchSignerConfig &config)
    : params_(params), sk_(requireKey(std::move(sk))),
      scheme_(params_), ctx_(params_, sk_->pkSeed, sk_->skSeed),
      pk_{params_, sk_->pkSeed, sk_->pkRoot}, tel_(config.telemetry),
      step_("BatchSigner", tel_, config.verifyAfterSign,
            resolveLaneGroup(config.laneGroup)),
      plane_("BatchSigner", telemetry::Plane::Sign, config.workers,
             resolveLaneGroup(config.laneGroup), tel_,
             [this](unsigned w, std::span<SignJob *const> live) {
                 // One key and a window <= maxGroup: one lane group.
                 step_.run(plane_, w,
                           SigningKey{scheme_, ctx_, *sk_, pk_}, live);
             })
{
    epochBase_.perWorkerSigned.assign(plane_.workers(), 0);
}

std::future<ByteVec>
BatchSigner::submit(SignRequest req)
{
    plane_.throwIfClosed();
    if (!req.optRand.empty() && req.optRand.size() != params_.n)
        throw std::invalid_argument(
            "BatchSigner: opt_rand must be n bytes");
    return plane_.submit(
        [&] {
            SignJob job;
            job.req = std::move(req);
            return job;
        },
        [] {});
}

std::vector<std::future<ByteVec>>
BatchSigner::submitMany(std::span<SignRequest> reqs)
{
    std::vector<std::future<ByteVec>> futures;
    futures.reserve(reqs.size());
    for (SignRequest &r : reqs)
        futures.push_back(submit(std::move(r)));
    return futures;
}

BatchStats
BatchSigner::drain()
{
    BatchStats st;
    plane_.drain(true, [&](const Ledger &ledger) {
        // Everything is frozen here: each figure is its cumulative
        // total minus the total at the previous drain.
        BatchStats &b = epochBase_;
        const auto delta = [](uint64_t now, uint64_t &base) {
            const uint64_t d = now - base;
            base = now;
            return d;
        };
        const SignCounts sc = step_.counts();
        st.jobs = delta(ledger.completed, b.jobs);
        // Wall clock runs from the first submit of the epoch to the
        // last completion, not to this (possibly late) drain call.
        st.wallUs = ledger.wallUs;
        st.failures = delta(ledger.failures, b.failures);
        st.laneGroups = delta(sc.laneGroups, b.laneGroups);
        st.crossSignJobs = delta(sc.crossSignJobs, b.crossSignJobs);
        st.expired = delta(ledger.expired, b.expired);
        st.callbackErrors = delta(sc.callbackErrors, b.callbackErrors);
        st.workerRestarts = delta(ledger.restarts, b.workerRestarts);
        st.guardMismatches =
            delta(sc.guardMismatches, b.guardMismatches);
        st.laneQuarantines =
            delta(sc.laneQuarantines, b.laneQuarantines);
        st.perWorkerSigned.resize(plane_.workers());
        for (unsigned i = 0; i < plane_.workers(); ++i)
            st.perWorkerSigned[i] =
                delta(plane_.succeeded(i), b.perWorkerSigned[i]);
        const uint64_t ok = st.jobs - st.failures;
        st.sigsPerSec = st.wallUs > 0 ? ok * 1e6 / st.wallUs : 0.0;
    });
    return st;
}

} // namespace herosign::batch
