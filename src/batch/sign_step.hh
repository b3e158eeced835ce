/**
 * @file
 * SignStep: the one sign group step behind BatchSigner and
 * SignService. A worker plane hands it a group of jobs that share one
 * warm key state; it signs them and settles each job through the
 * plane:
 *
 *  - the group, of any size, is one SphincsPlus::signGroup() call:
 *    hash lanes fill across the group's signatures as well as within
 *    each one. A throw fails every member (the front ends reject a
 *    wrong-length opt_rand at submit, so no member can fail alone);
 *  - with verify-after-sign on, the group's signatures are checked
 *    before release by one SphincsPlus::verifyBatch() call, and a
 *    member that fails it is re-signed on its own (resign()); the
 *    completion callback runs last, isolated from the signature it is
 *    handed.
 */

#ifndef HEROSIGN_BATCH_SIGN_STEP_HH
#define HEROSIGN_BATCH_SIGN_STEP_HH

#include <atomic>
#include <span>
#include <string>

#include "batch/lane_scheduler.hh"
#include "batch/sign_request.hh"
#include "batch/worker_plane.hh"
#include "sphincs/sphincs.hh"

namespace herosign::batch
{

/** One queued signing job. */
using SignJob = PlaneTask<SignRequest, ByteVec>;

/** The shared immutable key state one sign group signs under. */
struct SigningKey
{
    const sphincs::SphincsPlus &scheme;
    const sphincs::Context &ctx;
    const sphincs::SecretKey &sk;
    const sphincs::PublicKey &pk;
};

/** Cumulative counters of one SignStep. */
struct SignCounts
{
    /// Cross-signature lane groups run (>= 2 jobs in lockstep).
    uint64_t laneGroups = 0;
    /// Jobs signed inside such a group.
    uint64_t crossSignJobs = 0;
    /// Completion callbacks that threw.
    uint64_t callbackErrors = 0;
    /// Verify-after-sign mismatches (re-signed on the scalar path).
    uint64_t guardMismatches = 0;
    /// SIMD tiers quarantined by the guard.
    uint64_t laneQuarantines = 0;
};

class SignStep
{
  public:
    /**
     * @param owner           front-end name, prefixes SigningFault
     * @param tel             telemetry plane for stamps and groups
     * @param verifyAfterSign arm the guard
     * @param groupHint       group size the lane-fill ratio is
     *                        measured against
     */
    SignStep(const char *owner, telemetry::Telemetry &tel,
             bool verifyAfterSign, unsigned groupHint)
        : owner_(owner), tel_(tel), verifyAfterSign_(verifyAfterSign),
          groupHint_(groupHint)
    {
    }

    /**
     * Sign @p jobs (1..LaneScheduler::maxGroup, all under @p key,
     * none settled) and settle each through @p plane.
     */
    template <typename Job>
    void run(WorkerPlane<Job> &plane, unsigned worker,
             const SigningKey &key, std::span<Job *const> jobs);

    SignCounts counts() const;

  private:
    /**
     * Replace a signature that failed the guard. The SIMD tier that
     * produced it is quarantined process-wide (a faulty vector unit
     * is not one worker's private problem) and the job is re-signed
     * on the forced-scalar path, which the simd-lane fault seam
     * cannot touch by construction.
     * @throws SigningFault when even the scalar re-sign fails to
     *         verify — bytes that might leak WOTS one-time key
     *         material are never released
     */
    ByteVec resign(const SigningKey &key, SignJob &job);

    /**
     * Re-sign (guard armed and @p verified false), stamp GuardEnd,
     * run the callback.
     */
    ByteVec release(const SigningKey &key, ByteVec sig, bool verified,
                    SignJob &job);

    const std::string owner_;
    telemetry::Telemetry &tel_;
    const bool verifyAfterSign_;
    const unsigned groupHint_;

    std::atomic<uint64_t> laneGroups_{0};
    std::atomic<uint64_t> crossSignJobs_{0};
    std::atomic<uint64_t> callbackErrors_{0};
    std::atomic<uint64_t> guardMismatches_{0};
    std::atomic<uint64_t> laneQuarantines_{0};
};

template <typename Job>
void
SignStep::run(WorkerPlane<Job> &plane, unsigned worker,
              const SigningKey &key, std::span<Job *const> jobs)
{
    for (Job *job : jobs)
        tel_.stamp(job->trace, telemetry::Stage::GroupFormed);
    tel_.recordGroup(telemetry::Plane::Sign, jobs.size(), groupHint_);

    constexpr unsigned kMax = LaneScheduler::maxGroup;
    const unsigned n = static_cast<unsigned>(jobs.size());
    ByteSpan msgs[kMax];
    ByteSpan rands[kMax];
    ByteVec sigs[kMax];
    for (unsigned i = 0; i < n; ++i) {
        msgs[i] = jobs[i]->req.message;
        rands[i] = jobs[i]->req.optRand;
        tel_.stamp(jobs[i]->trace, telemetry::Stage::CryptoStart);
    }
    bool verified[kMax] = {};
    try {
        key.scheme.signGroup(key.ctx, key.sk, msgs, rands, sigs, n);
        for (Job *job : jobs)
            tel_.stamp(job->trace, telemetry::Stage::CryptoEnd);
        if (verifyAfterSign_) {
            ByteSpan spans[kMax];
            for (unsigned i = 0; i < n; ++i)
                spans[i] = sigs[i];
            key.scheme.verifyBatch(key.ctx, msgs, spans, key.pk, verified,
                                   n);
        }
    } catch (...) {
        for (Job *job : jobs)
            plane.fail(*job, std::current_exception());
        return;
    }
    if (n > 1) {
        laneGroups_.fetch_add(1, std::memory_order_relaxed);
        crossSignJobs_.fetch_add(n, std::memory_order_relaxed);
    }
    for (unsigned i = 0; i < n; ++i) {
        try {
            plane.succeed(worker, *jobs[i],
                          release(key, std::move(sigs[i]), verified[i],
                                  *jobs[i]));
        } catch (...) {
            plane.fail(*jobs[i], std::current_exception());
        }
    }
}

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_SIGN_STEP_HH
