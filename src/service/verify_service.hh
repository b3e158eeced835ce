/**
 * @file
 * VerifyService: the batched, multi-tenant verification front end —
 * the other half of serving signature traffic. Two paths share one
 * set of warm contexts and counters:
 *
 *  - the synchronous path (verify / verifyBatch) groups the caller's
 *    requests by tenant on the caller's thread and runs each group
 *    through SphincsPlus::verifyBatch, filling the dispatched
 *    hash-lane width across signatures;
 *  - the asynchronous plane (submit) runs on the shared
 *    batch::WorkerPlane — the same queue, workers, coalescing,
 *    supervision, shutdown/deadline sweep and completion ledger as
 *    BatchSigner and SignService — with its own group step: each
 *    coalesced pass (up to the coalescing window) is grouped per
 *    warm context and verified through SphincsPlus::verifyBatch, so
 *    interleaved mixed-tenant traffic still fills whole lane groups.
 *
 * Both planes sit behind the same AdmissionController as SignService
 * (per-direction caps, a shared budget, per-tenant quotas), rejecting
 * with typed ServiceOverload, and report into the same unified
 * ServiceStats / StatsRegistry surface.
 */

#ifndef HEROSIGN_SERVICE_VERIFY_SERVICE_HH
#define HEROSIGN_SERVICE_VERIFY_SERVICE_HH

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "batch/sign_request.hh"
#include "batch/worker_plane.hh"
#include "service/admission.hh"
#include "service/context_cache.hh"
#include "service/key_store.hh"
#include "service/service_stats.hh"

namespace herosign::service
{

/** One verification request (spans must outlive the call). */
struct VerifyRequest
{
    std::string keyId;
    ByteSpan msg;
    ByteSpan sig;
};

/**
 * Multi-tenant verification service over a KeyStore.
 *
 * Thread-safe: the synchronous calls run on the caller's thread
 * (verification is read-only, so any number of threads may call
 * concurrently) and submit() may be called from any number of
 * producers. The destructor drains outstanding async work before
 * joining the workers.
 */
class VerifyService
{
  public:
    /**
     * @param store      key registry (must outlive the service)
     * @param config     worker/queue/cache/admission knobs (the
     *                   verify* and maxPending* fields)
     * @param cache      optional shared warm-context cache (pass the
     *                   SignService's to serve both directions from
     *                   one set of warm contexts); nullptr builds a
     *                   private one sized by the config
     * @param stats      optional shared per-tenant stats registry
     * @param admission  optional shared admission controller (pass
     *                   the SignService's for one fabric-wide
     *                   budget); nullptr builds a private one from
     *                   the config's limits
     */
    explicit VerifyService(
        KeyStore &store, const ServiceConfig &config = {},
        std::shared_ptr<ContextCache> cache = nullptr,
        std::shared_ptr<StatsRegistry> stats = nullptr,
        std::shared_ptr<AdmissionController> admission = nullptr);

    VerifyService(const VerifyService &) = delete;
    VerifyService &operator=(const VerifyService &) = delete;

    /**
     * Verify one signature synchronously. Unknown tenants report
     * false (and count as unknownTenantRejects in the global counters
     * only — never as new registry entries, so unbounded
     * attacker-supplied ids cannot grow memory) rather than throwing:
     * in a serving loop a bad key id is data, not a programming
     * error.
     */
    bool verify(const std::string &key_id, ByteSpan msg, ByteSpan sig);

    /**
     * Verify a mixed-tenant batch synchronously. Results are
     * positional: out[i] is 1 when reqs[i] verified. Requests are
     * grouped by tenant and each group runs hashLaneWidth()
     * signatures per lane pass; results are bool-identical to calling
     * verify() per request.
     */
    std::vector<uint8_t>
    verifyBatch(const std::vector<VerifyRequest> &reqs);

    /** Single-tenant convenience overload. */
    std::vector<uint8_t> verifyBatch(const std::string &key_id,
                                     const std::vector<ByteVec> &msgs,
                                     const std::vector<ByteVec> &sigs);

    /**
     * Queue one verification on the async plane; the future yields
     * the verdict (identical to the synchronous path byte for byte)
     * or the exception verification raised. Unknown tenants resolve
     * to false immediately — reject-not-throw, same as the sync path
     * — without consuming admission budget.
     * @throws ServiceOverload when an admission limit trips
     */
    std::future<bool> submit(const std::string &key_id,
                             batch::VerifyRequest req);

    /**
     * Queue a batch for one tenant; futures are in request order. The
     * requests are consumed (moved from). Throws on the first request
     * an admission limit refuses — earlier requests stay queued.
     */
    std::vector<std::future<bool>>
    submitMany(const std::string &key_id,
               std::span<batch::VerifyRequest> reqs);

    /** Block until everything submitted so far has a verdict. */
    void drain() { plane_.drain(); }

    /**
     * Shut down without stranding: reject new submits with
     * ServiceShutdown, fast-fail every still-queued request (their
     * admission slots are released), and join the workers. Requests
     * already verifying finish normally. Idempotent. Plain
     * destruction instead drains gracefully by verifying everything
     * queued.
     */
    void close() { plane_.close(); }

    /** Snapshot (verify plane, cache, per-tenant). */
    ServiceStats stats() const;

    /** Requests accepted and not yet completed (approximate). */
    uint64_t pending() const { return plane_.pending(); }

    unsigned workers() const { return plane_.workers(); }

    /** Requests one worker coalesces into a single grouped pass. */
    unsigned coalesceWindow() const { return plane_.window(); }

    const std::shared_ptr<ContextCache> &contextCache() const
    {
        return cache_;
    }

    const std::shared_ptr<StatsRegistry> &statsRegistry() const
    {
        return statsReg_;
    }

    const std::shared_ptr<AdmissionController> &admission() const
    {
        return admission_;
    }

  private:
    /** One queued verification, routed to its warm context at
     * admission. */
    struct Task : batch::PlaneTask<batch::VerifyRequest, bool>
    {
        std::shared_ptr<const WarmContext> warm;
        TenantCounters *tenant = nullptr;
    };

    void verifyPass(unsigned worker, std::span<Task *const> live);
    void settle(Task &task, bool ok, telemetry::RequestOutcome &out);

    /**
     * Run one same-context group through the lane-parallel verifier
     * and account for it (global + per-tenant attempt and reject
     * counters). Returns the positional verdicts.
     */
    std::vector<uint8_t> runGroup(const WarmContext &warm,
                                  TenantCounters &tc,
                                  const std::vector<ByteSpan> &msgs,
                                  const std::vector<ByteSpan> &sigs);

    KeyStore &store_;
    std::shared_ptr<ContextCache> cache_;
    std::shared_ptr<StatsRegistry> statsReg_;
    std::shared_ptr<AdmissionController> admission_;
    std::atomic<uint64_t> verifies_{0}; ///< attempts with a verdict
    std::atomic<uint64_t> rejects_{0};  ///< false verdicts
    std::atomic<uint64_t> rejected_{0}; ///< admission refusals
    std::atomic<uint64_t> unknownRejects_{0};
    // Last member: its workers use everything above, and its
    // destructor joins them first. Its ledger also counts the
    // synchronous path's requests.
    batch::WorkerPlane<Task> plane_;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_VERIFY_SERVICE_HH
