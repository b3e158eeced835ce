/**
 * @file
 * BatchSigner: a real multi-threaded SPHINCS+ batch signing service.
 *
 * Where SignEngine::signBatchTiming simulates a GPU batch timeline,
 * BatchSigner executes one. It is the single-key user of the shared
 * worker plane (batch::WorkerPlane): N worker threads pull jobs from
 * the plane's one FIFO queue and sign against shared *immutable* key
 * state — one SecretKey (held via shared_ptr, zeroized on teardown
 * when owned here) and one warm hashing Context built once at
 * construction, so the hot path performs no per-sign Context
 * construction and no worker ever holds a private copy of secret
 * material.
 *
 * Each pass coalesces queued jobs up to the configured laneGroup and
 * hands them to the shared sign group step (batch::SignStep), which
 * signs them as one sphincs::SphincsPlus::signGroup() call so SIMD
 * hash lanes fill across signatures. Signatures are byte-identical to
 * signing each message alone regardless of worker count, group size
 * or scheduling order. What stays here is the signer's own Telemetry
 * and its per-epoch BatchStats.
 */

#ifndef HEROSIGN_BATCH_BATCH_SIGNER_HH
#define HEROSIGN_BATCH_BATCH_SIGNER_HH

#include <future>
#include <memory>
#include <span>
#include <vector>

#include "batch/batch_stats.hh"
#include "batch/sign_request.hh"
#include "batch/sign_step.hh"
#include "batch/worker_plane.hh"
#include "sphincs/sphincs.hh"
#include "telemetry/telemetry.hh"

namespace herosign::batch
{

/** Construction-time knobs for a BatchSigner. */
struct BatchSignerConfig
{
    unsigned workers = 4;  ///< worker threads (clamped to >= 1)
    /// Jobs one worker coalesces into a single signing group (one
    /// signGroup() call, hash lanes filled across signatures).
    /// 0 = auto (the dispatched hash-lane width); 1 disables
    /// coalescing — every job is a group of one, whose lanes fill
    /// only within its own signature. Clamped to the LaneScheduler
    /// group bound.
    unsigned laneGroup = 0;
    /// Verify every produced signature against the warm context
    /// before it is released. On a mismatch the job is re-signed once
    /// on the forced-scalar path and the suspect SIMD tier is
    /// quarantined process-wide; a second mismatch fails the job with
    /// SigningFault. A corrupt signature never escapes — for SPHINCS+
    /// that matters doubly, since a faulty signature can leak WOTS
    /// one-time key material.
    bool verifyAfterSign = false;
    /// Telemetry-plane knobs for this signer's private Telemetry
    /// (stage histograms, group-shape histograms, trace sampling).
    telemetry::TelemetryConfig telemetry;
};

/**
 * A pool of signing workers bound to one (params, secret key) pair.
 *
 * Thread-safe: submit()/submitMany() may be called concurrently from
 * any number of producer threads. drain() blocks until every job
 * submitted so far has completed and returns the batch statistics;
 * the destructor drains implicitly before joining the workers.
 */
class BatchSigner
{
  public:
    /**
     * Convenience constructor: copies @p sk once into shared storage
     * that is securely zeroized when the signer (and any outstanding
     * references) tear down.
     */
    BatchSigner(const sphincs::Params &params,
                const sphincs::SecretKey &sk,
                const BatchSignerConfig &config = {});

    /**
     * Context-injection constructor: share key material owned
     * elsewhere (e.g. a service KeyStore) without copying it. The
     * pointee must stay immutable for the signer's lifetime.
     */
    BatchSigner(const sphincs::Params &params,
                std::shared_ptr<const sphincs::SecretKey> sk,
                const BatchSignerConfig &config = {});

    BatchSigner(const BatchSigner &) = delete;
    BatchSigner &operator=(const BatchSigner &) = delete;

    /**
     * Queue one request; the future yields its signature (or the
     * exception signing raised). The request's callback, when set,
     * runs on the worker thread right before the future is
     * fulfilled; it is not invoked when signing throws.
     * @throws std::invalid_argument when optRand is non-empty and
     *         not n bytes
     */
    std::future<ByteVec> submit(SignRequest req);

    /**
     * Queue a whole batch of requests; futures are in request order.
     * Every per-request field — optRand, callback — is honored
     * exactly as if each request had been submit()ed individually.
     * The requests are consumed (moved from).
     */
    std::vector<std::future<ByteVec>>
    submitMany(std::span<SignRequest> reqs);

    /**
     * Block until everything submitted so far has completed, then
     * return the statistics for the batch (all jobs since the last
     * drain) and start a new batch epoch.
     */
    BatchStats drain();

    /**
     * Shut down without stranding: reject new submits, fast-fail
     * every still-queued job with ServiceShutdown (their admission to
     * the completion ledger is preserved — submitted == completed
     * still converges), then join the workers. Jobs already signing
     * finish normally. Idempotent; the destructor after close() is a
     * no-op join. Contrast with plain destruction, which drains
     * gracefully by signing everything queued.
     */
    void close() { plane_.close(); }

    unsigned workers() const { return plane_.workers(); }

    /** Effective cross-signature coalescing group (1 = disabled). */
    unsigned laneGroup() const { return plane_.window(); }

    /** This signer's telemetry plane (stage/group histograms, trace
     * ring). */
    telemetry::Telemetry &telemetry() { return tel_; }
    const telemetry::Telemetry &telemetry() const { return tel_; }

    const sphincs::Params &params() const { return params_; }

    /** Jobs submitted and not yet completed (approximate). */
    uint64_t pending() const { return plane_.pending(); }

  private:
    sphincs::Params params_;
    // Shared immutable signing state: one key reference (no per-worker
    // copies), one scheme, one warm context reused by every sign call.
    std::shared_ptr<const sphincs::SecretKey> sk_;
    sphincs::SphincsPlus scheme_;
    sphincs::Context ctx_;
    sphincs::PublicKey pk_; ///< for the verify-after-sign guard
    telemetry::Telemetry tel_;
    SignStep step_;
    /// Cumulative totals at the last drain(); BatchStats are deltas.
    BatchStats epochBase_;
    // Last member: its workers use everything above, and its
    // destructor joins them first.
    WorkerPlane<SignJob> plane_;
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_BATCH_SIGNER_HH
