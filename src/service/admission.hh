/**
 * @file
 * The admission-control half of the traffic fabric. One
 * AdmissionController owns the pending-job budget for both serving
 * planes (sign and verify) plus the per-tenant quota, so a
 * SignService/VerifyService pair sharing one controller enforces a
 * single coherent backpressure policy across both traffic
 * directions. Every refusal is a typed ServiceOverload that tells
 * the caller which limit tripped.
 *
 * ServiceConfig, the serving knobs, lives here too: worker counts,
 * the sign coalescing window, the context-cache capacity, the
 * pending caps and the guard. Each plane feeds its workers from one
 * FIFO queue, so there is no queue-shard knob.
 */

#ifndef HEROSIGN_SERVICE_ADMISSION_HH
#define HEROSIGN_SERVICE_ADMISSION_HH

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include "service/service_stats.hh"

namespace herosign::service
{

/** Traffic direction through the serving layer. */
enum class Plane { Sign, Verify };

/** Thrown when admission control refuses a submit. */
class ServiceOverload : public std::runtime_error
{
  public:
    /** Which limit refused the job. */
    enum class Kind { SignCap, VerifyCap, TotalCap, TenantQuota };

    ServiceOverload(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/** Construction-time knobs shared by the serving-layer services. */
struct ServiceConfig
{
    unsigned workers = 4;  ///< sign worker threads (clamped to >= 1)
    /// Queued sign jobs one worker coalesces per pass; same-context
    /// (same-tenant) runs sign as one cross-signature lane group.
    /// 0 = auto (the dispatched hash-lane width); 1 disables
    /// coalescing.
    unsigned signCoalesce = 0;
    unsigned verifyWorkers = 2; ///< verify worker threads (>= 1)
    size_t contextCacheCapacity = 64; ///< warm per-key contexts kept
    /// Reject sign submits once this many sign jobs are pending
    /// (0 = unbounded).
    uint64_t maxPending = 0;
    /// Reject async verify submits once this many verify jobs are
    /// pending (0 = unbounded).
    uint64_t maxPendingVerify = 0;
    /// One shared budget across both planes (0 = unbounded).
    uint64_t maxPendingTotal = 0;
    /// Per-tenant quota on pending jobs, both planes (0 = unbounded).
    uint64_t maxPendingPerTenant = 0;
    /// Verify every produced signature against the tenant's warm
    /// context before its future is fulfilled. On a mismatch the job
    /// is re-signed once on the forced-scalar hash path and the
    /// suspect SIMD tier is quarantined process-wide; a second
    /// mismatch fails the job with SigningFault. Guarantees no
    /// corrupt signature ever escapes the service (a faulty SPHINCS+
    /// signature can leak WOTS one-time key material).
    bool verifyAfterSign = false;
    /// Telemetry-plane knobs (stage histograms, trace sampling).
    /// Applied to the service's private StatsRegistry; when a shared
    /// registry is passed in, the registry's own telemetry
    /// configuration wins.
    telemetry::TelemetryConfig telemetry;
};

/** The pending-job limits an AdmissionController enforces. */
struct AdmissionLimits
{
    uint64_t maxPendingSign = 0;      ///< sign-plane cap
    uint64_t maxPendingVerify = 0;    ///< verify-plane cap
    uint64_t maxPendingTotal = 0;     ///< shared budget, both planes
    uint64_t maxPendingPerTenant = 0; ///< per-tenant quota

    static AdmissionLimits
    fromConfig(const ServiceConfig &cfg)
    {
        AdmissionLimits l;
        l.maxPendingSign = cfg.maxPending;
        l.maxPendingVerify = cfg.maxPendingVerify;
        l.maxPendingTotal = cfg.maxPendingTotal;
        l.maxPendingPerTenant = cfg.maxPendingPerTenant;
        return l;
    }
};

/**
 * Shared admission control for the sign and verify planes. admit()
 * checks every configured limit and claims the slot atomically (one
 * mutex serializes check-then-claim across all producers and both
 * planes); release() returns it on completion. Per-tenant pending is
 * tracked in the tenant's TenantCounters, so quota enforcement spans
 * every service wired to the same StatsRegistry.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionLimits &limits = {})
        : lim_(limits)
    {
    }

    /**
     * Claim one pending slot for @p plane on tenant @p tenant_id.
     * @throws ServiceOverload (typed) when any limit would be
     *         exceeded; no state changes in that case
     */
    void admit(Plane plane, TenantCounters &tc,
               const std::string &tenant_id);

    /** Return @p count slots claimed by admit(). */
    void release(Plane plane, TenantCounters &tc, uint64_t count = 1);

    /** Pending jobs currently admitted on @p plane. */
    uint64_t pending(Plane plane) const;

    /** Pending jobs across both planes. */
    uint64_t pendingTotal() const;

    const AdmissionLimits &limits() const { return lim_; }

  private:
    const AdmissionLimits lim_;
    mutable std::mutex m_;
    uint64_t pendingSign_ = 0;
    uint64_t pendingVerify_ = 0;
};

} // namespace herosign::service

#endif // HEROSIGN_SERVICE_ADMISSION_HH
