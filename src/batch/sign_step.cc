#include "batch/sign_step.hh"

#include "common/errors.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"

namespace herosign::batch
{

SignCounts
SignStep::counts() const
{
    SignCounts c;
    c.laneGroups = laneGroups_.load(std::memory_order_relaxed);
    c.crossSignJobs = crossSignJobs_.load(std::memory_order_relaxed);
    c.callbackErrors = callbackErrors_.load(std::memory_order_relaxed);
    c.guardMismatches =
        guardMismatches_.load(std::memory_order_relaxed);
    c.laneQuarantines =
        laneQuarantines_.load(std::memory_order_relaxed);
    return c;
}

ByteVec
SignStep::resign(const SigningKey &key, SignJob &job)
{
    const SignRequest &req = job.req;
    job.traceFlags |= telemetry::kSpanGuardMismatch;
    guardMismatches_.fetch_add(1, std::memory_order_relaxed);
    if (sha256LanesQuarantineActiveTier() != LaneBackend::Scalar) {
        job.traceFlags |= telemetry::kSpanLaneQuarantine;
        laneQuarantines_.fetch_add(1, std::memory_order_relaxed);
    }
    ScopedScalarLanes scalar;
    ByteVec redo =
        key.scheme.sign(key.ctx, req.message, key.sk, req.optRand);
    if (key.scheme.verify(key.ctx, req.message, redo, key.pk))
        return redo;
    throw SigningFault(owner_ +
                       ": signature failed verify-after-sign twice");
}

ByteVec
SignStep::release(const SigningKey &key, ByteVec sig, bool verified,
                  SignJob &job)
{
    if (verifyAfterSign_ && !verified)
        sig = resign(key, job);
    // Always stamped (equal to CryptoEnd when the guard is off) so
    // the callback stage has a stable left edge.
    tel_.stamp(job.trace, telemetry::Stage::GuardEnd);
    if (job.req.callback) {
        // A throwing callback must not poison the finished
        // signature: isolate it from the signing path and count it.
        try {
            FaultInjector::throwIfFires(FaultPoint::CallbackThrow);
            job.req.callback(job.seq, sig);
        } catch (...) {
            callbackErrors_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return sig;
}

} // namespace herosign::batch
