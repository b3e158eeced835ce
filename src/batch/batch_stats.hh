/**
 * @file
 * Per-batch statistics reported by BatchSigner::drain(): wall-clock
 * throughput of the real threaded run plus queue behaviour counters.
 * One "batch" is everything submitted since the previous drain().
 */

#ifndef HEROSIGN_BATCH_BATCH_STATS_HH
#define HEROSIGN_BATCH_BATCH_STATS_HH

#include <cstdint>
#include <vector>

namespace herosign::batch
{

/** Statistics for one drained batch. */
struct BatchStats
{
    uint64_t jobs = 0;         ///< jobs completed, incl. failures
    double wallUs = 0;         ///< first submit -> last completion
    double sigsPerSec = 0;     ///< successful signatures / wall clock
    uint64_t crossShardPops = 0; ///< work-stealing dequeues
    uint64_t failures = 0;     ///< jobs that completed exceptionally
    /// Cross-signature lane groups run (coalesced pops of >= 2 jobs
    /// signed as one signGroup() call).
    uint64_t laneGroups = 0;
    /// Jobs signed inside such a group (the rest were groups of one,
    /// batched only within their own signature).
    uint64_t crossSignJobs = 0;
    /// Queued jobs dropped at dequeue because their deadline had
    /// passed (failed with DeadlineExceeded; included in failures).
    uint64_t expired = 0;
    /// Completion callbacks that threw (the signature still reached
    /// its future untouched).
    uint64_t callbackErrors = 0;
    /// Worker-loop passes aborted by an escaped exception; the worker
    /// failed its in-flight jobs and kept running.
    uint64_t workerRestarts = 0;
    /// Verify-after-sign guard mismatches (a produced signature that
    /// failed verification and was re-signed on the scalar path).
    uint64_t guardMismatches = 0;
    /// SIMD tiers quarantined by this signer's guard.
    uint64_t laneQuarantines = 0;
    /// Successful signatures per worker (failures excluded).
    std::vector<uint64_t> perWorkerSigned;
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_BATCH_STATS_HH
