/**
 * @file
 * LaneScheduler: cross-signature sign-side lane batching.
 *
 * Verification has filled SIMD lanes across signatures since PR 4;
 * signing still batched only within one signature — one layer's
 * ragged WOTS chains, one tree's leaves — so the 16-lane engine
 * starves on the -f parameter shapes (8..16 WOTS leaves per subtree).
 * The LaneScheduler closes that gap: it walks a group of resumable
 * sphincs::SignTask contexts through FORS and the d hypertree layers
 * in lockstep, pooling every leaf descriptor and every same-shape
 * tree combine across the group, so lanes stay saturated regardless
 * of parameter-set shape. The signing keypairs' WOTS signatures are
 * captured from the pooled pk-generation walks, eliminating the
 * separate per-layer wotsSign() chain walk entirely.
 *
 * Group members must share one warm Context (same key, same
 * parameter set) — mixed-parameter-set groups are rejected with
 * std::invalid_argument. Output signatures are byte-identical to the
 * scalar SphincsPlus::sign() path at every lane width and group size.
 */

#ifndef HEROSIGN_BATCH_LANE_SCHEDULER_HH
#define HEROSIGN_BATCH_LANE_SCHEDULER_HH

#include "common/bytes.hh"
#include "sphincs/sign_task.hh"
#include "sphincs/thashx.hh"

namespace herosign::batch
{

/** Static driver for groups of in-flight signatures. */
class LaneScheduler
{
  public:
    /** Largest lockstep group (the lane-batch hard bound). */
    static constexpr unsigned maxGroup = sphincs::maxHashLanes;

    /**
     * The group size worth coalescing toward on this host: the
     * dispatched hash-lane width (16 with AVX-512, 8 elsewhere).
     * Larger groups still help (combine pooling, tail amortization)
     * up to maxGroup but with diminishing returns.
     */
    static unsigned preferredGroup()
    {
        return sphincs::hashLaneWidth();
    }

    /**
     * Run @p count tasks (1..maxGroup) to completion in lockstep:
     * FORS tree by tree (one forsTreesLockstep() pass per tree index,
     * the pass forsSign() runs within one signature), then layer by
     * layer, every hash pooled across the group. All tasks must share one Context object.
     * @throws std::invalid_argument on a mixed group
     */
    static void run(sphincs::SignTask *const tasks[], unsigned count);

    /**
     * Convenience wrapper: sign @p count messages under one key as
     * one pooled group. opt_rands[i] may be empty (deterministic
     * signing); @p opt_rands itself may be nullptr for all-
     * deterministic. sigs[i] receives the signature for msgs[i].
     */
    static void signGroup(const sphincs::Context &ctx,
                          const sphincs::SecretKey &sk,
                          const ByteSpan msgs[], const ByteSpan opt_rands[],
                          ByteVec sigs[], unsigned count);
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_LANE_SCHEDULER_HH
