/**
 * @file
 * LaneScheduler: the group bounds of cross-signature signing.
 *
 * Signing fills SIMD hash lanes across signatures through
 * sphincs::SphincsPlus::signGroup(): up to maxGroup signatures under
 * one key walk FORS and the d hypertree layers together, pooling
 * every leaf and every same-shape tree combine across the group. The
 * worker planes coalesce queued jobs toward preferredGroup() and sign
 * them as one group (batch::SignStep). Output signatures are
 * byte-identical to signing each message alone, at every lane width
 * and group size.
 */

#ifndef HEROSIGN_BATCH_LANE_SCHEDULER_HH
#define HEROSIGN_BATCH_LANE_SCHEDULER_HH

#include "common/bytes.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"

namespace herosign::batch
{

/** Group bounds and a signGroup() entry point for one warm context. */
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
     * Sign @p count messages under one key as one group:
     * SphincsPlus::signGroup() on @p ctx's parameter set. opt_rands[i]
     * may be empty (deterministic signing); @p opt_rands itself may
     * be nullptr for all-deterministic. sigs[i] receives the
     * signature for msgs[i].
     * @throws std::invalid_argument when count exceeds maxGroup
     */
    static void signGroup(const sphincs::Context &ctx,
                          const sphincs::SecretKey &sk,
                          const ByteSpan msgs[], const ByteSpan opt_rands[],
                          ByteVec sigs[], unsigned count)
    {
        sphincs::SphincsPlus(ctx.params())
            .signGroup(ctx, sk, msgs, opt_rands, sigs, count);
    }
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_LANE_SCHEDULER_HH
