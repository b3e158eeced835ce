/**
 * @file
 * Negative verification coverage: for every Table I parameter set,
 * flip a bit in every n-byte block of a golden signature — the
 * randomizer, each FORS secret value and auth-path node, every WOTS+
 * chain of every hypertree layer, and every hypertree auth-path node
 * — and assert that the scalar reference walk (reference_verify.hh)
 * and the batched lane-parallel verifier both reject, and always
 * agree. Valid lanes interleaved into every batched group prove
 * corruption cannot leak across lanes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "reference_verify.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::sphincs;
using test::referenceVerify;

namespace
{

/** Human-readable region of the n-byte block at @p block_idx. */
std::string
regionOf(const Params &p, size_t block_idx)
{
    if (block_idx == 0)
        return "randomizer R";
    size_t b = block_idx - 1;

    const size_t fors_tree_blocks = p.forsHeight + 1;
    if (b < static_cast<size_t>(p.forsTrees) * fors_tree_blocks) {
        const size_t tree = b / fors_tree_blocks;
        const size_t off = b % fors_tree_blocks;
        return "FORS tree " + std::to_string(tree) +
               (off == 0 ? " sk" : " auth " + std::to_string(off - 1));
    }
    b -= static_cast<size_t>(p.forsTrees) * fors_tree_blocks;

    const size_t layer_blocks = p.wotsLen() + p.treeHeight();
    const size_t layer = b / layer_blocks;
    const size_t off = b % layer_blocks;
    if (off < p.wotsLen())
        return "layer " + std::to_string(layer) + " WOTS chain " +
               std::to_string(off);
    return "layer " + std::to_string(layer) + " auth " +
           std::to_string(off - p.wotsLen());
}

class VerifyNegative : public ::testing::TestWithParam<const Params *>
{
};

} // namespace

TEST_P(VerifyNegative, EveryCorruptedRegionRejectsOnBothPaths)
{
    const Params &p = *GetParam();
    SphincsPlus scheme(p);
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(0));
    auto kp = scheme.keygenFromSeed(seed);

    const std::string txt = "HERO-Sign golden vector";
    const ByteVec msg(txt.begin(), txt.end());
    const ByteVec good = scheme.sign(msg, kp.sk);
    ASSERT_EQ(good.size(), p.sigBytes());
    ASSERT_TRUE(scheme.verify(msg, good, kp.pk));

    const size_t blocks = p.sigBytes() / p.n;
    ASSERT_EQ(blocks,
              1 + static_cast<size_t>(p.forsTrees) * (p.forsHeight + 1) +
                  static_cast<size_t>(p.layers) *
                      (p.wotsLen() + p.treeHeight()));

    Context ctx(p, kp.pk.pkSeed, {});
    ASSERT_TRUE(referenceVerify(ctx, msg, good, kp.pk));
    ByteVec flipped = good;
    std::vector<ByteVec> group_store;
    std::vector<size_t> group_blocks;
    group_store.reserve(7);

    auto flush_group = [&] {
        if (group_store.empty())
            return;
        // One valid lane rides in every batched group: corruption in
        // sibling lanes must not leak into it (or vice versa).
        std::vector<ByteSpan> msgs(group_store.size() + 1, ByteSpan(msg));
        std::vector<ByteSpan> sigs(group_store.size() + 1);
        for (size_t i = 0; i < group_store.size(); ++i)
            sigs[i] = ByteSpan(group_store[i]);
        sigs.back() = ByteSpan(good);
        std::unique_ptr<bool[]> ok(new bool[sigs.size()]);
        scheme.verifyBatch(ctx, msgs.data(), sigs.data(), kp.pk,
                           ok.get(), sigs.size());
        for (size_t i = 0; i < group_store.size(); ++i)
            EXPECT_FALSE(ok[i])
                << p.name << ": batched verify accepted corrupted "
                << regionOf(p, group_blocks[i]);
        EXPECT_TRUE(ok[group_store.size()])
            << p.name << ": valid lane rejected in corrupted company";
        group_store.clear();
        group_blocks.clear();
    };

    for (size_t b = 0; b < blocks; ++b) {
        const size_t byte = b * p.n;
        flipped[byte] ^= 0x01;
        EXPECT_FALSE(referenceVerify(ctx, msg, flipped, kp.pk))
            << p.name << ": reference verify accepted corrupted "
            << regionOf(p, b);
        group_store.push_back(flipped);
        group_blocks.push_back(b);
        if (group_store.size() == 7)
            flush_group();
        flipped[byte] ^= 0x01; // restore
    }
    flush_group();

    // Length corruption rejects on both paths too.
    ByteVec shorter(good.begin(), good.end() - 1);
    ByteVec longer = good;
    longer.push_back(0);
    EXPECT_FALSE(scheme.verify(msg, shorter, kp.pk));
    EXPECT_FALSE(scheme.verify(msg, longer, kp.pk));
    ByteSpan m(msg);
    ByteSpan bad_sigs[2] = {ByteSpan(shorter), ByteSpan(longer)};
    ByteSpan msgs2[2] = {m, m};
    bool ok2[2] = {true, true};
    scheme.verifyBatch(ctx, msgs2, bad_sigs, kp.pk, ok2, 2);
    EXPECT_FALSE(ok2[0]);
    EXPECT_FALSE(ok2[1]);
}

INSTANTIATE_TEST_SUITE_P(TableI, VerifyNegative,
                         ::testing::Values(&Params::sphincs128f(),
                                           &Params::sphincs192f(),
                                           &Params::sphincs256f()),
                         [](const auto &info) {
                             return info.param->name.substr(
                                 info.param->name.find('-') + 1);
                         });
