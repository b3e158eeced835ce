/**
 * @file
 * google-benchmark micro benches for the hash substrate: scalar
 * SHA-256, HMAC and MGF1, the lane engine at each tier, the seeded
 * single-block thashX shape, and the fused WOTS+ chain walk signing
 * spends most of its time in.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "hash/hmac.hh"
#include "hash/mgf1.hh"
#include "hash/sha256.hh"
#include "hash/sha256xN.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

using namespace herosign;

namespace
{

void
BM_Sha256Native(benchmark::State &state)
{
    Rng rng(1);
    ByteVec data = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto d = Sha256::digest(data);
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(state.iterations() * data.size());
}

void
BM_HmacSha256(benchmark::State &state)
{
    Rng rng(2);
    ByteVec key = rng.bytes(32);
    ByteVec msg = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto d = HmacSha256::mac(key, msg);
        benchmark::DoNotOptimize(d);
    }
}

/**
 * W messages through the lane engine in one shot; compare the x16
 * (AVX-512), x8 (AVX2) and forced-scalar rows against W x
 * BM_Sha256Native for the lanes-vs-scalar throughput columns.
 */
void
runSha256Lanes(benchmark::State &state, unsigned width,
               LaneBackend ceiling)
{
    Rng rng(1);
    const size_t len = static_cast<size_t>(state.range(0));
    ByteVec data[Sha256Lanes::maxLanes];
    const uint8_t *ptrs[Sha256Lanes::maxLanes];
    for (size_t l = 0; l < width; ++l) {
        data[l] = rng.bytes(len);
        ptrs[l] = data[l].data();
    }
    uint8_t digests[Sha256Lanes::maxLanes][Sha256Lanes::digestSize];
    uint8_t *dptrs[Sha256Lanes::maxLanes];
    for (size_t l = 0; l < width; ++l)
        dptrs[l] = digests[l];

    sha256LanesSetCeiling(ceiling);
    for (auto _ : state) {
        Sha256Lanes hasher(width);
        hasher.update(ptrs, len);
        hasher.final(dptrs);
        benchmark::DoNotOptimize(digests);
    }
    sha256LanesSetCeiling(LaneBackend::Avx512);
    state.SetBytesProcessed(state.iterations() * len * width);
    state.SetItemsProcessed(state.iterations() * width);
}

void
BM_Sha256x16(benchmark::State &state)
{
    runSha256Lanes(state, 16, LaneBackend::Avx512);
}

void
BM_Sha256x8(benchmark::State &state)
{
    runSha256Lanes(state, 8, LaneBackend::Avx2);
}

void
BM_Sha256x8ScalarLanes(benchmark::State &state)
{
    runSha256Lanes(state, 8, LaneBackend::Scalar);
}

/**
 * One seeded single-block thashX call (the F/PRF shape: adrs_c || n
 * bytes on the per-key mid-state) over state.range(0) real lanes,
 * 1..16, under one lane tier. Items are real lanes, so items/s is
 * the useful compression rate. Reading the three tiers side by side
 * at each lane count gives the crossover where one padded SIMD call
 * beats per-lane scalar compressions (the "pad from 2 lanes" rule).
 */
void
runThashXOneBlock(benchmark::State &state, LaneBackend ceiling)
{
    using namespace herosign::sphincs;
    const Params &p = Params::sphincs128f();
    Rng rng(4);
    const ByteVec pk_seed = rng.bytes(p.n);
    const ByteVec sk_seed = rng.bytes(p.n);
    const Context ctx(p, pk_seed, sk_seed);
    const unsigned count = static_cast<unsigned>(state.range(0));

    Address adrs[maxHashLanes];
    uint8_t bufs[maxHashLanes][maxN] = {};
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        adrs[l].setType(AddrType::ForsTree);
        adrs[l].setTreeIndex(l);
        const ByteVec in = rng.bytes(p.n);
        std::memcpy(bufs[l], in.data(), p.n);
        outs[l] = bufs[l];
        ins[l] = bufs[l];
    }

    sha256LanesSetCeiling(ceiling);
    for (auto _ : state) {
        thashX(outs, ctx, adrs, ins, p.n, count);
        benchmark::DoNotOptimize(bufs[0]);
        benchmark::ClobberMemory();
    }
    sha256LanesSetCeiling(LaneBackend::Avx512);
    state.SetItemsProcessed(state.iterations() * count);
}

void
BM_ThashXOneBlockScalar(benchmark::State &state)
{
    runThashXOneBlock(state, LaneBackend::Scalar);
}

void
BM_ThashXOneBlockX8(benchmark::State &state)
{
    runThashXOneBlock(state, LaneBackend::Avx2);
}

void
BM_ThashXOneBlockX16(benchmark::State &state)
{
    runThashXOneBlock(state, LaneBackend::Avx512);
}

/**
 * The WOTS+ chain layer's ceiling: 16 full chains of w-1 steps of one
 * keypair (n = state.range(0): 16 or 32) through advanceChains(), the
 * dispatcher every chain walk in signing and verification takes, under
 * one lane tier. Items are compressions, so items/s reads directly
 * against BM_ThashXOneBlockX16/16 (one F per lane per call, with the
 * block repacked from an Address and the digest copied out).
 */
void
runChainWalk(benchmark::State &state, LaneBackend ceiling)
{
    using namespace herosign::sphincs;
    const Params &p = state.range(0) == 32 ? Params::sphincs256f()
                                           : Params::sphincs128f();
    Rng rng(5);
    const ByteVec pk_seed = rng.bytes(p.n);
    const ByteVec sk_seed = rng.bytes(p.n);
    const Context ctx(p, pk_seed, sk_seed);

    constexpr unsigned chains = 16;
    uint32_t start[maxWotsLen] = {};
    uint32_t end[maxWotsLen] = {};
    for (unsigned i = 0; i < chains; ++i)
        end[i] = p.wotsW - 1;
    ByteVec vals = rng.bytes(static_cast<size_t>(p.wotsLen()) * p.n);
    WotsChainSet set;
    set.adrs.setType(AddrType::WotsHash);
    set.vals = vals.data();
    set.start = start;
    set.end = end;

    sha256LanesSetCeiling(ceiling);
    for (auto _ : state) {
        advanceChains(&set, 1, ctx);
        benchmark::DoNotOptimize(vals.data());
        benchmark::ClobberMemory();
    }
    sha256LanesSetCeiling(LaneBackend::Avx512);
    state.SetItemsProcessed(state.iterations() * chains *
                            (p.wotsW - 1));
}

void
BM_ChainWalkScalar(benchmark::State &state)
{
    runChainWalk(state, LaneBackend::Scalar);
}

void
BM_ChainWalkX8(benchmark::State &state)
{
    runChainWalk(state, LaneBackend::Avx2);
}

void
BM_ChainWalkX16(benchmark::State &state)
{
    runChainWalk(state, LaneBackend::Avx512);
}

void
BM_Mgf1(benchmark::State &state)
{
    Rng rng(3);
    ByteVec seed = rng.bytes(64);
    ByteVec out(state.range(0));
    for (auto _ : state) {
        mgf1Sha256(out, seed);
        benchmark::DoNotOptimize(out.data());
    }
}

} // namespace

BENCHMARK(BM_Sha256Native)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x16)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x8)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x8ScalarLanes)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_ThashXOneBlockScalar)->DenseRange(1, 16);
BENCHMARK(BM_ThashXOneBlockX8)->DenseRange(1, 16);
BENCHMARK(BM_ThashXOneBlockX16)->DenseRange(1, 16);
BENCHMARK(BM_ChainWalkScalar)->Arg(16)->Arg(32);
BENCHMARK(BM_ChainWalkX8)->Arg(16)->Arg(32);
BENCHMARK(BM_ChainWalkX16)->Arg(16)->Arg(32);
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);
BENCHMARK(BM_Mgf1)->Arg(34)->Arg(49);
