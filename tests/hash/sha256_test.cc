/**
 * @file
 * SHA-256 correctness: FIPS 180-4 / NIST CAVP vectors, incremental
 * API behaviour, mid-state capture and compression accounting.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256.hh"

using namespace herosign;

namespace
{

ByteVec
strBytes(const std::string &s)
{
    return ByteVec(s.begin(), s.end());
}

std::string
sha256Hex(ByteSpan data)
{
    auto d = Sha256::digest(data);
    return hexEncode(ByteSpan(d.data(), d.size()));
}

} // namespace

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(sha256Hex({}),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b"
        "855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(sha256Hex(strBytes("abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f2001"
        "5ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(sha256Hex(strBytes(
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db0"
        "6c1");
}

TEST(Sha256, MillionA)
{
    ByteVec msg(1000000, 'a');
    EXPECT_EQ(sha256Hex(msg),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112"
        "cd0");
}

TEST(Sha256, ExactBlockBoundary)
{
    // 64 bytes: forces the padding into a second block.
    ByteVec msg(64, 0x61);
    EXPECT_EQ(sha256Hex(msg),
        "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df15466"
        "8eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes)
{
    // 55 bytes is the largest single-block message; 56 forces two.
    ByteVec m55(55, 'a'), m56(56, 'a');
    EXPECT_EQ(sha256Hex(m55),
        "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734"
        "318");
    EXPECT_EQ(sha256Hex(m56),
        "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec67"
        "38a");
}

TEST(Sha256, IncrementalMatchesOneShotAcrossChunkings)
{
    Rng rng(1234);
    ByteVec data = rng.bytes(1024);
    auto expected = Sha256::digest(data);

    for (size_t chunk : {1u, 3u, 7u, 32u, 63u, 64u, 65u, 127u, 1000u}) {
        Sha256 ctx;
        size_t off = 0;
        while (off < data.size()) {
            size_t take = std::min(chunk, data.size() - off);
            ctx.update(ByteSpan(data.data() + off, take));
            off += take;
        }
        uint8_t out[32];
        ctx.final(out);
        EXPECT_EQ(hexEncode(ByteSpan(out, 32)),
                  hexEncode(ByteSpan(expected.data(), 32)))
            << "chunk=" << chunk;
    }
}

TEST(Sha256, EmptyUpdatesAreHarmless)
{
    Sha256 a, b;
    ByteVec msg = strBytes("hello world");
    a.update(msg);
    b.update({});
    b.update(ByteSpan(msg.data(), 5));
    b.update({});
    b.update(ByteSpan(msg.data() + 5, msg.size() - 5));
    uint8_t da[32], db[32];
    a.final(da);
    b.final(db);
    EXPECT_EQ(hexEncode(ByteSpan(da, 32)), hexEncode(ByteSpan(db, 32)));
}

TEST(Sha256, MidStateResume)
{
    Rng rng(99);
    ByteVec prefix = rng.bytes(64); // one full block
    ByteVec suffix = rng.bytes(37);

    Sha256 full;
    full.update(prefix);
    full.update(suffix);
    uint8_t expected[32];
    full.final(expected);

    Sha256 pre;
    pre.update(prefix);
    Sha256State state = pre.midState();

    Sha256 resumed(state);
    resumed.update(suffix);
    uint8_t got[32];
    resumed.final(got);

    EXPECT_EQ(hexEncode(ByteSpan(got, 32)),
              hexEncode(ByteSpan(expected, 32)));
}

TEST(Sha256, MidStateRequiresBlockAlignment)
{
    Sha256 ctx;
    ByteVec data(65, 0xab);
    ctx.update(data);
    EXPECT_THROW(ctx.midState(), std::logic_error);
}

TEST(Sha256, MidStateOfEmptyIsInitialState)
{
    Sha256 ctx;
    Sha256State s = ctx.midState();
    EXPECT_EQ(s.bytesCompressed, 0u);
    EXPECT_EQ(s.h[0], 0x6a09e667u);
    EXPECT_EQ(s.h[7], 0x5be0cd19u);
}

TEST(Sha256, CompressionCountAdvances)
{
    Sha256::resetCompressionCount();
    ByteVec data(128, 0);
    Sha256::digest(data); // 2 data blocks + 1 padding block
    EXPECT_EQ(Sha256::compressionCount(), 3u);
}
