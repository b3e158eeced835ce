/**
 * @file
 * Published known-answer tests for the whole hash substrate: FIPS
 * 180-4 / NIST CAVP vectors for SHA-256, RFC 4231 vectors
 * for HMAC-SHA-256, and RFC 8017 MGF1-SHA-256 vectors.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/hex.hh"
#include "hash/hmac.hh"
#include "hash/mgf1.hh"
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

std::string
hmacHex(ByteSpan key, ByteSpan msg)
{
    auto d = HmacSha256::mac(key, msg);
    return hexEncode(ByteSpan(d.data(), d.size()));
}

struct HashVector
{
    const char *msgHex;
    const char *digestHex;
};

// FIPS 180-4 examples plus NIST CAVP SHA256ShortMsg entries.
const HashVector sha256Vectors[] = {
    {"",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"616263", // "abc"
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    // "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    {"6162636462636465636465666465666765666768666768696768696a68696a6b"
     "696a6b6c6a6b6c6d6b6c6d6e6c6d6e6f6d6e6f706e6f7071",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"bd", // CAVP SHA256ShortMsg Len=8
     "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b"},
    {"c98c8e55", // CAVP SHA256ShortMsg Len=32
     "7abc22c0ae5af26ce93dbb94433a0e0b2e119d014f8e7f65bd56c61ccccd9504"},
};

} // namespace

TEST(Sha256Kat, PublishedVectors)
{
    for (const auto &v : sha256Vectors) {
        ByteVec msg = hexDecode(v.msgHex);
        EXPECT_EQ(sha256Hex(msg), v.digestHex)
            << "msg=" << v.msgHex;
    }
}

TEST(Sha256Kat, MillionA)
{
    // FIPS 180-4 long-message example: 1,000,000 repetitions of 'a',
    // absorbed in uneven chunks to exercise the buffering path.
    Sha256 ctx;
    ByteVec chunk(997, 'a');
    size_t fed = 0;
    while (fed < 1000000) {
        size_t take = std::min(chunk.size(), 1000000 - fed);
        ctx.update(ByteSpan(chunk.data(), take));
        fed += take;
    }
    uint8_t out[Sha256::digestSize];
    ctx.final(out);
    EXPECT_EQ(
        hexEncode(ByteSpan(out, sizeof(out))),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(HmacKat, Rfc4231)
{
    struct HmacVector
    {
        ByteVec key;
        ByteVec msg;
        const char *macHex;
    };
    const HmacVector vectors[] = {
        // Test case 1
        {ByteVec(20, 0x0b), strBytes("Hi There"),
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        // Test case 2: short key
        {strBytes("Jefe"), strBytes("what do ya want for nothing?"),
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        // Test case 3: combined key+data longer than a block
        {ByteVec(20, 0xaa), ByteVec(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        // Test case 4
        {hexDecode("0102030405060708090a0b0c0d0e0f10111213141516171819"),
         ByteVec(50, 0xcd),
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
        // Test case 6: key larger than one block (must be hashed)
        {ByteVec(131, 0xaa),
         strBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
        // Test case 7: key and data both larger than one block
        {ByteVec(131, 0xaa),
         strBytes("This is a test using a larger than block-size key and a "
                  "larger than block-size data. The key needs to be hashed "
                  "before being used by the HMAC algorithm."),
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
    };
    for (const auto &v : vectors)
        EXPECT_EQ(hmacHex(v.key, v.msg), v.macHex);
}

TEST(Mgf1Kat, Rfc8017Vectors)
{
    struct MgfVector
    {
        ByteVec seed;
        size_t len;
        const char *maskHex;
    };
    const MgfVector vectors[] = {
        {strBytes("foo"), 3, "3bdaba"},
        {strBytes("bar"), 50,
         "382576a7841021cc28fc4c0948753fb8312090cea942ea4c4e735d10dc724b"
         "155f9f6069f289d61daca0cb814502ef04eae1"},
        // One full SHA-256 digest of output from an empty seed:
        // SHA-256(0x00000000).
        {ByteVec{}, 32,
         "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b811"
         "19"},
    };
    for (const auto &v : vectors) {
        ByteVec mask(v.len);
        mgf1Sha256(mask, v.seed);
        EXPECT_EQ(hexEncode(mask), v.maskHex);
    }
}

TEST(Mgf1Kat, ZeroLengthOutput)
{
    ByteVec mask;
    mgf1Sha256(mask, strBytes("bar"));
    EXPECT_TRUE(mask.empty());
}

TEST(Mgf1Kat, OutputIsDigestPrefixConsistent)
{
    // MGF1 output for length L must be a prefix of the output for any
    // longer length (RFC 8017 counter construction).
    ByteVec longMask(100), shortMask(33);
    mgf1Sha256(longMask, strBytes("seed"));
    mgf1Sha256(shortMask, strBytes("seed"));
    EXPECT_TRUE(std::equal(shortMask.begin(), shortMask.end(),
                           longMask.begin()));
}
