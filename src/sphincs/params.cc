#include "sphincs/params.hh"

#include <stdexcept>

namespace herosign::sphincs
{

unsigned
Params::lgW() const
{
    unsigned lg = 0;
    unsigned v = wotsW;
    while (v > 1) {
        v >>= 1;
        ++lg;
    }
    return lg;
}

unsigned
Params::wotsLen1() const
{
    return (8 * n + lgW() - 1) / lgW();
}

unsigned
Params::wotsLen2() const
{
    // Smallest len2 with w^len2 > len1 * (w - 1); the spec's closed
    // form floor(log2(len1*(w-1)) / lg(w)) + 1.
    unsigned lg = lgW();
    uint64_t limit = static_cast<uint64_t>(wotsLen1()) * (wotsW - 1);
    unsigned bits = 0;
    while ((limit >> bits) != 0)
        ++bits;
    // bits == floor(log2(limit)) + 1.
    return (bits - 1) / lg + 1;
}

size_t
Params::msgDigestBytes() const
{
    return forsMsgBytes() + (treeBits() + 7) / 8 + (leafBits() + 7) / 8;
}

void
Params::validate() const
{
    if (n == 0 || n > maxN)
        throw std::invalid_argument("Params: n out of range");
    if (wotsW != 16)
        throw std::invalid_argument("Params: only w = 16 is supported");
    if (layers == 0 || fullHeight % layers != 0)
        throw std::invalid_argument("Params: d must divide h");
    if (treeHeight() == 0 || treeHeight() > maxTreeHeight)
        throw std::invalid_argument("Params: tree height out of range");
    if (forsHeight == 0 || forsHeight > maxForsHeight)
        throw std::invalid_argument("Params: FORS height out of range");
    if (forsTrees == 0 || forsTrees > 64)
        throw std::invalid_argument("Params: k out of range (1..64)");
    if (wotsLen() > maxWotsLen)
        throw std::invalid_argument("Params: WOTS len exceeds bound");
    if (treeBits() > 64)
        throw std::invalid_argument("Params: tree index exceeds 64 bits");
}

bool
Params::sameShape(const Params &other) const
{
    return n == other.n && fullHeight == other.fullHeight &&
           layers == other.layers && forsHeight == other.forsHeight &&
           forsTrees == other.forsTrees && wotsW == other.wotsW;
}

const Params &
Params::sphincs128f()
{
    static const Params p{"SPHINCS+-128f", 16, 66, 22, 6, 33, 16};
    return p;
}

const Params &
Params::sphincs192f()
{
    static const Params p{"SPHINCS+-192f", 24, 66, 22, 8, 33, 16};
    return p;
}

const Params &
Params::sphincs256f()
{
    static const Params p{"SPHINCS+-256f", 32, 68, 17, 9, 35, 16};
    return p;
}

const std::vector<Params> &
Params::all()
{
    static const std::vector<Params> sets = {
        sphincs128f(), sphincs192f(), sphincs256f(),
    };
    return sets;
}

const Params &
Params::byName(const std::string &name)
{
    for (const auto &p : all()) {
        if (p.name == name || p.name == "SPHINCS+-" + name)
            return p;
    }
    throw std::invalid_argument("Params: unknown parameter set " + name);
}

} // namespace herosign::sphincs
