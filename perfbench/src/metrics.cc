#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of quantile @p q among @p n samples. */
size_t
nearestRank(size_t n, double q)
{
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    const size_t k = nearestRank(samples.size(), q) - 1;
    std::nth_element(samples.begin(), samples.begin() + k, samples.end());
    return samples[k];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

double
chunkedPercentile(const std::vector<double> &samples, double q,
                  size_t chunks)
{
    if (chunks <= 1 || samples.size() < chunks)
        return percentile(samples, q);
    const size_t per = samples.size() / chunks;
    std::vector<double> each;
    for (size_t c = 0; c < chunks; ++c)
        each.push_back(percentile(
            std::vector<double>(samples.begin() + c * per,
                                samples.begin() + (c + 1) * per),
            q));
    return median(each);
}

double
trimmedMean(std::vector<double> samples, double trim)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const size_t cut = static_cast<size_t>(trim * samples.size());
    double sum = 0;
    for (size_t i = cut; i < samples.size() - cut; ++i)
        sum += samples[i];
    return sum / static_cast<double>(samples.size() - 2 * cut);
}

size_t
samplesBeyond(size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

double
tailQuantile(size_t n)
{
    for (double q : {0.99, 0.90})
        if (samplesBeyond(n, q) >= 10)
            return q;
    return 0.5;
}

double
sloOkFrac(const std::vector<RequestRecord> &recs, double sign_limit_ms,
          double verify_limit_ms)
{
    if (recs.empty())
        return 0;
    size_t ok = 0;
    for (const RequestRecord &r : recs) {
        const double limit = r.sign ? sign_limit_ms : verify_limit_ms;
        if (r.outcome == Outcome::Ok && r.latencyMs() <= limit)
            ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(recs.size());
}

std::vector<double>
okLatenciesMs(const std::vector<RequestRecord> &recs, bool sign)
{
    std::vector<double> out;
    for (const RequestRecord &r : recs)
        if (r.sign == sign && r.outcome == Outcome::Ok)
            out.push_back(r.latencyMs());
    return out;
}

} // namespace perfbench
