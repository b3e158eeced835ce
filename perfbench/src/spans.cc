#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench
{

std::map<std::string, SpanTotals>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);

    std::map<std::string, SpanTotals> out;
    for (const Span &s : spans) {
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t runStart = 0, runEnd = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (open && a <= runEnd) {
                    runEnd = std::max(runEnd, b);
                    continue;
                }
                if (open)
                    covered += runEnd - runStart;
                runStart = a;
                runEnd = b;
                open = true;
            }
            if (open)
                covered += runEnd - runStart;
        }
        SpanTotals &t = out[s.name];
        ++t.count;
        t.totalNs += s.endNs - s.startNs;
        t.selfNs += (s.endNs - s.startNs) - covered;
    }
    return out;
}

void
SpanLog::add(const Span &s)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back(s);
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lk(m_);
    return spans_;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    const std::vector<Span> all = spans();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[\n", f);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.req), s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     i + 1 < all.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
