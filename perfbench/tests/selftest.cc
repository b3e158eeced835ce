/**
 * @file
 * Self-test of the benchmark's own arithmetic: percentiles and the
 * tail rule, span self time, open-loop timing under a stall, and the
 * SLO share. perfbench/run.py runs it before every measurement and
 * refuses to measure when it fails.
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hh"
#include "openloop.hh"
#include "spans.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // descending: order must not matter
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    CHECK(percentile({}, 0.5) == 0);
    CHECK(percentile({7}, 0.99) == 7);
    CHECK(median(oneTo(10)) == 5);
    CHECK(median(oneTo(11)) == 6);
    CHECK(percentile(oneTo(100), 0.99) == 99);
    CHECK(percentile(oneTo(100), 0.90) == 90);
    CHECK(percentile(oneTo(1000), 0.99) == 990);
    CHECK(percentile(oneTo(10), 1.0) == 10);

    // Chunks: per-slice p50 of {1..4}, {100..103}, {5..8} is 2, 101,
    // 6; their median is 6, where the pooled p50 would be 7 and one
    // slow slice cannot drag the result to 100+.
    std::vector<double> arrivals = {1, 2, 3, 4, 100, 101, 102, 103,
                                    5, 6, 7, 8, 999};
    CHECK(chunkedPercentile(arrivals, 0.5, 3) == 6);
    CHECK(chunkedPercentile(arrivals, 0.5, 1) == percentile(arrivals, 0.5));
    CHECK(chunkedPercentile({3, 1}, 0.5, 5) == 1);

    // Trimmed mean: 10 % of {1..10} drops 1 and 10; one stall of
    // 1000 among five samples is cut at 20 %, not at 10 %.
    CHECK(trimmedMean({}, 0.1) == 0);
    CHECK(near(trimmedMean(oneTo(10), 0.1), 5.5));
    CHECK(near(trimmedMean(oneTo(10), 0), 5.5));
    CHECK(near(trimmedMean({3, 1000, 1, 2, 4}, 0.2), 3));
    CHECK(near(trimmedMean({3, 1000, 1, 2, 4}, 0.1), 202));
    CHECK(near(trimmedMean({7}, 0.4), 7));
    // Two humps: four 10s and five 20s, then one more 10. The median
    // jumps from 20 to 10; the trimmed mean moves by about 0.6.
    std::vector<double> humps = {10, 10, 10, 10, 20, 20, 20, 20, 20};
    const double before = trimmedMean(humps, 0.1);
    CHECK(median(humps) == 20);
    humps.push_back(10);
    CHECK(median(humps) == 10);
    CHECK(std::fabs(trimmedMean(humps, 0.1) - before) < 1.5);

    // Ten or more beyond: p99 needs 1000 samples, p90 needs 100.
    CHECK(samplesBeyond(1000, 0.99) == 10);
    CHECK(samplesBeyond(999, 0.99) == 9);
    CHECK(tailQuantile(1000) == 0.99);
    CHECK(tailQuantile(999) == 0.90);
    CHECK(tailQuantile(150) == 0.90);
    CHECK(tailQuantile(100) == 0.90);
    CHECK(tailQuantile(99) == 0.5);
    CHECK(tailQuantile(0) == 0.5);
}

void
testSelfTime()
{
    // root [0,100) with child a [10,40) and child b [30,60): the
    // children overlap on [30,40), so the root's self time is
    // 100 - 50, not 100 - 60. a has a grandchild [15,25) and one
    // child that sticks out past a's end, clipped to [35,40).
    std::vector<Span> s = {
        {1, 0, 0, "root", 0, 100},
        {2, 1, 0, "a", 10, 40},
        {3, 1, 0, "b", 30, 60},
        {4, 2, 0, "c", 15, 25},
        {5, 2, 0, "c", 35, 70},
    };
    auto t = selfTimes(s);
    CHECK(t["root"].count == 1);
    CHECK(t["root"].totalNs == 100);
    CHECK(t["root"].selfNs == 50);
    CHECK(t["a"].selfNs == 30 - 10 - 5);
    CHECK(t["b"].selfNs == 30);
    CHECK(t["c"].count == 2);
    CHECK(t["c"].selfNs == 10 + 35);

    // A child entirely contained in another adds no coverage.
    std::vector<Span> nested = {
        {1, 0, 0, "p", 0, 10},
        {2, 1, 0, "q", 2, 8},
        {3, 1, 0, "q", 3, 4},
    };
    CHECK(selfTimes(nested)["p"].selfNs == 4);

    SpanLog off(false);
    {
        ScopedSpan sp(off, "x");
        CHECK(sp.id() == 0);
    }
    CHECK(off.spans().empty());
    SpanLog on(true);
    {
        ScopedSpan outer(on, "outer");
        ScopedSpan inner(on, "inner", outer.id(), 7);
        CHECK(inner.id() != outer.id());
    }
    auto rec = on.spans();
    CHECK(rec.size() == 2);
    CHECK(rec[0].parent == rec[1].id && rec[0].req == 7);
}

void
testOpenLoopStall()
{
    // Four requests due every 10 ms; sending #1 stalls the sender for
    // 50 ms. The service answers 1 ms after each send. Latency from
    // the due time charges the stall to #1 (its own send) and to the
    // two requests it delayed; latency from the send time would not.
    int64_t fake = 0;
    LoopClock clock{[&] { return fake; },
                    [&](int64_t t) {
                        if (t > fake)
                            fake = t;
                    }};
    const int64_t ms = 1'000'000;
    std::vector<int64_t> due = {0, 10 * ms, 20 * ms, 30 * ms};
    std::vector<RequestRecord> recs(due.size());
    auto lag = runOpenLoop(due, clock, [&](size_t i, int64_t d) {
        if (i == 1)
            fake += 50 * ms;
        recs[i] = {true, d, fake + 1 * ms, Outcome::Ok};
    });
    CHECK(lag.size() == 4);
    CHECK(lag[0] == 0 && lag[1] == 0);
    CHECK(lag[2] == 40 * ms);
    CHECK(lag[3] == 30 * ms);
    CHECK(near(recs[0].latencyMs(), 1));
    CHECK(near(recs[1].latencyMs(), 51));
    CHECK(near(recs[2].latencyMs(), 41));
    CHECK(near(recs[3].latencyMs(), 31));
    CHECK(percentile(okLatenciesMs(recs, true), 0.5) == 31);

    // The schedule: exact count, ascending, inside the window, and
    // reproducible from the seed.
    auto a = poissonSchedule(42, 1000, 5'000 * ms);
    auto b = poissonSchedule(42, 1000, 5'000 * ms);
    auto c = poissonSchedule(43, 1000, 5'000 * ms);
    CHECK(a.size() == 1000 && a == b && a != c);
    bool sorted = true;
    for (size_t i = 1; i < a.size(); ++i)
        sorted = sorted && a[i - 1] <= a[i];
    CHECK(sorted && a.front() >= 0 && a.back() < 5'000 * ms);
}

void
testSloOkFrac()
{
    // Limits: sign 100 ms, verify 25 ms. Only the first sign and the
    // first verify count: a late answer, a wrong verdict, a failure
    // and a refusal are all misses.
    const int64_t ms = 1'000'000;
    std::vector<RequestRecord> recs = {
        {true, 0, 90 * ms, Outcome::Ok},
        {false, 0, 20 * ms, Outcome::Ok},
        {true, 0, 101 * ms, Outcome::Ok},
        {false, 0, 26 * ms, Outcome::Ok},
        {false, 0, 5 * ms, Outcome::Wrong},
        {true, 0, 5 * ms, Outcome::Failed},
        {true, 0, 0, Outcome::Refused},
        {false, 0, 0, Outcome::Refused},
    };
    CHECK(near(sloOkFrac(recs, 100, 25), 2.0 / 8.0));
    CHECK(sloOkFrac({}, 100, 25) == 0);
    CHECK(okLatenciesMs(recs, true).size() == 2);
    CHECK(okLatenciesMs(recs, false).size() == 2);
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testOpenLoopStall();
    testSloOkFrac();
    if (failures) {
        std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("perfbench selftest: ok\n");
    return 0;
}
