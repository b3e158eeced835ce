/**
 * @file
 * The three workloads. Each builds its signer or services with the
 * library defaults (never from an autotuner profile), generates every
 * input from the run seed, measures for the requested time, and then,
 * outside the measured window, checks every output:
 *
 *  - every batch-128f and interactive-256f signature verifies under
 *    SphincsPlus::verify, and a seeded subset of them (deterministic,
 *    empty optRand) is byte-compared against SphincsPlus::sign;
 *  - every serve-mixed signature's fingerprint equals that of
 *    SphincsPlus::sign on the same input, and that reference verifies
 *    under SphincsPlus::verify;
 *  - every verdict equals its expected value (corrupted inputs must
 *    verify false).
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <sys/resource.h>
#include <thread>

#include "batch/batch_signer.hh"
#include "batch/lane_scheduler.hh"
#include "bench.hh"
#include "common/random.hh"
#include "metrics.hh"
#include "openloop.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"

namespace perfbench
{

using herosign::ByteVec;
using herosign::Rng;
using herosign::batch::BatchSigner;
using herosign::batch::BatchStats;
using herosign::batch::SignRequest;
using herosign::service::KeyStore;
using herosign::service::ServiceConfig;
using herosign::service::SignService;
using herosign::service::VerifyService;
using herosign::sphincs::KeyPair;
using herosign::sphincs::Params;
using herosign::sphincs::PublicKey;
using herosign::sphincs::SphincsPlus;

namespace
{

constexpr size_t kMsgBytes = 32;
/// Share cut from each end of the latencies behind the end-to-end
/// sign_tmean_ms and verify_tmean_ms.
constexpr double kLatencyTrim = 0.1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 41;
/// batch-128f: signatures per batch byte-compared against sign().
constexpr size_t kBatchCheckBytes = 2;
/// batch-128f: signatures per batch whose verify is timed, one at a
/// time on an otherwise idle process (verify_tmean_ms).
constexpr size_t kBatchVerifyTimed = 256;
/// serve-mixed: a verify checks a sign due at least this much earlier.
constexpr int64_t kVerifyLookbackNs = 250'000'000;
/// serve-mixed: a verify picks among its tenant's latest this many
/// signs that are old enough ...
constexpr size_t kPickWindow = 16;
/// ... which stay in a per-tenant ring of this many signatures.
constexpr size_t kRingPerTenant = 64;
/// interactive-256f: one signature in this many is byte-compared.
constexpr unsigned kInteractiveCheckBytesOneIn = 50;

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** A per-workload seed so workloads never share an input stream. */
uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    return z ^ (z >> 31);
}

/** One signature to check: message, signature, key. */
struct CheckJob
{
    const ByteVec *msg = nullptr;
    const ByteVec *sig = nullptr;
    const PublicKey *pk = nullptr;
};

/** Run fn(i) for i in [0, n) on @p threads threads. */
template <class Fn>
void
parallelFor(size_t n, unsigned threads, Fn fn)
{
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::thread> pool;
    try {
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(work);
    } catch (...) {
        for (std::thread &t : pool)
            t.join();
        throw;
    }
    for (std::thread &t : pool)
        t.join();
}

/** True when SphincsPlus::verify accepts; a throw counts as false. */
bool
verifies(const SphincsPlus &scheme, const CheckJob &j)
{
    try {
        return scheme.verify(*j.msg, *j.sig, *j.pk);
    } catch (const std::exception &) {
        return false;
    }
}

/** ok[i]: job i verifies, checked on @p threads threads. */
std::vector<uint8_t>
verifyAll(const SphincsPlus &scheme, const std::vector<CheckJob> &jobs,
          unsigned threads)
{
    std::vector<uint8_t> ok(jobs.size(), 0);
    parallelFor(jobs.size(), threads,
                [&](size_t i) { ok[i] = verifies(scheme, jobs[i]); });
    return ok;
}

/**
 * 64-bit fingerprint of a byte string (multiply-xorshift over 8-byte
 * words): cheap enough for a completion callback, and an accidental
 * match of a wrong signature has probability about 2^-64.
 */
uint64_t
fingerprint(const ByteVec &b)
{
    uint64_t h = 0x9e3779b97f4a7c15ull ^ b.size();
    size_t i = 0;
    auto mix = [&h](uint64_t w) {
        h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
        h ^= h >> 29;
    };
    for (; i + 8 <= b.size(); i += 8) {
        uint64_t w;
        std::memcpy(&w, b.data() + i, 8);
        mix(w);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, b.data() + i, b.size() - i);
    mix(tail);
    return h ^ (h >> 32);
}

/**
 * Indices of a seeded subset of @p n items, at most @p count, for
 * the byte-for-byte comparison against SphincsPlus::sign.
 */
std::vector<size_t>
seededSubset(Rng &rng, size_t n, size_t count)
{
    std::vector<size_t> out;
    for (size_t i = 0; i < count && n > 0; ++i)
        out.push_back(static_cast<size_t>(rng.below(n)));
    return out;
}

/** Median of repeated set-ups, in seconds. */
double
medianSeconds(const std::vector<int64_t> &ns)
{
    std::vector<double> s;
    for (int64_t v : ns)
        s.push_back(v / 1e9);
    return median(s);
}

/** How a workload reads its latency percentiles. */
struct TailRule
{
    double q = 0.99;   ///< the tail quantile
    size_t chunks = 1; ///< equal-count slices, median across them
};

TailRule
tailRule(const Defs &defs, const std::string &w)
{
    return {defs.get(w, "tail_q"),
            static_cast<size_t>(defs.get(w, "latency_chunks"))};
}

/**
 * Flag a tail percentile read from too few samples per slice. Only
 * untraced runs report end-to-end numbers, so traced runs (which may
 * be shorter) are not checked.
 */
void
flagTail(RunResult &r, const RunContext &c, const std::string &what,
         size_t n, TailRule t)
{
    if (c.spans.enabled())
        return;
    const size_t perSlice = n / std::max<size_t>(1, t.chunks);
    if (tailQuantile(perSlice) < t.q)
        r.flags.push_back(what + ": only " +
                          std::to_string(samplesBeyond(perSlice, t.q)) +
                          " samples beyond p" +
                          std::to_string(static_cast<int>(t.q * 100)) +
                          " per slice");
}

/**
 * Fill the shared end-to-end set in BENCHMARK.json order. Typical
 * latency is the 10 % trimmed mean: on a shared host a latency is
 * often two-humped (the same call runs fast or slow with the vCPU it
 * lands on), and the median jumps between the humps from run to run.
 * The medians and tails go to the detail lines: the tails spread
 * between runs by more than any bound can hold.
 */
void
endToEnd(RunResult &r, double setup_s, double sign_per_s,
         const std::vector<double> &sign_ms,
         const std::vector<double> &verify_ms, TailRule t, double slo_ok)
{
    r.endToEnd.add("setup_s", setup_s, "s");
    r.endToEnd.add("peak_rss_mb", peakRssMb(), "MB");
    r.endToEnd.add("sign_per_s", sign_per_s, "1/s");
    r.endToEnd.add("sign_tmean_ms", trimmedMean(sign_ms, kLatencyTrim),
                   "ms");
    r.endToEnd.add("verify_tmean_ms", trimmedMean(verify_ms, kLatencyTrim),
                   "ms");
    r.endToEnd.add("slo_ok_frac", slo_ok, "frac");
    r.detail.add("sign_p50_ms", chunkedPercentile(sign_ms, 0.5, t.chunks),
                 "ms");
    r.detail.add("verify_p50_ms",
                 chunkedPercentile(verify_ms, 0.5, t.chunks), "ms");
    r.detail.add("sign_tail_ms", chunkedPercentile(sign_ms, t.q, t.chunks),
                 "ms");
    r.detail.add("verify_tail_ms",
                 chunkedPercentile(verify_ms, t.q, t.chunks), "ms");
}

/** A deterministic (empty optRand) signing request for @p msg. */
SignRequest
signRequest(const ByteVec &msg)
{
    SignRequest req;
    req.message = msg;
    return req;
}

/** Count outcomes into attempted/failed. */
void
tally(RunResult &r, const std::vector<RequestRecord> &recs)
{
    r.attempted += recs.size();
    for (const RequestRecord &q : recs)
        if (q.outcome != Outcome::Ok)
            ++r.failed;
}

} // namespace

// ---------------------------------------------------------------------
// batch-128f: offline bulk signing, closed loop at batch granularity.
// ---------------------------------------------------------------------

RunResult
runBatch128f(const RunContext &c)
{
    const std::string W = "batch-128f";
    const Params &params = Params::sphincs128f();
    const SphincsPlus scheme(params);
    Rng rng(subSeed(c.seed, 1));
    RunResult r;

    // Set-up: keygen + signer construction + one warm signature.
    std::vector<int64_t> setupNs;
    // Completion stamps written by the signer's callbacks; declared
    // before the signer, whose destructor drains, so it outlives them.
    std::vector<int64_t> done;
    std::unique_ptr<BatchSigner> signer;
    KeyPair kp;
    for (int i = 0; i < kSetupRepeats; ++i) {
        signer.reset();
        ScopedSpan sp(c.spans, "setup");
        const int64_t t0 = nowNs();
        kp = scheme.keygen(rng);
        signer = std::make_unique<BatchSigner>(params, kp.sk);
        SignRequest warm;
        warm.message = rng.bytes(kMsgBytes);
        signer->submit(std::move(warm)).get();
        signer->drain();
        setupNs.push_back(nowNs() - t0);
    }

    const size_t batch = static_cast<size_t>(c.defs.get(W, "batch_size"));
    const size_t minBatch = 16ull * signer->workers() *
                            herosign::batch::LaneScheduler::preferredGroup();
    if (batch < minBatch)
        r.flags.push_back("batch_size " + std::to_string(batch) +
                          " < 16 x workers x preferredGroup = " +
                          std::to_string(minBatch));
    const double limitMs = c.defs.get(W, "sign_limit_ms");
    const TailRule tail = tailRule(c.defs, W);

    std::vector<RequestRecord> recs;
    std::vector<double> batchRates, verifyMs;
    BatchStats sum;
    int64_t measuredNs = 0;
    uint64_t reqId = 0;
    ScopedSpan step(c.spans, "workload.batch-128f");
    while (measuredNs < static_cast<int64_t>(c.seconds * 1e9)) {
        std::vector<ByteVec> msgs(batch);
        for (ByteVec &m : msgs)
            m = rng.bytes(kMsgBytes);
        done.assign(batch, 0);
        std::vector<SignRequest> reqs(batch);
        for (size_t i = 0; i < batch; ++i) {
            reqs[i].message = msgs[i];
            reqs[i].callback = [&done, i](uint64_t, const ByteVec &) {
                done[i] = nowNs();
            };
        }

        const uint64_t batchSpan = c.spans.newId();
        const int64_t t0 = nowNs();
        std::vector<std::future<ByteVec>> futs;
        {
            ScopedSpan sp(c.spans, "BatchSigner::submitMany", batchSpan);
            futs = signer->submitMany(reqs);
        }
        BatchStats st;
        {
            ScopedSpan sp(c.spans, "BatchSigner::drain", batchSpan);
            st = signer->drain();
        }
        const int64_t t1 = nowNs();
        measuredNs += t1 - t0;
        c.spans.add({batchSpan, step.id(), 0, "batch", t0, t1});

        // Outside the measured window from here on.
        std::vector<ByteVec> sigs(batch);
        std::vector<RequestRecord> brecs(batch);
        size_t okCount = 0;
        for (size_t i = 0; i < batch; ++i) {
            brecs[i] = {true, t0, done[i], Outcome::Ok};
            try {
                sigs[i] = futs[i].get();
                ++okCount;
            } catch (const std::exception &) {
                brecs[i].outcome = Outcome::Failed;
            }
            if (c.spans.enabled() && done[i] != 0)
                c.spans.add({c.spans.newId(), batchSpan, ++reqId,
                             "request.sign", t0, done[i]});
        }
        batchRates.push_back(okCount / ((t1 - t0) / 1e9));

        std::vector<CheckJob> jobs;
        for (size_t i = 0; i < batch; ++i)
            jobs.push_back({&msgs[i], &sigs[i], &kp.pk});
        // The library's verify on this batch's signatures, one call at
        // a time while the signer's workers sit idle.
        for (size_t i : seededSubset(rng, batch, kBatchVerifyTimed)) {
            if (brecs[i].outcome != Outcome::Ok)
                continue;
            const int64_t v0 = nowNs();
            const bool v = verifies(scheme, jobs[i]);
            verifyMs.push_back((nowNs() - v0) / 1e6);
            if (!v)
                brecs[i].outcome = Outcome::Wrong;
        }
        const std::vector<uint8_t> ok = verifyAll(scheme, jobs, c.threads);
        for (size_t i = 0; i < batch; ++i)
            if (brecs[i].outcome == Outcome::Ok && !ok[i])
                brecs[i].outcome = Outcome::Wrong;
        for (size_t i : seededSubset(rng, batch, kBatchCheckBytes))
            if (brecs[i].outcome == Outcome::Ok &&
                scheme.sign(msgs[i], kp.sk) != sigs[i])
                brecs[i].outcome = Outcome::Wrong;
        recs.insert(recs.end(), brecs.begin(), brecs.end());

        sum.jobs += st.jobs;
        sum.failures += st.failures;
        sum.crossShardPops += st.crossShardPops;
        sum.laneGroups += st.laneGroups;
        sum.crossSignJobs += st.crossSignJobs;
        sum.laneQuarantines += st.laneQuarantines;
        sum.perWorkerSigned.resize(st.perWorkerSigned.size());
        for (size_t w = 0; w < st.perWorkerSigned.size(); ++w)
            sum.perWorkerSigned[w] += st.perWorkerSigned[w];
    }

    tally(r, recs);
    const std::vector<double> signMs = okLatenciesMs(recs, true);
    flagTail(r, c, W + " sign latency", signMs.size(), tail);
    const double signPerS = median(batchRates);
    endToEnd(r, medianSeconds(setupNs), signPerS, signMs, verifyMs, tail,
             sloOkFrac(recs, limitMs, limitMs));
    r.headlineCostMs = 1e3 / signPerS;

    r.detail.add("batch-128f.batches", batchRates.size(), "count");
    r.detail.add("batch-128f.batch_size", batch, "count");
    r.detail.add("batch-128f.error_frac",
                 static_cast<double>(r.failed) / r.attempted, "frac");

    const double jobs = std::max<double>(1, sum.jobs);
    const double groups =
        sum.laneGroups + static_cast<double>(sum.jobs - sum.crossSignJobs);
    uint64_t wmax = 0, wmin = UINT64_MAX;
    for (uint64_t v : sum.perWorkerSigned) {
        wmax = std::max(wmax, v);
        wmin = std::min(wmin, v);
    }
    r.layer.add("batch.cross_sign_frac", sum.crossSignJobs / jobs, "frac");
    r.layer.add("batch.mean_group", sum.jobs / std::max(1.0, groups),
                "count");
    r.layer.add("batch.steal_frac", sum.crossShardPops / jobs, "frac");
    r.layer.add("batch.worker_imbalance",
                wmin == 0 ? 0.0 : static_cast<double>(wmax) / wmin, "ratio");
    if (sum.laneQuarantines != 0)
        r.flags.push_back("batch-128f: signer quarantined a lane tier");
    return r;
}

// ---------------------------------------------------------------------
// serve-mixed: the multi-tenant fabric, open loop at two rates.
// ---------------------------------------------------------------------

namespace
{

/**
 * A SignService/VerifyService pair sharing one context cache, stats
 * registry and admission controller, over one key store. The store is
 * declared first, so both services drain and join before it goes.
 */
struct Fabric
{
    KeyStore store;
    std::vector<std::string> ids;
    std::vector<KeyPair> keys;
    std::unique_ptr<SignService> sign;
    std::unique_ptr<VerifyService> verify;

    Fabric(const SphincsPlus &scheme, Rng &rng, unsigned tenants)
    {
        for (unsigned t = 0; t < tenants; ++t) {
            ids.push_back("tenant-" + std::to_string(t));
            keys.push_back(scheme.keygen(rng));
            store.addKey(ids.back(), keys.back());
        }
        sign = std::make_unique<SignService>(store);
        verify = std::make_unique<VerifyService>(
            store, ServiceConfig{}, sign->contextCache(),
            sign->statsRegistry(), sign->admission());
    }
};

/** A signature the verify plane may be asked to check. */
struct Signed
{
    ByteVec msg;
    ByteVec sig;
};

/** One planned request of the open loop, fixed before the run. */
struct Planned
{
    int64_t due = 0;
    bool sign = true;
    bool hi = false;
    unsigned tenant = 0;
    bool corrupt = false;  ///< verify only: flip one byte
    uint32_t pick = 0;     ///< verify only: which earlier signature
    uint32_t flipAt = 0;   ///< verify only: byte to flip
};

/** Per-request state written by callbacks and the collector. */
struct Slot
{
    RequestRecord rec;
    ByteVec msg;            ///< sign: the message
    uint64_t print = 0;     ///< sign: fingerprint of the signature
    std::atomic<bool> ready{false}; ///< sign: callback has run
    bool expect = true;     ///< verify: expected verdict
    double submitUs = 0;
    uint64_t spanId = 0;
};

/**
 * One place of a tenant's signature ring: the latest signature whose
 * per-tenant ordinal maps here. Verifies copy from it, so the run
 * holds a bounded number of signatures whatever its length.
 */
struct RingEntry
{
    std::mutex m;
    ByteVec sig;        // guarded by m
    int64_t owner = -1; // guarded by m: ordinal of the sign in sig
};

/** Zipf(s) tenant sampler over ranks 1..n. */
class Zipf
{
  public:
    Zipf(unsigned n, double s)
    {
        double acc = 0;
        for (unsigned i = 1; i <= n; ++i) {
            acc += 1.0 / std::pow(static_cast<double>(i), s);
            cum_.push_back(acc);
        }
        for (double &v : cum_)
            v /= acc;
    }
    unsigned
    draw(Rng &rng) const
    {
        const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        return static_cast<unsigned>(
            std::upper_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
    }

  private:
    std::vector<double> cum_;
};

/**
 * Completes verify futures: stamps each one's completion as soon as
 * it is ready (blocking briefly on the oldest, polling the rest), so
 * a verify is not stamped late behind an older one by more than the
 * 25 us poll step.
 */
class VerifyCollector
{
  public:
    VerifyCollector(std::vector<Slot> &slots, SpanLog &spans,
                    uint64_t step_span)
        : slots_(slots), spans_(spans), step_(step_span),
          thread_([this] { loop(); })
    {
    }
    ~VerifyCollector() { finish(); }
    VerifyCollector(const VerifyCollector &) = delete;
    VerifyCollector &operator=(const VerifyCollector &) = delete;

    void
    push(size_t idx, std::future<bool> f)
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            incoming_.push_back({idx, std::move(f)});
        }
        cv_.notify_one();
    }

    /** Wait for every pushed future, then stop the thread. */
    void
    finish()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            closing_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    struct Item
    {
        size_t idx;
        std::future<bool> f;
    };

    void
    settle(Item &it)
    {
        Slot &s = slots_[it.idx];
        s.rec.doneNs = nowNs();
        try {
            s.rec.outcome =
                it.f.get() == s.expect ? Outcome::Ok : Outcome::Wrong;
        } catch (const std::exception &) {
            s.rec.outcome = Outcome::Failed;
        }
        if (spans_.enabled())
            spans_.add({s.spanId, step_, it.idx + 1, "request.verify",
                        s.rec.dueNs, s.rec.doneNs});
    }

    void
    loop()
    {
        std::vector<Item> live;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(m_);
                if (live.empty())
                    cv_.wait(lk,
                             [&] { return closing_ || !incoming_.empty(); });
                for (Item &it : incoming_)
                    live.push_back(std::move(it));
                incoming_.clear();
                if (live.empty() && closing_)
                    return;
            }
            size_t settled = 0;
            for (size_t i = 0; i < live.size();) {
                if (live[i].f.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    settle(live[i]);
                    live.erase(live.begin() + i);
                    ++settled;
                } else {
                    ++i;
                }
            }
            // A lone verify wakes us when it settles; with several out,
            // a younger one may settle first, so poll them finely.
            if (settled == 0 && !live.empty())
                live.front().f.wait_for(std::chrono::microseconds(
                    live.size() == 1 ? 100 : 25));
        }
    }

    std::vector<Slot> &slots_;
    SpanLog &spans_;
    const uint64_t step_;
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<Item> incoming_; // guarded by m_
    bool closing_ = false;      // guarded by m_
    std::thread thread_;        // last: uses every member above
};

/** Read one numeric field of a stage from StatsRegistry::exportJson. */
double
stageField(const std::string &json, const std::string &stage,
           const std::string &field)
{
    const size_t stages = json.find("\"stages\":{");
    if (stages == std::string::npos)
        return 0;
    const size_t at = json.find("\"" + stage + "\":{", stages);
    if (at == std::string::npos)
        return 0;
    const size_t end = json.find('}', at);
    const size_t f = json.find("\"" + field + "\":", at);
    if (f == std::string::npos || f > end)
        return 0;
    return std::strtod(json.c_str() + f + field.size() + 3, nullptr);
}

} // namespace

RunResult
runServeMixed(const RunContext &c)
{
    const std::string W = "serve-mixed";
    const Params &params = Params::sphincs128f();
    const SphincsPlus scheme(params);
    Rng rng(subSeed(c.seed, 2));
    RunResult r;

    const unsigned tenants = static_cast<unsigned>(c.defs.get(W, "tenants"));
    const double vps = c.defs.get(W, "verifies_per_sign");
    const unsigned corruptOneIn =
        static_cast<unsigned>(c.defs.get(W, "corrupt_one_in"));
    const double rateLo = c.defs.get(W, "rate_lo_signs_per_s");
    const double rateHi = c.defs.get(W, "rate_hi_signs_per_s");
    const double signLimit = c.defs.get(W, "sign_limit_ms");
    const double verifyLimit = c.defs.get(W, "verify_limit_ms");
    const TailRule tail = tailRule(c.defs, W);
    const Zipf zipf(tenants, c.defs.get(W, "zipf_s"));

    // Set-up: keygen + fabric construction + one warm sign and one
    // warm verify per tenant. The warm signatures seed the verify
    // pool until the run's own signatures are old enough.
    std::vector<int64_t> setupNs;
    // Sign callbacks write into slots and ring: both are declared
    // before the fabric, so on any exit its destructor drains them
    // while they still exist.
    std::vector<Slot> slots;
    std::vector<RingEntry> ring;
    std::unique_ptr<Fabric> fab;
    std::vector<Signed> warm;
    for (int i = 0; i < kSetupRepeats; ++i) {
        fab.reset();
        ScopedSpan sp(c.spans, "setup");
        const int64_t t0 = nowNs();
        fab = std::make_unique<Fabric>(scheme, rng, tenants);
        warm.assign(tenants, {});
        std::vector<std::future<ByteVec>> sf;
        for (unsigned t = 0; t < tenants; ++t) {
            warm[t].msg = rng.bytes(kMsgBytes);
            sf.push_back(fab->sign->submit(fab->ids[t], signRequest(warm[t].msg)));
        }
        for (unsigned t = 0; t < tenants; ++t)
            warm[t].sig = sf[t].get();
        std::vector<std::future<bool>> vf;
        for (unsigned t = 0; t < tenants; ++t)
            vf.push_back(fab->verify->submit(
                fab->ids[t], {warm[t].msg, warm[t].sig, std::nullopt}));
        for (auto &f : vf)
            if (!f.get())
                r.flags.push_back("serve-mixed: warm verify failed");
        setupNs.push_back(nowNs() - t0);
    }

    // The whole request plan, fixed by the seed before any load.
    const int64_t stepNs = static_cast<int64_t>(c.seconds / 2 * 1e9);
    std::vector<Planned> plan;
    for (int hi = 0; hi < 2; ++hi) {
        const double signRate = hi ? rateHi : rateLo;
        const size_t count = static_cast<size_t>(
            std::llround(signRate * (1 + vps) * c.seconds / 2));
        // Exactly one sign per (1 + vps) arrivals, in seeded order.
        std::vector<uint8_t> isSign(count, 0);
        std::fill_n(isSign.begin(), std::llround(count / (1 + vps)), 1);
        for (size_t i = count; i > 1; --i)
            std::swap(isSign[i - 1], isSign[rng.below(i)]);
        size_t k = 0;
        for (int64_t off : poissonSchedule(subSeed(c.seed, 10 + hi), count,
                                           stepNs)) {
            Planned p;
            p.due = off + hi * stepNs;
            p.hi = hi;
            p.sign = isSign[k++];
            p.tenant = zipf.draw(rng);
            p.corrupt = !p.sign && rng.below(corruptOneIn) == 0;
            p.pick = static_cast<uint32_t>(rng.next());
            p.flipAt = static_cast<uint32_t>(rng.below(params.sigBytes()));
            plan.push_back(p);
        }
    }
    // A verify checks one of its tenant's latest signs that were due
    // at least the look-back earlier (normally long done); until one
    // exists it checks the tenant's warm signature. ordinal[i] numbers
    // a sign among its tenant's signs; it picks the ring place.
    std::vector<int64_t> pickIdx(plan.size(), -1);
    std::vector<size_t> ordinal(plan.size(), 0);
    {
        std::vector<size_t> cursor(tenants, 0);
        std::vector<std::vector<size_t>> byTenant(tenants);
        for (size_t i = 0; i < plan.size(); ++i)
            if (plan[i].sign) {
                ordinal[i] = byTenant[plan[i].tenant].size();
                byTenant[plan[i].tenant].push_back(i);
            }
        for (size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].sign)
                continue;
            const unsigned t = plan[i].tenant;
            size_t &k = cursor[t];
            while (k < byTenant[t].size() &&
                   plan[byTenant[t][k]].due + kVerifyLookbackNs <=
                       plan[i].due)
                ++k;
            if (k > 0)
                pickIdx[i] = static_cast<int64_t>(
                    byTenant[t][k - 1 - plan[i].pick %
                                            std::min(k, kPickWindow)]);
        }
    }

    slots = std::vector<Slot>(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        slots[i].rec.sign = plan[i].sign;
        if (plan[i].sign)
            slots[i].msg = rng.bytes(kMsgBytes);
    }
    ring = std::vector<RingEntry>(tenants * kRingPerTenant);
    for (RingEntry &e : ring)
        e.sig.assign(params.sigBytes(), 0);
    auto ringOf = [&](size_t i) -> RingEntry & {
        return ring[plan[i].tenant * kRingPerTenant +
                    ordinal[i] % kRingPerTenant];
    };

    uint64_t backlogMax = 0, verifyFallbacks = 0;
    std::vector<uint64_t> backlogHi; ///< backlog after each hi send
    std::vector<int64_t> lag;
    int64_t t0 = 0;
    {
        ScopedSpan step(c.spans, "workload.serve-mixed");
        VerifyCollector collector(slots, c.spans, step.id());
        t0 = nowNs() + 5'000'000;
        std::vector<int64_t> due(plan.size());
        for (size_t i = 0; i < plan.size(); ++i)
            due[i] = t0 + plan[i].due;

        lag = runOpenLoop(due, steadyLoopClock(), [&](size_t i, int64_t d) {
            const Planned &p = plan[i];
            Slot &s = slots[i];
            s.rec.dueNs = d;
            s.spanId = c.spans.newId();
            const std::string &id = fab->ids[p.tenant];
            const int64_t a = nowNs();
            int64_t b = 0;
            try {
                if (p.sign) {
                    SignRequest req;
                    req.message = s.msg;
                    req.callback = [&s, &e = ringOf(i),
                                    ord = static_cast<int64_t>(ordinal[i])](
                                       uint64_t, const ByteVec &sig) {
                        s.rec.doneNs = nowNs();
                        s.print = fingerprint(sig);
                        {
                            std::lock_guard<std::mutex> lk(e.m);
                            e.sig.assign(sig.begin(), sig.end());
                            e.owner = ord;
                        }
                        s.ready.store(true, std::memory_order_release);
                    };
                    // The callback keeps what the check needs; the
                    // future (a copy of the signature) is not kept.
                    fab->sign->submit(id, std::move(req));
                    b = nowNs();
                } else {
                    herosign::batch::VerifyRequest req{
                        warm[p.tenant].msg, warm[p.tenant].sig,
                        std::nullopt};
                    bool picked = false;
                    if (pickIdx[i] >= 0) {
                        RingEntry &e = ringOf(pickIdx[i]);
                        std::lock_guard<std::mutex> lk(e.m);
                        if (e.owner ==
                            static_cast<int64_t>(ordinal[pickIdx[i]])) {
                            req.message = slots[pickIdx[i]].msg;
                            req.signature = e.sig;
                            picked = true;
                        }
                    }
                    if (pickIdx[i] >= 0 && !picked)
                        ++verifyFallbacks;
                    if (p.corrupt)
                        req.signature[p.flipAt % req.signature.size()] ^=
                            0x5a;
                    s.expect = !p.corrupt;
                    auto f = fab->verify->submit(id, std::move(req));
                    b = nowNs();
                    collector.push(i, std::move(f));
                }
            } catch (const std::exception &) {
                b = nowNs();
                s.rec.outcome = Outcome::Refused;
            }
            s.submitUs = (b - a) / 1e3;
            if (c.spans.enabled())
                c.spans.add({c.spans.newId(), s.spanId, i + 1,
                             p.sign ? "SignService::submit"
                                    : "VerifyService::submit",
                             a, b});
            const uint64_t backlog =
                fab->sign->pending() + fab->verify->pending();
            backlogMax = std::max(backlogMax, backlog);
            if (p.hi)
                backlogHi.push_back(backlog);
        });
        const uint64_t backlogEnd =
            fab->sign->pending() + fab->verify->pending();
        {
            ScopedSpan sp(c.spans, "SignService::drain", step.id());
            fab->sign->drain();
        }
        {
            ScopedSpan sp(c.spans, "VerifyService::drain", step.id());
            fab->verify->drain();
        }
        collector.finish();
        r.layer.add("service.backlog_max", backlogMax, "count");
        r.layer.add("service.backlog_end", backlogEnd, "count");
        for (size_t i = 0; i < plan.size(); ++i)
            if (plan[i].sign && slots[i].rec.outcome == Outcome::Ok &&
                c.spans.enabled() && slots[i].rec.doneNs != 0)
                c.spans.add({slots[i].spanId, step.id(), i + 1,
                             "request.sign", slots[i].rec.dueNs,
                             slots[i].rec.doneNs});
    }

    // Output check, outside the measured window. Signing is
    // deterministic (empty optRand), so each signature must match
    // SphincsPlus::sign on the same input, and that must verify. A
    // sign whose callback never ran failed (drain() has returned).
    std::vector<size_t> signedIdx;
    for (size_t i = 0; i < plan.size(); ++i) {
        if (!plan[i].sign || slots[i].rec.outcome == Outcome::Refused)
            continue;
        if (!slots[i].ready.load(std::memory_order_acquire))
            slots[i].rec.outcome = Outcome::Failed;
        else
            signedIdx.push_back(i);
    }
    parallelFor(signedIdx.size(), c.threads, [&](size_t j) {
        Slot &s = slots[signedIdx[j]];
        const KeyPair &kp = fab->keys[plan[signedIdx[j]].tenant];
        const ByteVec ref = scheme.sign(s.msg, kp.sk);
        if (fingerprint(ref) != s.print ||
            !verifies(scheme, {&s.msg, &ref, &kp.pk}))
            s.rec.outcome = Outcome::Wrong;
    });

    // Per-step records and metrics.
    std::vector<RequestRecord> lo, hi;
    for (size_t i = 0; i < plan.size(); ++i)
        (plan[i].hi ? hi : lo).push_back(slots[i].rec);
    tally(r, lo);
    tally(r, hi);
    const std::vector<double> hiSign = okLatenciesMs(hi, true);
    const std::vector<double> hiVerify = okLatenciesMs(hi, false);
    flagTail(r, c, W + " hi sign latency", hiSign.size(), tail);
    flagTail(r, c, W + " hi verify latency", hiVerify.size(), tail);

    int64_t hiEnd = t0 + 2 * stepNs;
    size_t hiSignsOk = 0;
    for (const RequestRecord &q : hi)
        if (q.sign && q.outcome == Outcome::Ok) {
            ++hiSignsOk;
            hiEnd = std::max(hiEnd, q.doneNs);
        }
    const double signPerS = hiSignsOk / ((hiEnd - (t0 + stepNs)) / 1e9);
    endToEnd(r, medianSeconds(setupNs), signPerS, hiSign, hiVerify, tail,
             sloOkFrac(hi, signLimit, verifyLimit));
    r.headlineCostMs = median(hiSign);

    auto perStep = [&](const std::string &name,
                       const std::vector<RequestRecord> &recs) {
        const std::string sfx = "." + name;
        const auto sl = okLatenciesMs(recs, true);
        const auto vl = okLatenciesMs(recs, false);
        r.detail.add("sign_p50_ms" + sfx, median(sl), "ms");
        r.detail.add("sign_p99_ms" + sfx, percentile(sl, 0.99), "ms");
        r.detail.add("verify_p99_ms" + sfx, percentile(vl, 0.99), "ms");
        r.detail.add("slo_ok_frac" + sfx,
                     sloOkFrac(recs, signLimit, verifyLimit), "frac");
        size_t sent = 0, okN = 0, failedN = 0, refusedN = 0, wrongN = 0;
        for (const RequestRecord &q : recs) {
            ++sent;
            okN += q.outcome == Outcome::Ok;
            failedN += q.outcome == Outcome::Failed;
            refusedN += q.outcome == Outcome::Refused;
            wrongN += q.outcome == Outcome::Wrong;
        }
        r.layer.add("gen.sent" + sfx, sent, "count");
        r.layer.add("gen.ok" + sfx, okN, "count");
        r.layer.add("gen.failed" + sfx, failedN + wrongN, "count");
        r.layer.add("gen.refused" + sfx, refusedN, "count");
    };
    perStep("lo", lo);
    perStep("hi", hi);
    r.detail.add("serve-mixed.error_frac",
                 static_cast<double>(r.failed) / r.attempted, "frac");
    r.detail.add("serve-mixed.verify_fallbacks", verifyFallbacks, "count");

    std::vector<double> lagMs, submitUs;
    for (int64_t v : lag)
        lagMs.push_back(v / 1e6);
    for (const Slot &s : slots)
        if (s.rec.outcome != Outcome::Refused)
            submitUs.push_back(s.submitUs);
    r.layer.add("gen.lag_p99_ms", percentile(lagMs, 0.99), "ms");
    r.layer.add("service.submit_us.p50", median(submitUs), "us");
    r.layer.add("service.submit_us.p99", percentile(submitUs, 0.99), "us");

    // Stage percentiles and counters through the exporter the live
    // fabric uses, so the benchmark and a scrape agree.
    const auto snap = fab->sign->stats().mergedWith(fab->verify->stats());
    const std::string json = herosign::service::StatsRegistry::exportJson(snap);
    for (const char *stage :
         {"sign_queue_wait", "sign_coalesce_wait", "verify_queue_wait"})
        r.layer.add(std::string("service.") + stage + "_ms.p99",
                    stageField(json, stage, "p99_ns") / 1e6, "ms");
    r.layer.add("service.sign_crypto_ms.p50",
                stageField(json, "sign_crypto", "p50_ns") / 1e6, "ms");
    r.layer.add("service.sign_crypto_ms.p99",
                stageField(json, "sign_crypto", "p99_ns") / 1e6, "ms");
    r.layer.add("service.verify_crypto_ms.p99",
                stageField(json, "verify_crypto", "p99_ns") / 1e6, "ms");
    const double signsDone = std::max<double>(1, snap.signsCompleted);
    const double groups =
        snap.signLaneGroups +
        (static_cast<double>(snap.signsCompleted) - snap.signCrossSignJobs);
    r.layer.add("service.sign_cross_frac",
                snap.signCrossSignJobs / signsDone, "frac");
    r.layer.add("service.sign_mean_group",
                snap.signsCompleted / std::max(1.0, groups), "count");
    const double lookups = snap.cache.hits + snap.cache.misses;
    r.layer.add("service.cache_hit_frac",
                lookups > 0 ? snap.cache.hits / lookups : 0, "frac");
    r.layer.add("service.rejected_frac",
                static_cast<double>(snap.signsRejected +
                                    snap.verifiesRejected) /
                    std::max<double>(1, r.attempted),
                "frac");

    // A hi backlog that keeps growing means the rate is past capacity:
    // compare the last quarter of the hi step against the first.
    if (backlogHi.size() >= 8) {
        const size_t q = backlogHi.size() / 4;
        double first = 0, last = 0;
        for (size_t i = 0; i < q; ++i) {
            first += backlogHi[i];
            last += backlogHi[backlogHi.size() - 1 - i];
        }
        first /= q;
        last /= q;
        if (last > 2 * first + 16)
            r.flags.push_back("serve-mixed: hi backlog grew from " +
                              std::to_string(first) + " to " +
                              std::to_string(last));
    }
    if (snap.laneQuarantines != 0)
        r.flags.push_back("serve-mixed: service quarantined a lane tier");
    return r;
}

// ---------------------------------------------------------------------
// interactive-256f: one closed-loop client, one request in flight.
// ---------------------------------------------------------------------

RunResult
runInteractive256f(const RunContext &c)
{
    const std::string W = "interactive-256f";
    const Params &params = Params::sphincs256f();
    const SphincsPlus scheme(params);
    Rng rng(subSeed(c.seed, 3));
    RunResult r;

    std::vector<int64_t> setupNs;
    std::unique_ptr<Fabric> fab;
    for (int i = 0; i < kSetupRepeats; ++i) {
        fab.reset();
        ScopedSpan sp(c.spans, "setup");
        const int64_t t0 = nowNs();
        fab = std::make_unique<Fabric>(scheme, rng, 1);
        ByteVec m = rng.bytes(kMsgBytes);
        ByteVec s = fab->sign->submit(fab->ids[0], signRequest(m)).get();
        if (!fab->verify->submit(fab->ids[0], {m, s, std::nullopt}).get())
            r.flags.push_back("interactive-256f: warm verify failed");
        setupNs.push_back(nowNs() - t0);
    }

    const double signLimit = c.defs.get(W, "sign_limit_ms");
    const double verifyLimit = c.defs.get(W, "verify_limit_ms");
    const TailRule tail = tailRule(c.defs, W);
    const std::string &id = fab->ids[0];

    // Each cycle's output is checked right after it, off the clock,
    // so memory stays flat however many cycles a run completes.
    Rng checkRng(subSeed(c.seed, 33));
    std::vector<RequestRecord> recs;
    uint64_t reqId = 0;
    int64_t measuredNs = 0;
    {
        ScopedSpan step(c.spans, "workload.interactive-256f");
        while (measuredNs < static_cast<int64_t>(c.seconds * 1e9)) {
            Signed sv{rng.bytes(kMsgBytes), {}};
            RequestRecord sr{true, nowNs(), 0, Outcome::Ok};
            {
                ScopedSpan rs(c.spans, "request.sign", step.id(), ++reqId);
                try {
                    std::future<ByteVec> f;
                    {
                        ScopedSpan sp(c.spans, "SignService::submit",
                                      rs.id(), reqId);
                        f = fab->sign->submit(id, signRequest(sv.msg));
                    }
                    sv.sig = f.get();
                } catch (const std::exception &) {
                    sr.outcome = Outcome::Failed;
                }
            }
            sr.doneNs = nowNs();
            measuredNs += sr.doneNs - sr.dueNs;
            if (sr.outcome != Outcome::Ok) {
                recs.push_back(sr);
                continue;
            }

            RequestRecord vr{false, nowNs(), 0, Outcome::Ok};
            {
                ScopedSpan rs(c.spans, "request.verify", step.id(), ++reqId);
                try {
                    std::future<bool> f;
                    {
                        ScopedSpan sp(c.spans, "VerifyService::submit",
                                      rs.id(), reqId);
                        f = fab->verify->submit(
                            id, {sv.msg, sv.sig, std::nullopt});
                    }
                    vr.outcome = f.get() ? Outcome::Ok : Outcome::Wrong;
                } catch (const std::exception &) {
                    vr.outcome = Outcome::Failed;
                }
            }
            vr.doneNs = nowNs();
            measuredNs += vr.doneNs - vr.dueNs;

            if (!scheme.verify(sv.msg, sv.sig, fab->keys[0].pk) ||
                (checkRng.below(kInteractiveCheckBytesOneIn) == 0 &&
                 scheme.sign(sv.msg, fab->keys[0].sk) != sv.sig))
                sr.outcome = Outcome::Wrong;
            recs.push_back(sr);
            recs.push_back(vr);
        }
    }

    tally(r, recs);
    const auto signMs = okLatenciesMs(recs, true);
    const auto verifyMs = okLatenciesMs(recs, false);
    flagTail(r, c, W + " sign latency", signMs.size(), tail);
    size_t signsOk = signMs.size();
    endToEnd(r, medianSeconds(setupNs), signsOk / (measuredNs / 1e9),
             signMs, verifyMs, tail,
             sloOkFrac(recs, signLimit, verifyLimit));
    r.headlineCostMs = median(signMs);
    r.detail.add("interactive-256f.requests", recs.size(), "count");
    r.detail.add("interactive-256f.error_frac",
                 static_cast<double>(r.failed) / r.attempted, "frac");
    return r;
}

} // namespace perfbench
