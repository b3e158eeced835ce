#include "service/verify_service.hh"

#include <map>
#include <stdexcept>

#include "common/errors.hh"
#include "sphincs/thashx.hh"

namespace herosign::service
{

namespace
{

/// Verify coalescing window: a few lane widths, so a chunk drained from
/// the queue by one worker can fill whole lane groups for several
/// tenants at once without starving sibling workers.
constexpr unsigned kCoalesceLaneFactor = 4;

} // namespace

VerifyService::VerifyService(
    KeyStore &store, const ServiceConfig &config,
    std::shared_ptr<ContextCache> cache,
    std::shared_ptr<StatsRegistry> stats,
    std::shared_ptr<AdmissionController> admission)
    : store_(store),
      cache_(cache ? std::move(cache)
                   : std::make_shared<ContextCache>(
                         config.contextCacheCapacity)),
      statsReg_(stats ? std::move(stats)
                      : std::make_shared<StatsRegistry>(
                            config.telemetry)),
      admission_(admission
                     ? std::move(admission)
                     : std::make_shared<AdmissionController>(
                           AdmissionLimits::fromConfig(config))),
      plane_("VerifyService", telemetry::Plane::Verify,
             config.verifyWorkers,
             kCoalesceLaneFactor * sphincs::hashLaneWidth(),
             statsReg_->telemetry(),
             [this](unsigned w, std::span<Task *const> live) {
                 verifyPass(w, live);
             },
             [this](Task &t, bool ok, telemetry::RequestOutcome &out) {
                 settle(t, ok, out);
             })
{
}

bool
VerifyService::verify(const std::string &key_id, ByteSpan msg,
                      ByteSpan sig)
{
    VerifyRequest req{key_id, msg, sig};
    return verifyBatch({req})[0] != 0;
}

std::vector<uint8_t>
VerifyService::runGroup(const WarmContext &warm, TenantCounters &tc,
                        const std::vector<ByteSpan> &msgs,
                        const std::vector<ByteSpan> &sigs)
{
    auto flags =
        warm.scheme.verifyBatch(warm.ctx, msgs, sigs, warm.key->pk);
    const uint64_t n = msgs.size();
    // Group-shape telemetry covers both planes' callers of runGroup:
    // the async batcher's coalesced groups and the synchronous
    // per-tenant groups alike.
    statsReg_->telemetry().recordGroup(telemetry::Plane::Verify, n,
                                       sphincs::hashLaneWidth());
    verifies_.fetch_add(n, std::memory_order_relaxed);
    tc.verifies.fetch_add(n, std::memory_order_relaxed);
    uint64_t group_rejects = 0;
    for (uint8_t f : flags) {
        if (!f)
            ++group_rejects;
    }
    if (group_rejects > 0) {
        tc.verifyRejects.fetch_add(group_rejects,
                                   std::memory_order_relaxed);
        rejects_.fetch_add(group_rejects, std::memory_order_relaxed);
    }
    return flags;
}

std::vector<uint8_t>
VerifyService::verifyBatch(const std::vector<VerifyRequest> &reqs)
{
    std::vector<uint8_t> out(reqs.size(), 0);
    if (reqs.empty())
        return out;
    plane_.admit(reqs.size());

    // Group request indices by tenant, preserving submission order
    // within each group so lanes fill deterministically.
    std::map<std::string, std::vector<size_t>> by_key;
    for (size_t i = 0; i < reqs.size(); ++i)
        by_key[reqs[i].keyId].push_back(i);

    for (const auto &[key_id, idxs] : by_key) {
        auto key = store_.find(key_id);
        if (!key) {
            // Unknown tenant: every request rejects. Only the global
            // counters record it — creating registry entries for
            // attacker-supplied ids would grow memory without bound.
            verifies_.fetch_add(idxs.size(),
                                std::memory_order_relaxed);
            rejects_.fetch_add(idxs.size(), std::memory_order_relaxed);
            unknownRejects_.fetch_add(idxs.size(),
                                      std::memory_order_relaxed);
            plane_.complete(idxs.size());
            continue;
        }
        TenantCounters &tc = statsReg_->tenant(key_id);
        tc.verifiesSubmitted.fetch_add(idxs.size(),
                                       std::memory_order_relaxed);

        auto warm = cache_->acquire(key);
        std::vector<ByteSpan> msgs(idxs.size());
        std::vector<ByteSpan> sigs(idxs.size());
        for (size_t j = 0; j < idxs.size(); ++j) {
            msgs[j] = reqs[idxs[j]].msg;
            sigs[j] = reqs[idxs[j]].sig;
        }
        auto flags = runGroup(*warm, tc, msgs, sigs);
        for (size_t j = 0; j < idxs.size(); ++j)
            out[idxs[j]] = flags[j];
        plane_.complete(idxs.size());
    }
    return out;
}

std::vector<uint8_t>
VerifyService::verifyBatch(const std::string &key_id,
                           const std::vector<ByteVec> &msgs,
                           const std::vector<ByteVec> &sigs)
{
    if (msgs.size() != sigs.size())
        throw std::invalid_argument(
            "verifyBatch: msgs/sigs size mismatch");
    std::vector<VerifyRequest> reqs(msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i)
        reqs[i] = VerifyRequest{key_id, ByteSpan(msgs[i]),
                                ByteSpan(sigs[i])};
    return verifyBatch(reqs);
}

std::future<bool>
VerifyService::submit(const std::string &key_id,
                      batch::VerifyRequest req)
{
    // Checked before admission so a rejected-at-shutdown submit never
    // claims (and then has to return) budget.
    plane_.throwIfClosed();
    auto key = store_.find(key_id);
    if (!key) {
        // Reject-not-throw: a bad key id is data. Resolved inline by
        // the synchronous path — no admission budget consumed,
        // nothing queued, no registry entry created.
        std::promise<bool> p;
        p.set_value(
            verifyBatch({{key_id, req.message, req.signature}})[0]);
        return p.get_future();
    }

    TenantCounters &tc = statsReg_->tenant(key_id);
    try {
        admission_->admit(Plane::Verify, tc, key_id);
    } catch (const ServiceOverload &) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        throw;
    }
    tc.verifiesSubmitted.fetch_add(1, std::memory_order_relaxed);
    return plane_.submit(
        [&] {
            Task task;
            // Route once at admission: workers verify with shared
            // immutable warm state only.
            task.warm = cache_->acquire(key);
            task.tenant = &tc;
            task.req = std::move(req);
            return task;
        },
        [&] {
            tc.verifyFailures.fetch_add(1, std::memory_order_relaxed);
            admission_->release(Plane::Verify, tc);
        });
}

std::vector<std::future<bool>>
VerifyService::submitMany(const std::string &key_id,
                          std::span<batch::VerifyRequest> reqs)
{
    std::vector<std::future<bool>> futures;
    futures.reserve(reqs.size());
    for (batch::VerifyRequest &r : reqs)
        futures.push_back(submit(key_id, std::move(r)));
    return futures;
}

void
VerifyService::settle(Task &task, bool ok,
                      telemetry::RequestOutcome &out)
{
    TenantCounters &tc = *task.tenant;
    if (!ok)
        tc.verifyFailures.fetch_add(1, std::memory_order_relaxed);
    out.tenant = &tc.id;
    out.tenantEndToEnd = ok ? &tc.verifyLatency : nullptr;
    task.warm.reset(); // release the context pin promptly
    admission_->release(Plane::Verify, tc);
}

void
VerifyService::verifyPass(unsigned worker, std::span<Task *const> live)
{
    // Group by warm context rather than tenant id: a mid-flight key
    // rotation can put two different contexts for one id in the same
    // pass, and each request must verify under the context it was
    // admitted with.
    std::map<const WarmContext *, std::vector<Task *>> groups;
    for (Task *t : live)
        groups[t->warm.get()].push_back(t);

    telemetry::Telemetry &tel = statsReg_->telemetry();
    for (auto &[warm, tasks] : groups) {
        std::vector<ByteSpan> msgs(tasks.size());
        std::vector<ByteSpan> sigs(tasks.size());
        for (size_t j = 0; j < tasks.size(); ++j) {
            tel.stamp(tasks[j]->trace, telemetry::Stage::GroupFormed);
            msgs[j] = ByteSpan(tasks[j]->req.message);
            sigs[j] = ByteSpan(tasks[j]->req.signature);
        }
        try {
            for (Task *t : tasks)
                tel.stamp(t->trace, telemetry::Stage::CryptoStart);
            auto flags = runGroup(*warm, *tasks[0]->tenant, msgs, sigs);
            for (size_t j = 0; j < tasks.size(); ++j) {
                // Verification has no guard pass; GuardEnd ==
                // CryptoEnd keeps the callback stage well-defined.
                tel.stamp(tasks[j]->trace, telemetry::Stage::CryptoEnd);
                tel.stamp(tasks[j]->trace, telemetry::Stage::GuardEnd);
                plane_.succeed(worker, *tasks[j], flags[j] != 0);
            }
        } catch (...) {
            for (Task *t : tasks)
                plane_.fail(*t, std::current_exception());
        }
    }
}

ServiceStats
VerifyService::stats() const
{
    ServiceStats st;
    // Verdict counters first: every verdict counted here was admitted
    // before the ledger read below, so verifiesSubmitted bounds them.
    st.verifies = verifies_.load(std::memory_order_relaxed);
    st.verifiesRejected = rejected_.load(std::memory_order_relaxed);
    st.verifyRejects = rejects_.load(std::memory_order_relaxed);
    st.unknownTenantRejects =
        unknownRejects_.load(std::memory_order_relaxed);
    const batch::Ledger ledger = plane_.ledger();
    st.verifyFailures = ledger.failures;
    st.verifyExpired = ledger.expired;
    st.verifyWorkerRestarts = ledger.restarts;
    st.verifiesSubmitted = ledger.submitted;
    st.verifyInFlight = ledger.submitted - ledger.completed;
    st.verifyQueueDepth = ledger.queueDepth;
    st.wallUs = ledger.wallUs;
    st.verifiesPerSec =
        st.wallUs > 0 ? st.verifies * 1e6 / st.wallUs : 0.0;
    st.cache = cache_->stats();
    st.tenants =
        statsReg_->snapshot(0, StatsRegistry::kVerifyPlane);
    st.stages = statsReg_->telemetry().snapshotStages(
        telemetry::Plane::Verify);
    return st;
}

} // namespace herosign::service
