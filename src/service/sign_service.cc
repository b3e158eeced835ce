#include "service/sign_service.hh"

#include <stdexcept>

#include "batch/lane_scheduler.hh"
#include "common/errors.hh"

namespace herosign::service
{

using batch::LaneScheduler;

namespace
{

unsigned
resolveCoalesce(unsigned configured)
{
    if (configured == 0)
        return LaneScheduler::preferredGroup();
    return configured;
}

} // namespace

SignService::SignService(KeyStore &store, const ServiceConfig &config,
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
      step_("SignService", statsReg_->telemetry(),
            config.verifyAfterSign, LaneScheduler::preferredGroup()),
      plane_("SignService", telemetry::Plane::Sign, config.workers,
             config.shards, resolveCoalesce(config.signCoalesce),
             statsReg_->telemetry(),
             [this](unsigned w, std::span<Task *const> live) {
                 signPass(w, live);
             },
             [this](Task &t, bool ok, telemetry::RequestOutcome &out) {
                 settle(t, ok, out);
             })
{
}

std::future<ByteVec>
SignService::submit(const std::string &key_id, batch::SignRequest req)
{
    // Checked before admission so a rejected-at-shutdown submit never
    // claims (and then has to return) budget.
    plane_.throwIfClosed();
    auto key = store_.find(key_id);
    if (!key)
        throw std::invalid_argument("SignService: unknown key id '" +
                                    key_id + "'");
    if (!key->canSign())
        throw std::invalid_argument("SignService: key '" + key_id +
                                    "' is verify-only");
    if (!req.optRand.empty() && req.optRand.size() != key->params.n)
        throw std::invalid_argument(
            "SignService: opt_rand must be n bytes");

    // Admission is the shared fabric's hard cap: the controller
    // checks every limit (plane cap, shared budget, tenant quota)
    // and claims the slot inside one critical section, closing the
    // check-then-act race between producers on both planes.
    TenantCounters &tc = statsReg_->tenant(key_id);
    try {
        admission_->admit(Plane::Sign, tc, key_id);
    } catch (const ServiceOverload &) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        throw;
    }
    tc.signsSubmitted.fetch_add(1, std::memory_order_relaxed);
    return plane_.submit(
        [&] {
            Task task;
            // Route once at admission: the worker hot path reuses the
            // warm context and never constructs hashing state.
            task.warm = cache_->acquire(key);
            task.tenant = &tc;
            task.req = std::move(req);
            return task;
        },
        [&] {
            // Keep the per-tenant identity submitted == completed +
            // failures intact and return the claimed slot: the job
            // will never reach a worker.
            tc.signFailures.fetch_add(1, std::memory_order_relaxed);
            admission_->release(Plane::Sign, tc);
        });
}

std::vector<std::future<ByteVec>>
SignService::submitMany(const std::string &key_id,
                        std::span<batch::SignRequest> reqs)
{
    std::vector<std::future<ByteVec>> futures;
    futures.reserve(reqs.size());
    for (batch::SignRequest &r : reqs)
        futures.push_back(submit(key_id, std::move(r)));
    return futures;
}

void
SignService::settle(Task &task, bool ok, telemetry::RequestOutcome &out)
{
    TenantCounters &tc = *task.tenant;
    (ok ? tc.signsCompleted : tc.signFailures)
        .fetch_add(1, std::memory_order_relaxed);
    out.tenant = &tc.id;
    out.tenantEndToEnd = ok ? &tc.signLatency : nullptr;
    task.warm.reset(); // release the context pin promptly
    admission_->release(Plane::Sign, tc);
}

void
SignService::signPass(unsigned worker, std::span<Task *const> live)
{
    // Partition by warm context: only jobs sharing one context (one
    // tenant key) may sign in lockstep. Submission order is preserved
    // within each group.
    std::vector<char> used(live.size(), 0);
    Task *group[LaneScheduler::maxGroup];
    for (size_t i = 0; i < live.size(); ++i) {
        if (used[i])
            continue;
        unsigned n = 0;
        group[n++] = live[i];
        const WarmContext *warm = live[i]->warm.get();
        for (size_t j = i + 1;
             j < live.size() && n < LaneScheduler::maxGroup; ++j) {
            if (!used[j] && live[j]->warm.get() == warm) {
                group[n++] = live[j];
                used[j] = 1;
            }
        }
        // Every member pins the same context, and the step only uses
        // it while some member is still unsettled.
        step_.run(plane_, worker,
                  batch::SigningKey{warm->scheme, warm->ctx,
                                    warm->key->sk, warm->key->pk},
                  std::span<Task *const>(group, n));
    }
}

ServiceStats
SignService::stats() const
{
    ServiceStats st;
    const batch::SignCounts sc = step_.counts();
    const batch::Ledger ledger = plane_.ledger();
    st.signFailures = ledger.failures;
    st.signsRejected = rejected_.load(std::memory_order_relaxed);
    st.signLaneGroups = sc.laneGroups;
    st.signCrossSignJobs = sc.crossSignJobs;
    st.signExpired = ledger.expired;
    st.callbackErrors = sc.callbackErrors;
    st.workerRestarts = ledger.restarts;
    st.guardMismatches = sc.guardMismatches;
    st.laneQuarantines = sc.laneQuarantines;
    st.signsCompleted = ledger.completed;
    st.signsSubmitted = ledger.submitted;
    st.inFlight = ledger.submitted - ledger.completed;
    st.queueDepth = ledger.queueDepth;
    st.wallUs = ledger.wallUs;
    const uint64_t ok = st.signsCompleted >= st.signFailures
                            ? st.signsCompleted - st.signFailures
                            : 0;
    st.sigsPerSec = st.wallUs > 0 ? ok * 1e6 / st.wallUs : 0.0;
    st.cache = cache_->stats();
    st.tenants =
        statsReg_->snapshot(st.wallUs, StatsRegistry::kSignPlane);
    st.stages = statsReg_->telemetry().snapshotStages(
        telemetry::Plane::Sign);
    return st;
}

} // namespace herosign::service
