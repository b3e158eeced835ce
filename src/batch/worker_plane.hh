/**
 * @file
 * WorkerPlane: the one worker plane behind BatchSigner, SignService
 * and VerifyService — the CPU counterpart of the paper's multi-stream
 * task graph, where idle time between the streams feeding shared
 * kernels is what throughput is lost to.
 *
 * A plane owns one FIFO queue, the worker threads, and everything a
 * queued task goes through between submit and a settled future:
 *
 *  - admission bookkeeping: the submitted/completed ledger with the
 *    first-submit and last-completion times, and drain();
 *  - one popUpTo per pass: block for the first task, then take what
 *    is already queued up to the coalescing window (never waiting
 *    for more work);
 *  - the QueueStall / WorkerThrow fault seams;
 *  - the dequeue-time sweep: a closing plane fast-fails queued tasks
 *    with ServiceShutdown, an expired deadline fails its task with
 *    DeadlineExceeded;
 *  - pass supervision: an exception escaping a pass fails only that
 *    pass's unsettled tasks, counts a restart and keeps the worker;
 *  - settling: telemetry completion, then the promise, then the
 *    ledger, so drain() returning implies every future is ready.
 *
 * A front end supplies only its group step (what one pass does with
 * the tasks that survived the sweep) and, optionally, its own
 * accounting for a task about to settle.
 */

#ifndef HEROSIGN_BATCH_WORKER_PLANE_HH
#define HEROSIGN_BATCH_WORKER_PLANE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "batch/mpmc_queue.hh"
#include "common/errors.hh"
#include "common/fault.hh"
#include "telemetry/telemetry.hh"

namespace herosign::batch
{

/**
 * One queued request plus the bookkeeping a worker plane needs.
 * Move-only (it owns a promise). Front ends derive from it to carry
 * their routing state.
 */
template <typename Req, typename Res>
struct PlaneTask
{
    using Result = Res;

    uint64_t seq = 0; ///< submission order, 0-based
    Req req;
    std::promise<Result> promise;
    /// Set once the promise has been fulfilled or failed; lets the
    /// supervisor fail exactly the unsettled tasks of a pass.
    bool settled = false;
    /// Stage stamps for the telemetry plane (all zero when disarmed).
    telemetry::TraceClock trace;
    /// kSpan* flag bits accumulated as the task progresses.
    uint32_t traceFlags = 0;
};

/** One consistent view of a plane's ledger and counters. */
struct Ledger
{
    uint64_t submitted = 0;
    uint64_t completed = 0;
    size_t queueDepth = 0;
    /// First submit of the epoch -> last completion (0 before any).
    double wallUs = 0;
    uint64_t failures = 0; ///< tasks settled with an exception
    uint64_t expired = 0;  ///< dropped at dequeue, deadline passed
    uint64_t restarts = 0; ///< passes aborted by an escaped exception
};

template <typename Task>
class WorkerPlane
{
  public:
    using Result = typename Task::Result;
    /// One pass: the coalesced tasks that survived the sweep, in
    /// dequeue order. The step settles each through succeed() or
    /// fail().
    using Step =
        std::function<void(unsigned worker, std::span<Task *const>)>;
    /// Front-end accounting for a task about to settle (@p ok false
    /// for a failure); may label the telemetry outcome. Runs before
    /// the promise is set.
    using Settle = std::function<void(Task &, bool ok,
                                      telemetry::RequestOutcome &)>;

    /**
     * Start @p workers threads (clamped to >= 1), each coalescing up
     * to @p window tasks per pass; @p name prefixes every error the
     * plane raises. A failed launch joins the threads already started
     * before rethrowing: destroying a joinable thread would call
     * std::terminate.
     */
    WorkerPlane(const char *name, telemetry::Plane plane,
                unsigned workers, unsigned window,
                telemetry::Telemetry &tel, Step step,
                Settle settle = nullptr)
        : name_(name), plane_(plane), tel_(tel), step_(std::move(step)),
          settle_(std::move(settle)), window_(window == 0 ? 1 : window)
    {
        const unsigned n = workers == 0 ? 1 : workers;
        workers_.reserve(n);
        for (unsigned i = 0; i < n; ++i)
            workers_.push_back(std::make_unique<Worker>());
        // Start the threads only after the vector is fully built: a
        // worker indexes workers_[id] on its first instruction.
        try {
            for (unsigned i = 0; i < n; ++i)
                workers_[i]->thread =
                    std::thread([this, i] { run(i); });
        } catch (...) {
            join();
            throw;
        }
    }

    /**
     * Graceful teardown: everything still queued is processed before
     * the workers join — destruction never strands a future.
     */
    ~WorkerPlane() { join(); }

    WorkerPlane(const WorkerPlane &) = delete;
    WorkerPlane &operator=(const WorkerPlane &) = delete;

    /**
     * Reject new submits and fast-fail everything still queued with
     * ServiceShutdown (the workers keep popping; the sweep settles
     * each task cheaply), then join. Tasks already in a pass finish
     * normally. Idempotent.
     */
    void
    close()
    {
        closing_.store(true, std::memory_order_release);
        join();
    }

    /** @throws ServiceShutdown once close() has been called */
    void
    throwIfClosed() const
    {
        if (closing_.load(std::memory_order_acquire))
            throw ServiceShutdown(name_ + ": submit after close()");
    }

    /**
     * Admit and queue one task: claims the next sequence number,
     * builds the task with @p build() and queues it. When building
     * or queueing throws, @p undo() reverses the front end's own
     * admission, the claim completes as a failure (so drain() still
     * converges) and the error propagates — as ServiceShutdown when
     * the plane closed meanwhile.
     */
    template <typename Build, typename Undo>
    std::future<Result>
    submit(Build &&build, Undo &&undo)
    {
        const uint64_t seq = admit();
        try {
            Task task = build();
            task.seq = seq;
            auto fut = task.promise.get_future();
            tel_.stamp(task.trace, telemetry::Stage::Admit);
            queue_.push(std::move(task));
            return fut;
        } catch (...) {
            failures_.fetch_add(1, std::memory_order_relaxed);
            undo();
            complete();
            throwIfClosed();
            throw;
        }
    }

    /** Settle @p task with @p value; @p worker counts the success. */
    void
    succeed(unsigned worker, Task &task, Result value)
    {
        finish(task, true);
        task.promise.set_value(std::move(value));
        task.settled = true;
        workers_[worker]->succeeded.fetch_add(
            1, std::memory_order_relaxed);
        complete();
    }

    /** Settle @p task with @p err; a no-op when already settled. */
    void
    fail(Task &task, std::exception_ptr err)
    {
        if (task.settled)
            return;
        failures_.fetch_add(1, std::memory_order_relaxed);
        finish(task, false);
        task.promise.set_exception(std::move(err));
        task.settled = true;
        complete();
    }

    /**
     * Count @p n submissions in the ledger (opening the epoch on the
     * first) and return the first one's sequence number.
     */
    uint64_t
    admit(uint64_t n = 1)
    {
        std::lock_guard<std::mutex> lk(ledgerM_);
        if (!epochOpen_) {
            epochOpen_ = true;
            epochStart_ = std::chrono::steady_clock::now();
        }
        return submitted_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Count @p n completions and wake drain(). */
    void
    complete(uint64_t n = 1)
    {
        {
            std::lock_guard<std::mutex> lk(ledgerM_);
            completed_.fetch_add(n, std::memory_order_release);
            lastCompletion_ = std::chrono::steady_clock::now();
        }
        drainCv_.notify_all();
    }

    /**
     * One consistent snapshot: admit() and complete() serialize on
     * the ledger lock, so inFlight is exact and every queued task is
     * necessarily submitted-and-not-completed (queueDepth <=
     * inFlight). No lock-order inversion: no thread takes the ledger
     * lock while holding the queue lock.
     */
    Ledger
    ledger() const
    {
        std::lock_guard<std::mutex> lk(ledgerM_);
        return ledgerLocked();
    }

    /** Block until everything submitted so far has completed. */
    void drain() { drain(false, [](const Ledger &) {}); }

    /**
     * Block until everything submitted so far has completed, then run
     * @p atRest with the ledger while still holding its lock: no task
     * can be admitted or settled meanwhile, so every counter the
     * plane and its step keep is frozen. With @p newEpoch the wall
     * clock restarts at the next admission.
     */
    template <typename F>
    void
    drain(bool newEpoch, F &&atRest)
    {
        std::unique_lock<std::mutex> lk(ledgerM_);
        drainCv_.wait(lk, [&] {
            return completed_.load(std::memory_order_acquire) ==
                   submitted_.load(std::memory_order_acquire);
        });
        atRest(ledgerLocked());
        if (newEpoch)
            epochOpen_ = false;
    }

    /** Tasks submitted and not yet completed (approximate). */
    uint64_t
    pending() const
    {
        // Load completed first: a task can complete between the two
        // loads, but none can complete before being submitted, so
        // this order cannot underflow.
        const uint64_t done = completed_.load();
        const uint64_t sub = submitted_.load();
        return sub - done;
    }

    unsigned
    workers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    unsigned window() const { return window_; }

    /** Tasks worker @p i settled successfully. */
    uint64_t
    succeeded(unsigned i) const
    {
        return workers_[i]->succeeded.load(std::memory_order_relaxed);
    }

  private:
    struct Worker
    {
        std::thread thread;
        std::atomic<uint64_t> succeeded{0};
    };

    void
    join()
    {
        // Closing the queue wakes every blocked worker; what remains
        // queued is still popped and either processed or, once
        // closing_ is set, fast-failed by the sweep.
        queue_.close();
        for (auto &w : workers_) {
            if (w->thread.joinable())
                w->thread.join();
        }
    }

    Ledger
    ledgerLocked() const
    {
        Ledger l;
        l.completed = completed_.load(std::memory_order_acquire);
        l.submitted = submitted_.load(std::memory_order_acquire);
        l.queueDepth = queue_.sizeApprox();
        if (epochOpen_ && l.completed > 0)
            l.wallUs = std::chrono::duration<double, std::micro>(
                           lastCompletion_ - epochStart_)
                           .count();
        l.failures = failures_.load(std::memory_order_relaxed);
        l.expired = expired_.load(std::memory_order_relaxed);
        l.restarts = restarts_.load(std::memory_order_relaxed);
        return l;
    }

    void
    finish(Task &task, bool ok)
    {
        telemetry::RequestOutcome out;
        out.plane = plane_;
        out.seq = task.seq;
        out.flags = task.traceFlags;
        if (!ok)
            out.flags |= telemetry::kSpanFailed;
        if (FaultInjector::armed())
            out.flags |= telemetry::kSpanFaultArmed;
        // Failure timelines are sampled into the trace ring (with
        // their flags) but kept out of the latency histograms, so
        // percentiles describe successful traffic only.
        out.recordHistograms = ok;
        if (settle_)
            settle_(task, ok, out);
        if (tel_.enabled()) {
            tel_.stamp(task.trace, telemetry::Stage::Done);
            tel_.complete(task.trace, out);
        }
    }

    /**
     * Admission filter at dequeue time (shutdown and deadlines): fails
     * the tasks that must not run and collects the rest into @p live.
     */
    void
    sweep(std::vector<Task> &pass, std::vector<Task *> &live)
    {
        const bool closing = closing_.load(std::memory_order_acquire);
        const auto now = std::chrono::steady_clock::now();
        live.clear();
        for (Task &t : pass) {
            if (closing) {
                fail(t, std::make_exception_ptr(ServiceShutdown(
                            name_ + ": closed while the request was "
                                    "still queued")));
            } else if (t.req.deadline && now > *t.req.deadline) {
                expired_.fetch_add(1, std::memory_order_relaxed);
                t.traceFlags |= telemetry::kSpanExpired;
                fail(t, std::make_exception_ptr(DeadlineExceeded(
                            name_ + ": deadline passed while the "
                                    "request was queued")));
            } else {
                live.push_back(&t);
            }
        }
    }

    void
    run(unsigned id)
    {
        std::vector<Task> pass;
        std::vector<Task *> live;
        pass.reserve(window_);
        live.reserve(window_);
        // An idle queue runs a single task at once, a backlogged one
        // fills the window.
        while (queue_.popUpTo(pass, window_)) {
            for (Task &t : pass)
                tel_.stamp(t.trace, telemetry::Stage::Dequeue);
            try {
                if (FaultInjector::fire(FaultPoint::QueueStall))
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            FaultInjector::instance().stallMs()));
                FaultInjector::throwIfFires(FaultPoint::WorkerThrow);
                sweep(pass, live);
                if (!live.empty())
                    step_(id, live);
            } catch (...) {
                // Supervision: fail only this pass's unsettled tasks,
                // then keep running — an in-place restart, so the
                // pool never shrinks and queued work behind the fault
                // still gets processed.
                for (Task &t : pass)
                    fail(t, std::current_exception());
                restarts_.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }

    const std::string name_;
    const telemetry::Plane plane_;
    telemetry::Telemetry &tel_;
    const Step step_;
    const Settle settle_;
    const unsigned window_;
    MpmcQueue<Task> queue_;
    std::vector<std::unique_ptr<Worker>> workers_;

    std::atomic<bool> closing_{false};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> failures_{0};
    std::atomic<uint64_t> expired_{0};
    std::atomic<uint64_t> restarts_{0};

    mutable std::mutex ledgerM_;
    std::condition_variable drainCv_;
    std::chrono::steady_clock::time_point epochStart_;
    std::chrono::steady_clock::time_point lastCompletion_;
    bool epochOpen_ = false;
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_WORKER_PLANE_HH
