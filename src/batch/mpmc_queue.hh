/**
 * @file
 * A sharded, lock-guarded multi-producer / multi-consumer queue.
 *
 * Producers push round-robin across shards so no single mutex
 * serializes a burst of submissions; consumers pop from a home shard
 * (their "stream") and steal from sibling shards when the home shard
 * runs dry. The shard count models the engine's stream count: one
 * shard per stream keeps per-stream submission order while letting
 * idle workers help a backlogged stream.
 */

#ifndef HEROSIGN_BATCH_MPMC_QUEUE_HH
#define HEROSIGN_BATCH_MPMC_QUEUE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace herosign::batch
{

/**
 * Sharded blocking MPMC queue. All operations are thread-safe; each
 * shard is guarded by its own mutex so producers and consumers on
 * different shards never contend.
 */
template <typename T>
class ShardedMpmcQueue
{
  public:
    /** Create a queue with @p shards shards (clamped to >= 1). */
    explicit ShardedMpmcQueue(unsigned shards)
    {
        shards_.reserve(shards == 0 ? 1 : shards);
        for (unsigned i = 0; i < (shards == 0 ? 1 : shards); ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    unsigned shards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /**
     * Enqueue @p item on the next shard in round-robin order and wake
     * one consumer waiting on that shard (or, when none is parked
     * there, one parked on a sibling shard, which will steal it).
     * @throws std::runtime_error after close()
     */
    void
    push(T item)
    {
        const size_t idx =
            pushSeq_.fetch_add(1, std::memory_order_relaxed) %
            shards_.size();
        Shard &s = *shards_[idx];
        {
            std::lock_guard<std::mutex> lk(s.m);
            // The closed flag is per-shard and only ever read or
            // written under the shard mutex, so push and the
            // consumers' exhaustion verdict are strictly serialized:
            // an accepted item is always seen and drained.
            if (s.closed)
                throw std::runtime_error("push on closed queue");
            s.q.push_back(std::move(item));
            // seq_cst: one half of the Dekker pair with pop()'s
            // register-waiter-then-recheck — either the parking
            // consumer's occupancy re-check sees this item, or the
            // waiter scan below sees that consumer registered.
            size_.fetch_add(1, std::memory_order_seq_cst);
        }
        s.cv.notify_one();
        if (s.waiters.load(std::memory_order_seq_cst) == 0) {
            // Nobody parked on the target shard: hand the wakeup to
            // a consumer idling on a sibling, which will steal it.
            for (auto &t : shards_) {
                if (t.get() != &s &&
                    t->waiters.load(std::memory_order_seq_cst) > 0) {
                    // Notify under the sibling's lock: a registered
                    // waiter holds its shard mutex from registration
                    // until the wait atomically releases it, so this
                    // notify cannot land in the gap between the two
                    // and get lost.
                    std::lock_guard<std::mutex> g(t->m);
                    t->cv.notify_one();
                    break;
                }
            }
        }
    }

    /**
     * Dequeue into @p out, preferring the @p home shard and stealing
     * from the others when it is empty. Blocks while the queue is
     * open and empty.
     * @return false once the queue is closed and fully drained
     */
    bool
    pop(T &out, unsigned home)
    {
        const unsigned n = shards();
        Shard &h = *shards_[home % n];
        // Exponential idle backoff: stay responsive (200 us) while
        // work trickles in, but don't busy-poll a long-idle queue.
        auto backoff = std::chrono::microseconds(200);
        constexpr auto max_backoff = std::chrono::milliseconds(5);
        for (;;) {
            if (tryPop(out, home))
                return true;
            std::unique_lock<std::mutex> lk(h.m);
            if (!h.q.empty()) {
                out = std::move(h.q.front());
                h.q.pop_front();
                size_.fetch_sub(1, std::memory_order_release);
                return true;
            }
            if (h.closed) {
                lk.unlock();
                // Other shards may still hold work after close; only
                // report exhaustion once every shard has been seen
                // closed AND empty under its own lock — after that
                // no push can ever be accepted again.
                if (tryPop(out, home))
                    return true;
                bool exhausted = true;
                for (unsigned i = 0; i < n && exhausted; ++i) {
                    Shard &s = *shards_[(home + i) % n];
                    std::lock_guard<std::mutex> g(s.m);
                    if (!s.closed || !s.q.empty())
                        exhausted = false;
                }
                if (exhausted)
                    return false;
                continue;
            }
            // Park protocol: register as a waiter BEFORE the final
            // occupancy re-check (the other half of push()'s Dekker
            // pair). A producer either publishes its size_ increment
            // before our re-check — we skip the wait and re-scan — or
            // it observes waiters > 0 and notifies under the shard
            // lock, which cannot happen before our wait because we
            // hold the lock from registration until wait_for
            // atomically releases it. Either way an accepted item is
            // consumed without eating a full backoff timeout.
            h.waiters.fetch_add(1, std::memory_order_seq_cst);
            if (parkProbe)
                parkProbe();
            if (size_.load(std::memory_order_seq_cst) == 0) {
                // Bounded wait so a steal opportunity on a sibling
                // shard is noticed even without a notification here.
                h.cv.wait_for(lk, backoff);
                backoff = std::min<std::chrono::microseconds>(
                    backoff * 2, max_backoff);
            }
            h.waiters.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    /**
     * Non-blocking dequeue scanning all shards starting at @p home.
     * @return true when an item was dequeued
     */
    bool
    tryPop(T &out, unsigned home)
    {
        const unsigned n = shards();
        for (unsigned i = 0; i < n; ++i) {
            Shard &s = *shards_[(home + i) % n];
            std::lock_guard<std::mutex> lk(s.m);
            if (s.q.empty())
                continue;
            out = std::move(s.q.front());
            s.q.pop_front();
            size_.fetch_sub(1, std::memory_order_release);
            if (i != 0)
                steals_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /** Close the queue: pending items still drain, pushes throw. */
    void
    close()
    {
        for (auto &s : shards_) {
            std::lock_guard<std::mutex> lk(s->m);
            s->closed = true;
            s->cv.notify_all();
        }
    }

    /** Approximate number of queued items. */
    size_t sizeApprox() const
    {
        return size_.load(std::memory_order_acquire);
    }

    /** Cross-shard (work-stealing) dequeues so far. */
    uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /**
     * Test-only seam: invoked by pop() after it registers as a waiter
     * and before it re-checks occupancy, i.e. inside the historical
     * lost-wakeup window. Lets a regression test inject a push at the
     * exact instant the race used to strike. Must be set before any
     * consumer runs; the hook runs with the home shard's mutex held,
     * so it must not touch that shard. Never set in production.
     */
    std::function<void()> parkProbe;

  private:
    struct Shard
    {
        std::mutex m;
        std::condition_variable cv;
        std::deque<T> q;
        std::atomic<unsigned> waiters{0};
        bool closed = false; ///< guarded by m (push/drain verdict)
    };

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<uint64_t> pushSeq_{0};
    std::atomic<size_t> size_{0};
    std::atomic<uint64_t> steals_{0};
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_MPMC_QUEUE_HH
