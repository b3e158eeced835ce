/**
 * @file
 * The FIFO under the worker plane: one mutex, one condition variable
 * and one deque, shared by every producer and every worker.
 *
 * A worker takes a whole pass in one locked step (popUpTo): it blocks
 * for the first item, then takes whatever else is already queued, up
 * to its coalescing window, without waiting for more.
 */

#ifndef HEROSIGN_BATCH_MPMC_QUEUE_HH
#define HEROSIGN_BATCH_MPMC_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace herosign::batch
{

/** Blocking multi-producer / multi-consumer FIFO; thread-safe. */
template <typename T>
class MpmcQueue
{
  public:
    /**
     * Enqueue @p item and wake one waiting consumer.
     * @throws std::runtime_error after close()
     */
    void
    push(T item)
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            if (closed_)
                throw std::runtime_error("push on closed queue");
            q_.push_back(std::move(item));
            size_.store(q_.size());
        }
        cv_.notify_one();
    }

    /**
     * Replace @p out with the next items in FIFO order: block while
     * the queue is open and empty, then take up to @p max (>= 1) of
     * the items already queued. Never waits for more.
     * @return false once the queue is closed and drained
     */
    bool
    popUpTo(std::vector<T> &out, size_t max)
    {
        out.clear();
        // The wait is timed, 200 us doubling to 5 ms, rather than a
        // plain cv_.wait: on a 4-core Xeon an untimed wait lowered
        // perfbench interactive-256f sign_per_s in 14 of 17 paired
        // runs (medians -2.6% and -3.0% in two sets), while this
        // backoff measured the same as the sharded queue it
        // replaced. A push still notifies, so an item never waits
        // for a timeout.
        auto backoff = kFirstBackoff;
        std::unique_lock<std::mutex> lk(m_);
        while (q_.empty()) {
            if (closed_)
                return false;
            cv_.wait_for(lk, backoff);
            backoff = std::min<std::chrono::microseconds>(backoff * 2,
                                                          kMaxBackoff);
        }
        const size_t n = std::min(max, q_.size());
        for (size_t i = 0; i < n; ++i) {
            out.push_back(std::move(q_.front()));
            q_.pop_front();
        }
        size_.store(q_.size());
        return true;
    }

    /** Close the queue: queued items still drain, pushes throw. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            closed_ = true;
        }
        cv_.notify_all();
    }

    /** Number of queued items; readable without the queue lock. */
    size_t
    sizeApprox() const
    {
        return size_.load();
    }

  private:
    static constexpr std::chrono::microseconds kFirstBackoff{200};
    static constexpr std::chrono::microseconds kMaxBackoff{5000};

    std::mutex m_;
    std::condition_variable cv_;
    std::deque<T> q_;
    bool closed_ = false;
    std::atomic<size_t> size_{0};
};

} // namespace herosign::batch

#endif // HEROSIGN_BATCH_MPMC_QUEUE_HH
