/**
 * @file
 * A small reusable worker pool for data-parallel simulation and
 * compilation work.
 *
 * The pool only runs jobs: forEachIndex (common/sched.hh), the one
 * fan-out, submits its jobs with submitBatch() and tracks their
 * completion and errors itself. Determinism comes from the callers'
 * fixed work split and index-ordered merge, not from any scheduling
 * property of this pool, so workers are free to take whatever job is
 * next.
 *
 * Jobs must not throw (forEachIndex's jobs catch everything) and must
 * not themselves submit to the same pool (no nesting).
 */

#ifndef TRIQ_COMMON_THREAD_POOL_HH
#define TRIQ_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace triq
{

/** A worker pool that grows on demand and never shrinks. */
class ThreadPool
{
  public:
    /**
     * Spawn `num_threads` workers. @pre num_threads >= 1.
     * A 1-thread pool still spawns a worker; callers that want a true
     * serial path should simply not construct a pool — forEachIndex
     * (common/sched.hh) runs one worker on the calling thread.
     */
    explicit ThreadPool(int num_threads);

    /** Drains remaining jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue every job of `jobs` under a single lock acquisition and
     * wake the workers once (one notify_all instead of N notify_one
     * calls). Jobs are moved, never copied. Thread-safe.
     */
    void submitBatch(std::vector<std::function<void()>> jobs);

    /**
     * Grow the pool to at least `num_threads` workers (no-op when it
     * is already that large). Never call it from a worker job, nor
     * from two threads at once: processPool() serializes its callers.
     */
    void ensureWorkers(int num_threads);

    /** Worker count. */
    int size() const { return static_cast<int>(workers_.size()); }

    /** Hardware concurrency with a sane floor of 1. */
    static int hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    bool stopping_ = false;
};

/**
 * The process-wide worker pool, created on first use with at least
 * `min_workers` workers and grown on demand. @pre min_workers >= 1.
 * Keeping one pool hot across executeNoisy/runSweep calls saves the
 * worker-spawn cost that would otherwise be paid per call. Several
 * threads may fan out onto it at once through forEachIndex.
 */
ThreadPool &processPool(int min_workers);

} // namespace triq

#endif // TRIQ_COMMON_THREAD_POOL_HH
