#include "common/thread_pool.hh"

#include "common/logging.hh"

namespace triq
{

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads < 1)
        panic("ThreadPool: need at least one thread, got ", num_threads);
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submitBatch(std::vector<std::function<void()>> jobs)
{
    if (jobs.empty())
        return;
    const size_t n = jobs.size();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (auto &job : jobs)
            queue_.push_back(std::move(job));
    }
    if (n == 1)
        workReady_.notify_one();
    else
        workReady_.notify_all();
}

void
ThreadPool::ensureWorkers(int num_threads)
{
    while (size() < num_threads)
        workers_.emplace_back([this] { workerLoop(); });
}

int
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool &
processPool(int min_workers)
{
    static ThreadPool pool(min_workers);
    // Concurrent fan-outs may ask for different sizes at once.
    static std::mutex grow;
    std::lock_guard<std::mutex> lock(grow);
    pool.ensureWorkers(min_workers);
    return pool;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ with a drained queue
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
    }
}

} // namespace triq
