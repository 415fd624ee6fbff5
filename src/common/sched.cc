#include "common/sched.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "common/thread_pool.hh"

namespace triq
{

void
schedCalib()
{
}

int
fanOutWidth(int workers, int items)
{
    if (workers <= 0)
        workers = ThreadPool::hardwareThreads();
    return std::max(1, std::min({workers, items, kMaxThreads}));
}

SchedDecision
forEachIndex(int workers, int items, const std::function<void(int)> &fn)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    SchedDecision d;
    d.threads = fanOutWidth(workers, items);
    if (d.threads == 1) {
        for (int i = 0; i < items; ++i)
            fn(i);
    } else {
        d.threaded = true;
        // This call's jobs report completion and errors here, so
        // concurrent callers neither wait for each other's jobs nor
        // rethrow each other's errors.
        std::atomic<int> next{0};
        std::mutex m;
        std::condition_variable finished;
        int running = d.threads;
        std::exception_ptr error;
        auto job = [&] {
            std::exception_ptr e;
            try {
                for (int i = next.fetch_add(1); i < items;
                     i = next.fetch_add(1))
                    fn(i);
            } catch (...) {
                e = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(m);
            if (e && !error)
                error = e;
            if (--running == 0)
                finished.notify_one();
        };
        processPool(d.threads).submitBatch(
            std::vector<std::function<void()>>(d.threads, job));
        std::unique_lock<std::mutex> lock(m);
        finished.wait(lock, [&] { return running == 0; });
        if (error)
            std::rethrow_exception(error);
    }
    d.actualMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    return d;
}

} // namespace triq
