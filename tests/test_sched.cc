/**
 * @file
 * Threading tests: the one fan-out (coverage, the in-flight bound,
 * the serial path, exception propagation, concurrent callers), the
 * thread-count rule of ExecOptions::threads, and the end-to-end contract
 * that the thread count never changes a result (bit-identical
 * histograms and sweep artifacts for serial, 3, 8 and
 * one-per-hardware-thread workers).
 *
 * Everything here runs with small trial counts and a worker handful so
 * the suite stays fast under ASan/UBSan/TSan (ctest -L sched).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sched.hh"
#include "common/thread_pool.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "service/sweep.hh"
#include "sim/executor.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

TEST(FanOut, CoversEveryIndexOnce)
{
    for (int workers : {1, 2, 3, 8}) {
        for (int items : {0, 1, 7, 64, 100}) {
            std::vector<std::atomic<int>> hits(items);
            for (auto &h : hits)
                h.store(0);
            SchedDecision d = forEachIndex(
                workers, items, [&hits](int i) { hits[i].fetch_add(1); });
            for (int i = 0; i < items; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "workers=" << workers << " items=" << items
                    << " i=" << i;
            EXPECT_EQ(d.threads, fanOutWidth(workers, items));
            EXPECT_EQ(d.threaded, d.threads > 1);
            EXPECT_GE(d.actualMs, 0.0);
            EXPECT_EQ(d.predictedMs, 0.0);
        }
    }
}

TEST(FanOut, NeverRunsMoreItemsThanWorkers)
{
    // A pool grown by an earlier, wider caller must not widen a
    // narrower fan-out: the executor reserves memory for `workers`
    // in-flight chunks.
    processPool(8);
    std::atomic<int> in_flight{0}, peak{0};
    SchedDecision d = forEachIndex(2, 64, [&](int) {
        int now = in_flight.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        in_flight.fetch_sub(1);
    });
    EXPECT_TRUE(d.threaded);
    EXPECT_EQ(d.threads, 2);
    EXPECT_LE(peak.load(), 2);
}

TEST(FanOut, OneWorkerRunsOnTheCallingThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    SchedDecision d = forEachIndex(1, 64, [&](int i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_FALSE(d.threaded);
    EXPECT_EQ(d.threads, 1);
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(FanOut, PropagatesExceptionsAndThePoolStaysUsable)
{
    EXPECT_THROW(forEachIndex(3, 64,
                              [](int i) {
                                  if (i == 37)
                                      throw std::runtime_error("item 37");
                              }),
                 std::runtime_error);
    EXPECT_THROW(forEachIndex(1, 8,
                              [](int i) {
                                  if (i == 5)
                                      throw std::runtime_error("item 5");
                              }),
                 std::runtime_error);
    std::atomic<int> ran{0};
    forEachIndex(3, 16, [&ran](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
}

TEST(FanOut, ConcurrentCallersKeepTheirOwnErrors)
{
    // Two threads fan out onto the process pool at once; only one of
    // them throws, and only that one may see the exception.
    for (int trial = 0; trial < 20; ++trial) {
        bool a_threw = false, b_threw = false;
        auto nap = [] {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        };
        std::thread a([&] {
            try {
                forEachIndex(2, 64, [&](int i) {
                    nap();
                    if (i == 3)
                        throw std::runtime_error("a");
                });
            } catch (const std::runtime_error &) {
                a_threw = true;
            }
        });
        std::thread b([&] {
            try {
                forEachIndex(3, 64, [&](int) { nap(); });
            } catch (const std::runtime_error &) {
                b_threw = true;
            }
        });
        a.join();
        b.join();
        EXPECT_TRUE(a_threw) << "trial " << trial;
        EXPECT_FALSE(b_threw) << "trial " << trial;
    }
}

TEST(FanOut, WidthFollowsTheThreadRule)
{
    const int hw = std::min(ThreadPool::hardwareThreads(), kMaxThreads);
    EXPECT_EQ(fanOutWidth(0, 1 << 20), hw);
    EXPECT_EQ(fanOutWidth(-1, 1 << 20), hw);
    EXPECT_EQ(fanOutWidth(1, 100), 1);
    EXPECT_EQ(fanOutWidth(5, 3), 3);
    EXPECT_EQ(fanOutWidth(8, 0), 1);
    // A count past the ceiling never reaches the pool.
    EXPECT_EQ(fanOutWidth(100000, 1 << 20), kMaxThreads);
}

TEST(ThreadPoolBatch, EnsureWorkersGrowsThePool)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        EXPECT_EQ(pool.size(), 1);
        pool.ensureWorkers(3);
        EXPECT_EQ(pool.size(), 3);
        pool.ensureWorkers(2); // never shrinks
        EXPECT_EQ(pool.size(), 3);
        pool.submitBatch(std::vector<std::function<void()>>(
            9, [&ran] { ran.fetch_add(1); }));
    } // the destructor drains the queue before it joins
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPoolBatch, ProcessPoolIsShared)
{
    ThreadPool &a = processPool(2);
    ThreadPool &b = processPool(1);
    EXPECT_EQ(&a, &b);
    EXPECT_GE(b.size(), 2); // never shrinks below an earlier request
}

TEST(SchedEnv, SimThreadsZeroMeansHardwareThreads)
{
    // ExecOptions::threads = 0 runs one worker per hardware thread, and
    // the default runs serially.
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(0);
    CompileOptions copts;
    copts.emitAssembly = false;
    CompileResult compiled =
        compileForDevice(makeBenchmark("BV4"), dev, calib, copts);
    // 64 chunks of 64 trials: more chunks than any test box has
    // hardware threads.
    const int chunks = 64;
    auto workers = [&](const ExecOptions &eo) {
        return executeNoisy(compiled.hwCircuit, dev, calib, 64 * chunks, 5,
                            eo)
            .sched.threads;
    };
    ExecOptions eo;
    EXPECT_EQ(workers(eo), 1);
    eo.threads = 0;
    EXPECT_EQ(workers(eo), std::min(ThreadPool::hardwareThreads(), chunks));
}

/**
 * The end-to-end contract: the thread count decides only *where* work
 * runs. Serial, one-per-hardware-thread and forced-threaded execution
 * of the same compiled fig07 circuit must agree bit for bit.
 */
TEST(SchedDeterminism, Fig07HistogramsIdenticalAcrossThreadCounts)
{
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(3);
    const int trials = 192;
    for (const char *name : {"BV4", "QFT", "Adder"}) {
        Circuit program = makeBenchmark(name);
        CompileOptions copts;
        copts.emitAssembly = false;
        CompileResult compiled =
            compileForDevice(program, dev, calib, copts);

        ExecOptions serial;
        serial.threads = 1;
        ExecutionResult r_serial = executeNoisy(
            compiled.hwCircuit, dev, calib, trials, 99, serial);
        EXPECT_FALSE(r_serial.sched.threaded) << name;

        for (int threads : {-1, 3, 8}) {
            ExecOptions eo;
            eo.threads = threads;
            ExecutionResult r = executeNoisy(compiled.hwCircuit, dev,
                                             calib, trials, 99, eo);
            if (threads > 1) {
                EXPECT_TRUE(r.sched.threaded) << name;
            }
            EXPECT_EQ(r_serial.histogram, r.histogram)
                << name << " threads=" << threads;
            EXPECT_EQ(r_serial.successRate, r.successRate) << name;
            EXPECT_EQ(r_serial.simulatedTrajectories,
                      r.simulatedTrajectories)
                << name;
            EXPECT_GE(r.sched.actualMs, 0.0) << name;
        }
    }
}

TEST(SchedDeterminism, SweepResultsIdenticalAcrossThreadCounts)
{
    SweepConfig cfg;
    for (const char *name : {"BV4", "Toffoli", "QFT"})
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = {makeIbmQ5(), makeIbmQ14()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;

    auto espsOf = [](const SweepResult &r) {
        std::vector<double> esps;
        for (const SweepCell &c : r.cells)
            esps.push_back(c.esp);
        return esps;
    };

    cfg.threads = 1;
    CompileCache cache_serial;
    SweepResult serial = runSweep(cfg, &cache_serial);
    EXPECT_EQ(serial.stats.threads, 1);

    for (int threads : {-1, 3, 8}) {
        cfg.threads = threads;
        CompileCache cache;
        SweepResult r = runSweep(cfg, &cache);
        if (threads > 1) {
            EXPECT_GT(r.stats.threads, 1);
            EXPECT_LE(r.stats.threads, threads);
        }
        EXPECT_EQ(espsOf(serial), espsOf(r)) << "threads=" << threads;
        EXPECT_EQ(serial.stats.compiles, r.stats.compiles);
        EXPECT_EQ(serial.stats.cacheHits, r.stats.cacheHits);
    }
}

} // namespace
} // namespace triq
