/**
 * @file
 * Adaptive-scheduler tests: cost-model monotonicity, decision
 * boundaries under a pinned fake calibration, calibration parsing,
 * batched thread-pool fan-out (coverage + exception propagation), and
 * the end-to-end contract that scheduling never changes simulation
 * results (bit-identical histograms for serial / adaptive / forced
 * threaded on fig07 circuits).
 *
 * Everything here runs with small trial counts and a worker handful so
 * the suite stays fast under ASan/UBSan/TSan (ctest -L sched).
 */

#include <atomic>
#include <stdexcept>
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

/** A pinned calibration so decision tests are machine-independent. */
SchedCalib
fakeCalib(int threads = 8)
{
    SchedCalib c;
    c.perTaskOverheadUs = 10.0;
    c.poolSpawnUs = 1000.0;
    c.ampOpsPerUs = 1000.0;
    c.hardwareThreads = threads;
    return c;
}

TEST(SchedCalibration, ParseRoundTrip)
{
    SchedCalib c = fakeCalib(6);
    auto parsed = parseSchedCalib(schedCalibString(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->perTaskOverheadUs, c.perTaskOverheadUs);
    EXPECT_DOUBLE_EQ(parsed->poolSpawnUs, c.poolSpawnUs);
    EXPECT_DOUBLE_EQ(parsed->ampOpsPerUs, c.ampOpsPerUs);
    EXPECT_EQ(parsed->hardwareThreads, 6);
}

TEST(SchedCalibration, ParseThreeFieldsUsesHardwareThreads)
{
    auto parsed = parseSchedCalib("1.5,200,800");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->perTaskOverheadUs, 1.5);
    EXPECT_GE(parsed->hardwareThreads, 1);
}

TEST(SchedCalibration, ParseRejectsMalformed)
{
    EXPECT_FALSE(parseSchedCalib("").has_value());
    EXPECT_FALSE(parseSchedCalib("1,2").has_value());
    EXPECT_FALSE(parseSchedCalib("1,2,3,4,5").has_value());
    EXPECT_FALSE(parseSchedCalib("a,b,c").has_value());
    EXPECT_FALSE(parseSchedCalib("1,-2,3").has_value());
    EXPECT_FALSE(parseSchedCalib("0,2,3").has_value());
    EXPECT_FALSE(parseSchedCalib("1,2,3junk").has_value());
    EXPECT_FALSE(parseSchedCalib("1,,3").has_value());
    EXPECT_FALSE(parseSchedCalib("nan,2,3").has_value());
}

TEST(SchedCalibration, MeasuredValuesArePositive)
{
    SchedCalib c = measureSchedCalib();
    EXPECT_GT(c.perTaskOverheadUs, 0.0);
    EXPECT_GT(c.poolSpawnUs, 0.0);
    EXPECT_GT(c.ampOpsPerUs, 0.0);
    EXPECT_GE(c.hardwareThreads, 1);
}

TEST(SchedCostModel, ChunkEstimateMonotone)
{
    SchedCalib c = fakeCalib();
    double base = estimateChunkUs(c, 6, 40, 64, 0.5);
    EXPECT_GT(base, 0.0);
    EXPECT_GE(estimateChunkUs(c, 8, 40, 64, 0.5), base);
    EXPECT_GE(estimateChunkUs(c, 6, 80, 64, 0.5), base);
    EXPECT_GE(estimateChunkUs(c, 6, 40, 128, 0.5), base);
    EXPECT_GE(estimateChunkUs(c, 6, 40, 64, 0.9), base);
    EXPECT_LE(estimateChunkUs(c, 6, 40, 64, 0.1), base);
}

TEST(SchedCostModel, CompileEstimateMonotone)
{
    SchedCalib c = fakeCalib();
    double base = estimateCompileUs(c, 14, 20, 100);
    EXPECT_GT(base, 0.0);
    EXPECT_GE(estimateCompileUs(c, 20, 20, 100), base);
    EXPECT_GE(estimateCompileUs(c, 14, 40, 100), base);
    EXPECT_GE(estimateCompileUs(c, 14, 20, 200), base);
}

TEST(SchedPlan, TinyJobStaysSerial)
{
    SchedCalib c = fakeCalib();
    SchedDecision d = planParallel(c, 4, 1.0);
    EXPECT_FALSE(d.threaded);
    EXPECT_EQ(d.threads, 1);
    EXPECT_EQ(d.tasks, 0);
    EXPECT_STREQ(d.mode(), "serial");
    EXPECT_DOUBLE_EQ(d.predictedMs, d.predictedSerialMs);
}

TEST(SchedPlan, BigJobGoesThreadedWithAmortizedBatches)
{
    SchedCalib c = fakeCalib(8);
    SchedDecision d = planParallel(c, 1000, 1000.0, 0, true);
    ASSERT_TRUE(d.threaded);
    EXPECT_STREQ(d.mode(), "threaded");
    EXPECT_GE(d.threads, 2);
    EXPECT_LE(d.threads, 8);
    EXPECT_GE(d.itemsPerTask, 1);
    // The task list must cover every item, no more than one short task.
    EXPECT_EQ(d.tasks, (1000 + d.itemsPerTask - 1) / d.itemsPerTask);
    // The win must clear the margin the plan promises.
    EXPECT_LT(d.predictedMs, d.predictedSerialMs);
}

TEST(SchedPlan, BatchesAmortizeDispatchOverhead)
{
    SchedCalib c = fakeCalib(4);
    // 10000 cheap items: per-task overhead (10us) dwarfs one item
    // (1us), so tasks must carry many items each.
    SchedDecision d = planParallel(c, 10000, 1.0, 0, true);
    ASSERT_TRUE(d.threaded);
    EXPECT_GE(d.itemsPerTask, 50); // >= kAmortizeFactor * 10 / 1 floor
    // ...but never more tasks than needed for balance: a few per
    // worker at most.
    EXPECT_LE(d.tasks, 4 * 4 + 1);
}

TEST(SchedPlan, MaxThreadsOneForcesSerial)
{
    SchedCalib c = fakeCalib();
    SchedDecision d = planParallel(c, 1000, 1000.0, 1, true);
    EXPECT_FALSE(d.threaded);
}

TEST(SchedPlan, SingleThreadMachineStaysSerial)
{
    SchedCalib c = fakeCalib(1);
    SchedDecision d = planParallel(c, 1000, 1000.0, 0, true);
    EXPECT_FALSE(d.threaded);
}

TEST(SchedPlan, ColdPoolSpawnCanFlipTheDecision)
{
    SchedCalib c = fakeCalib(4);
    c.poolSpawnUs = 1e7; // absurdly expensive spawn
    // Worth threading once the pool exists...
    SchedDecision hot = planParallel(c, 64, 500.0, 0, true);
    EXPECT_TRUE(hot.threaded);
    // ...but not worth paying the spawn for.
    SchedDecision cold = planParallel(c, 64, 500.0, 0, false);
    EXPECT_FALSE(cold.threaded);
}

TEST(SchedPlan, EmptyAndSingleItemJobsAreSerial)
{
    SchedCalib c = fakeCalib();
    EXPECT_FALSE(planParallel(c, 0, 100.0).threaded);
    EXPECT_FALSE(planParallel(c, 1, 1e9).threaded);
    EXPECT_FALSE(planForced(c, 0, 100.0, 8).threaded);
    EXPECT_FALSE(planForced(c, 1, 1e9, 8).threaded);
}

TEST(SchedPlan, ForcedSerialNeverThreads)
{
    SchedCalib c = fakeCalib();
    SchedDecision d = planForced(c, 1000, 1000.0, 1, true);
    EXPECT_FALSE(d.threaded);
    EXPECT_EQ(d.threads, 1);
}

TEST(SchedPlan, ForcedThreadedThreadsEvenWhenTheModelSaysNo)
{
    SchedCalib c = fakeCalib(8);
    // Tiny job the model would keep serial...
    ASSERT_FALSE(planParallel(c, 8, 1.0, 0, true).threaded);
    // ...still threads when forced, batched by the same rule.
    SchedDecision d = planForced(c, 8, 1.0, 4, true);
    ASSERT_TRUE(d.threaded);
    EXPECT_LE(d.threads, 4);
    EXPECT_GE(d.itemsPerTask, 1);
    EXPECT_EQ(d.tasks, (8 + d.itemsPerTask - 1) / d.itemsPerTask);
}

TEST(ThreadPoolBatch, ParallelForRangesCoversEveryItemOnce)
{
    ThreadPool pool(3);
    for (int items : {1, 7, 64, 100}) {
        for (int per_task : {1, 3, 64, 1000}) {
            std::vector<std::atomic<int>> hits(items);
            for (auto &h : hits)
                h.store(0);
            parallelForRanges(pool, items, per_task,
                              [&hits](int lo, int hi) {
                                  for (int i = lo; i < hi; ++i)
                                      hits[i].fetch_add(1);
                              });
            for (int i = 0; i < items; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "items=" << items << " per_task=" << per_task
                    << " i=" << i;
        }
    }
}

TEST(ThreadPoolBatch, ZeroItemsIsANoOp)
{
    ThreadPool pool(2);
    parallelForRanges(pool, 0, 4, [](int, int) { FAIL(); });
    pool.submitBatch({}); // empty batch: no lock storm, no wake
    pool.wait();
}

TEST(ThreadPoolBatch, ParallelForPropagatesExceptions)
{
    ThreadPool pool(3);
    EXPECT_THROW(parallelFor(pool, 64,
                             [](int i) {
                                 if (i == 37)
                                     throw std::runtime_error("job 37");
                             }),
                 std::runtime_error);
    // The pool must stay usable after a propagated failure.
    std::atomic<int> ran{0};
    parallelFor(pool, 16, [&ran](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolBatch, ParallelForRangesPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(parallelForRanges(pool, 100, 8,
                                   [](int lo, int) {
                                       if (lo >= 48)
                                           throw std::runtime_error("hi");
                                   }),
                 std::runtime_error);
}

TEST(ThreadPoolBatch, EnsureWorkersGrowsThePool)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    pool.ensureWorkers(3);
    EXPECT_EQ(pool.size(), 3);
    pool.ensureWorkers(2); // never shrinks
    EXPECT_EQ(pool.size(), 3);
    std::atomic<int> ran{0};
    parallelFor(pool, 9, [&ran](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPoolBatch, ProcessPoolIsSharedAndMarkedStarted)
{
    ThreadPool &a = processPool(2);
    EXPECT_TRUE(processPoolStarted());
    ThreadPool &b = processPool(1);
    EXPECT_EQ(&a, &b);
    EXPECT_GE(b.size(), 2); // never shrinks below an earlier request
}

TEST(SchedEnv, ThreadKnobsTreatZeroAsAdaptive)
{
    setenv("TRIQ_SIM_THREADS", "0", 1);
    EXPECT_EQ(defaultSimThreads(1), 0);
    unsetenv("TRIQ_SIM_THREADS");
    EXPECT_EQ(defaultSimThreads(1), 1);

    setenv("TRIQ_SWEEP_THREADS", "0", 1);
    EXPECT_EQ(defaultSweepThreads(), 0);
    setenv("TRIQ_SWEEP_THREADS", "3", 1);
    EXPECT_EQ(defaultSweepThreads(), 3);
    unsetenv("TRIQ_SWEEP_THREADS");
    EXPECT_EQ(defaultSweepThreads(), 0);
}

/**
 * The end-to-end contract: scheduling decides only *where* work runs.
 * Serial, adaptive and forced-threaded execution of the same compiled
 * fig07 circuit must agree bit for bit.
 */
TEST(SchedDeterminism, Fig07HistogramsIdenticalAcrossModes)
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

        ExecOptions adaptive;
        adaptive.threads = -1;
        ExecutionResult r_adaptive = executeNoisy(
            compiled.hwCircuit, dev, calib, trials, 99, adaptive);

        ExecOptions forced;
        forced.threads = 3;
        ExecutionResult r_forced = executeNoisy(
            compiled.hwCircuit, dev, calib, trials, 99, forced);
        EXPECT_TRUE(r_forced.sched.threaded) << name;

        EXPECT_EQ(r_serial.histogram, r_adaptive.histogram) << name;
        EXPECT_EQ(r_serial.histogram, r_forced.histogram) << name;
        EXPECT_EQ(r_serial.successRate, r_adaptive.successRate) << name;
        EXPECT_EQ(r_serial.successRate, r_forced.successRate) << name;
        EXPECT_EQ(r_serial.simulatedTrajectories,
                  r_adaptive.simulatedTrajectories)
            << name;
        EXPECT_EQ(r_serial.simulatedTrajectories,
                  r_forced.simulatedTrajectories)
            << name;

        // The decision is observable either way.
        EXPECT_FALSE(r_serial.sched.threaded) << name;
        EXPECT_GE(r_adaptive.sched.predictedSerialMs, 0.0) << name;
        EXPECT_GE(r_adaptive.sched.actualMs, 0.0) << name;
    }
}

TEST(SchedDeterminism, SweepResultsIdenticalAcrossModes)
{
    SweepConfig cfg;
    for (const char *name : {"BV4", "Toffoli", "QFT"})
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = {makeIbmQ5(), makeIbmQ14()};
    cfg.days = {0, 1};
    cfg.levels = {OptLevel::OneQOptC, OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    cfg.driftThreshold = -1.0;

    auto espsOf = [](const SweepResult &r) {
        std::vector<double> esps;
        for (const SweepCell &c : r.cells)
            esps.push_back(c.esp);
        return esps;
    };

    cfg.threads = 1;
    CompileCache cache_serial;
    SweepResult serial = runSweep(cfg, &cache_serial);
    EXPECT_EQ(serial.stats.schedMode, "serial");
    EXPECT_EQ(serial.stats.threads, 1);

    cfg.threads = -1;
    CompileCache cache_adaptive;
    SweepResult adaptive = runSweep(cfg, &cache_adaptive);

    cfg.threads = 3;
    CompileCache cache_forced;
    SweepResult forced = runSweep(cfg, &cache_forced);
    EXPECT_EQ(forced.stats.schedMode, "threaded");
    EXPECT_GE(forced.stats.schedTasks, 1);

    EXPECT_EQ(espsOf(serial), espsOf(adaptive));
    EXPECT_EQ(espsOf(serial), espsOf(forced));
    EXPECT_EQ(serial.stats.compiles, adaptive.stats.compiles);
    EXPECT_EQ(serial.stats.compiles, forced.stats.compiles);
    EXPECT_EQ(serial.stats.cacheHits, forced.stats.cacheHits);
}

} // namespace
} // namespace triq
