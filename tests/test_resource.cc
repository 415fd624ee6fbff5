/**
 * @file
 * Resource-governor tests: envBytes parsing, the committed-memory
 * ledger and its RAII guard under concurrency, the simulation memory
 * formulas (including uint64 saturation at high qubit counts), the
 * admission cost model, and the executor's degrade chain (full plan ->
 * low-memory plan -> structured ResourceError) with its bit-identity
 * contract. Carries the "server" ctest label so sanitizer builds
 * exercise the concurrent reserve/release paths.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/resource.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "service/cost_model.hh"
#include "sim/executor.hh"
#include "sim/sim_cost.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

/** Scoped budget override on the process governor (always restored). */
struct BudgetGuard
{
    explicit BudgetGuard(uint64_t bytes)
        : old_(processGovernor().budgetBytes())
    {
        processGovernor().setBudgetBytes(bytes);
    }
    ~BudgetGuard() { processGovernor().setBudgetBytes(old_); }
    uint64_t old_;
};

} // namespace

// ---------------------------------------------------------------------
// envBytes.
// ---------------------------------------------------------------------

TEST(EnvBytes, ParsesPlainAndSuffixed)
{
    setenv("TRIQ_TEST_BYTES", "12345", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 12345ull);
    setenv("TRIQ_TEST_BYTES", "4K", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 4ull << 10);
    setenv("TRIQ_TEST_BYTES", "256M", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 256ull << 20);
    setenv("TRIQ_TEST_BYTES", "2g", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 2ull << 30);
    setenv("TRIQ_TEST_BYTES", "1T", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 1ull << 40);
    // Tolerated unit tails: 256MB, 256MiB, 256Mi.
    setenv("TRIQ_TEST_BYTES", "256MB", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 256ull << 20);
    setenv("TRIQ_TEST_BYTES", "256MiB", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 256ull << 20);
    setenv("TRIQ_TEST_BYTES", "256Mi", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 256ull << 20);
    setenv("TRIQ_TEST_BYTES", "0", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 0ull);
    unsetenv("TRIQ_TEST_BYTES");
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
}

TEST(EnvBytes, RejectsGarbageNegativeAndOverflow)
{
    setenv("TRIQ_TEST_BYTES", "bogus", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
    setenv("TRIQ_TEST_BYTES", "12Q", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
    setenv("TRIQ_TEST_BYTES", "12Mx", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
    // strtoull silently wraps negatives; envBytes must not.
    setenv("TRIQ_TEST_BYTES", "-5", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
    setenv("TRIQ_TEST_BYTES", " -5M", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
    // 2^64 overflows; so does a shifted suffix product.
    setenv("TRIQ_TEST_BYTES", "18446744073709551616", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
    setenv("TRIQ_TEST_BYTES", "99999999999999999G", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7), 7ull);
    // Below an explicit floor.
    setenv("TRIQ_TEST_BYTES", "512", 1);
    EXPECT_EQ(envBytes("TRIQ_TEST_BYTES", 7, 1024), 7ull);
    unsetenv("TRIQ_TEST_BYTES");
}

TEST(FormatBytes, HumanReadable)
{
    EXPECT_EQ(formatBytes(640), "640 B");
    EXPECT_EQ(formatBytes(4ull << 10), "4.0 KiB");
    EXPECT_EQ(formatBytes(256ull << 20), "256.0 MiB");
    EXPECT_EQ(formatBytes(3ull << 29), "1.5 GiB");
}

// ---------------------------------------------------------------------
// Governor ledger.
// ---------------------------------------------------------------------

TEST(ResourceGovernor, ReserveReleaseAndRefuse)
{
    ResourceGovernor gov(1000);
    EXPECT_EQ(gov.budgetBytes(), 1000ull);
    EXPECT_TRUE(gov.wouldFit(1000));
    EXPECT_FALSE(gov.wouldFit(1001));
    EXPECT_TRUE(gov.tryReserve(600));
    EXPECT_EQ(gov.committedBytes(), 600ull);
    EXPECT_FALSE(gov.tryReserve(500)); // 1100 > 1000
    EXPECT_EQ(gov.committedBytes(), 600ull) << "refusal must not commit";
    EXPECT_TRUE(gov.tryReserve(400));
    gov.release(1000);
    EXPECT_EQ(gov.committedBytes(), 0ull);

    ResourceStats s = gov.stats();
    EXPECT_EQ(s.reservations, 2);
    EXPECT_EQ(s.refusals, 1);
    EXPECT_EQ(s.peakBytes, 1000ull);
}

TEST(ResourceGovernor, ThrowingReserveCarriesStructuredFields)
{
    ResourceGovernor gov(100);
    gov.reserve(60, "first");
    try {
        gov.reserve(50, "second");
        FAIL() << "expected ResourceError";
    } catch (const ResourceError &e) {
        EXPECT_EQ(e.attemptedBytes, 50ull);
        EXPECT_EQ(e.budgetBytes, 100ull);
        EXPECT_EQ(e.committedBytes, 60ull);
        EXPECT_NE(std::string(e.what()).find("second"),
                  std::string::npos);
    }
    gov.release(60);
}

TEST(ResourceGovernor, UnlimitedBudgetAlwaysFitsButTracks)
{
    ResourceGovernor gov(0);
    EXPECT_TRUE(gov.wouldFit(~uint64_t{0}));
    EXPECT_TRUE(gov.tryReserve(1ull << 40));
    EXPECT_EQ(gov.committedBytes(), 1ull << 40);
    gov.release(1ull << 40);
    EXPECT_EQ(gov.stats().peakBytes, 1ull << 40);
}

TEST(ResourceGovernor, RaiiGuardReleasesOnScopeExitAndMove)
{
    ResourceGovernor gov(1000);
    {
        MemReservation r(gov, 700, "guard");
        EXPECT_EQ(gov.committedBytes(), 700ull);
        MemReservation moved = std::move(r);
        EXPECT_EQ(gov.committedBytes(), 700ull);
        moved.releaseNow();
        EXPECT_EQ(gov.committedBytes(), 0ull);
        moved.releaseNow(); // idempotent
        EXPECT_EQ(gov.committedBytes(), 0ull);
    }
    {
        MemReservation r(gov, 300, "scoped");
    }
    EXPECT_EQ(gov.committedBytes(), 0ull);
    EXPECT_THROW(MemReservation(gov, 1001, "too big"), ResourceError);
}

TEST(ResourceGovernor, ConcurrentReserveReleaseNeverOvercommits)
{
    // 8 threads hammer a budget that only fits 4 concurrent
    // reservations; under TSan/ASan this also proves the locking.
    ResourceGovernor gov(4 * 100);
    std::vector<std::thread> threads;
    std::atomic<long> granted{0};
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i) {
                if (gov.tryReserve(100)) {
                    uint64_t c = gov.committedBytes();
                    EXPECT_LE(c, 400ull);
                    ++granted;
                    gov.release(100);
                }
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(gov.committedBytes(), 0ull);
    EXPECT_GT(granted.load(), 0);
    EXPECT_LE(gov.stats().peakBytes, 400ull);
}

// ---------------------------------------------------------------------
// Simulation memory formulas.
// ---------------------------------------------------------------------

TEST(SimCost, StateAndDensityBytes)
{
    EXPECT_EQ(stateVectorBytes(1), 32ull);        // 2 amplitudes * 16 B
    EXPECT_EQ(stateVectorBytes(10), 16ull << 10); // 2^10 * 16
    EXPECT_EQ(densityMatrixBytes(5), 16ull << 10); // 4^5 * 16
    // 72 qubits: 2^76 B saturates uint64 instead of wrapping to garbage
    // that would *pass* a budget check.
    EXPECT_EQ(stateVectorBytes(72), ~uint64_t{0});
    EXPECT_EQ(densityMatrixBytes(40), ~uint64_t{0});
}

TEST(SimCost, PredictionsOrderedAndMonotonic)
{
    // The low-memory plan never predicts more than the full plan, and
    // more workers never predict less.
    for (int q = 2; q <= 30; q += 4) {
        EXPECT_LE(predictLowMemSimulationBytes(q),
                  predictSimulationBytes(q, 1));
        EXPECT_LE(predictSimulationBytes(q, 1),
                  predictSimulationBytes(q, 8));
    }
    // Saturated predictions stay saturated.
    EXPECT_EQ(predictSimulationBytes(72, 8), ~uint64_t{0});
    EXPECT_EQ(predictLowMemSimulationBytes(72), ~uint64_t{0});
}

// ---------------------------------------------------------------------
// Admission cost model.
// ---------------------------------------------------------------------

TEST(CostModel, AdmitsUnderBudgetRejectsOver)
{
    BudgetGuard guard(256ull << 20); // 256 MiB
    // 10 qubits: trivially fits.
    AdmissionVerdict small = checkAdmission(10, 4, 20, 60, 0.0, true);
    EXPECT_TRUE(small.fits);
    EXPECT_GT(small.predictedBytes, 0ull);
    EXPECT_EQ(small.budgetBytes, 256ull << 20);
    // 72 qubits: cannot fit even degraded; the verdict carries the
    // predicted cost and budget for the server.budget reply.
    AdmissionVerdict big = checkAdmission(72, 1, 1000, 3000, 0.0, true);
    EXPECT_FALSE(big.fits);
    EXPECT_EQ(big.predictedBytes, ~uint64_t{0});
    EXPECT_NE(big.reason.find("memory budget"), std::string::npos);
    // Same request, compile-only: no state vector, fits.
    AdmissionVerdict co = checkAdmission(72, 1, 1000, 3000, 0.0, false);
    EXPECT_TRUE(co.fits);
}

TEST(CostModel, DegradedPlanAdmitsWhatFullPlanCannot)
{
    // Budget sized between the low-memory plan (2 states) and the full
    // fan-out plan (1 + workers states + checkpoint budget): the
    // verdict must admit, because the executor degrades automatically.
    const int q = 20; // 16 MiB per state
    uint64_t low = predictLowMemSimulationBytes(q);
    uint64_t full = predictSimulationBytes(q, 8);
    ASSERT_LT(low, full);
    BudgetGuard guard(low + (full - low) / 2);
    AdmissionVerdict v = checkAdmission(q, 8, 100, 300, 0.0, true);
    EXPECT_TRUE(v.fits);
}

TEST(CostModel, RejectsOnPredictedDeadlineOverrun)
{
    BudgetGuard guard(0); // memory unlimited; deadline is the limiter
    AdmissionVerdict v =
        checkAdmission(72, 1, 100000, 300000, 0.001, false);
    EXPECT_FALSE(v.fits);
    EXPECT_NE(v.reason.find("deadline"), std::string::npos);
}

// ---------------------------------------------------------------------
// Executor degrade chain.
// ---------------------------------------------------------------------

namespace
{

ExecutionResult
runBV8(int threads)
{
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(0);
    CompileOptions opts;
    CompileResult res =
        compileForDevice(makeBenchmark("BV8"), dev, calib, opts);
    ExecOptions eo;
    eo.threads = threads;
    return executeNoisy(res.hwCircuit, dev, calib, 500, 99, eo);
}

} // namespace

TEST(ExecutorGovernor, LowMemoryPlanIsBitIdentical)
{
    ExecutionResult full = runBV8(2);
    // A budget that fits the low-memory plan but not the full plan
    // forces the degraded path (serial, no checkpoints), which must
    // produce bit-identical results.
    BudgetGuard guard(1ull << 20);
    ExecutionResult degraded = runBV8(2);
    EXPECT_EQ(full.histogram, degraded.histogram);
    EXPECT_EQ(full.successRate, degraded.successRate);
    EXPECT_EQ(full.esp, degraded.esp);
}

TEST(ExecutorGovernor, ImpossibleBudgetThrowsStructuredError)
{
    BudgetGuard guard(1024); // fits nothing
    try {
        runBV8(1);
        FAIL() << "expected ResourceError";
    } catch (const ResourceError &e) {
        EXPECT_GT(e.attemptedBytes, 1024ull);
        EXPECT_EQ(e.budgetBytes, 1024ull);
    }
    // The refused run must not leak reservations.
    EXPECT_EQ(processGovernor().committedBytes(), 0ull);
}

TEST(ExecutorGovernor, ReservationsDrainAfterSuccessfulRun)
{
    runBV8(2);
    EXPECT_EQ(processGovernor().committedBytes(), 0ull);
}
