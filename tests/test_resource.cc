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
#include "sim/noise.hh"
#include "sim/pauli_frame.hh"
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
    // The frame plan (no workers) predicts less than the low-memory
    // plan (one worker, no checkpoints), which never predicts more than
    // a plan with checkpoints, and more workers never predict less.
    for (int q = 2; q <= 30; q += 4) {
        const int k = checkpointCount(q, 100);
        EXPECT_LT(predictSimulationBytes(q, 0, 0),
                  predictSimulationBytes(q, 1, 0));
        EXPECT_LE(predictSimulationBytes(q, 1, 0),
                  predictSimulationBytes(q, 1, k));
        EXPECT_LE(predictSimulationBytes(q, 1, k),
                  predictSimulationBytes(q, 8, k));
    }
    // Saturated predictions stay saturated.
    EXPECT_EQ(predictSimulationBytes(72, 8, 0), ~uint64_t{0});
    EXPECT_EQ(predictSimulationBytes(72, 1, 0), ~uint64_t{0});
}

TEST(SimCost, CheckpointCountFitsTheBudget)
{
    // Small states: a checkpoint after every gate but the last.
    EXPECT_EQ(checkpointCount(4, 485), 484);
    EXPECT_EQ(checkpointCount(10, 485), 484);
    EXPECT_EQ(checkpointCount(2, 1), 0);
    // 17 qubits: 2 MiB per state, 32 checkpoints in 64 MiB.
    EXPECT_EQ(checkpointCount(17, 1000), 32);
    // At 22 qubits one state fills 64 MiB; above that none fits.
    EXPECT_EQ(checkpointCount(22, 500), 1);
    EXPECT_EQ(checkpointCount(23, 500), 0);
    EXPECT_EQ(checkpointCount(72, 500), 0);
    // A plan holds (1 + workers + checkpoints) states and nothing else;
    // the frame path's plan, with no workers, holds one.
    EXPECT_EQ(predictSimulationBytes(4, 2, 484), 487 * stateVectorBytes(4));
    EXPECT_EQ(predictSimulationBytes(21, 1, 0), 2 * stateVectorBytes(21));
    EXPECT_EQ(predictSimulationBytes(8, 0, 0), stateVectorBytes(8));
}

// ---------------------------------------------------------------------
// Admission cost model.
// ---------------------------------------------------------------------

TEST(CostModel, AdmitsUnderBudgetRejectsOver)
{
    BudgetGuard guard(256ull << 20); // 256 MiB
    // 10 qubits: trivially fits. Admission prices the smallest plan
    // any run can take, the frame path's one state.
    AdmissionVerdict small = checkAdmission(10);
    EXPECT_TRUE(small.fits);
    EXPECT_EQ(small.predictedBytes, stateVectorBytes(10));
    EXPECT_EQ(small.budgetBytes, 256ull << 20);
    // 72 qubits: cannot fit even one state; the verdict carries the
    // predicted cost and budget for the server.budget reply.
    AdmissionVerdict big = checkAdmission(72);
    EXPECT_FALSE(big.fits);
    EXPECT_EQ(big.predictedBytes, ~uint64_t{0});
    EXPECT_NE(big.reason.find("memory budget"), std::string::npos);
}

// ---------------------------------------------------------------------
// Executor degrade chain.
// ---------------------------------------------------------------------

namespace
{

/** A benchmark compiled for IBMQ14 at day 0. */
struct Ibmq14Cell
{
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(0);
    CompileResult res;

    explicit Ibmq14Cell(const char *name)
        : res(compileForDevice(makeBenchmark(name), dev, calib,
                               CompileOptions{}))
    {
    }

    /** 500 trials (8 chunks) at seed 99. */
    ExecutionResult
    run(int threads) const
    {
        ExecOptions eo;
        eo.threads = threads;
        return executeNoisy(res.hwCircuit, dev, calib, 500, 99, eo);
    }

    /** The noisy model executeNoisy builds for this cell. */
    NoisyCircuit
    noisy() const
    {
        return noisyCircuit(res.hwCircuit, dev.topology(), calib);
    }

    /**
     * The checkpoints executeNoisy keeps for this cell's compact
     * circuit, after asserting it has 4 qubits (256 B states) and no
     * flip table, so every plan replays faulty trials.
     */
    int
    checkpoints() const
    {
        const NoisyCircuit nc = noisy();
        EXPECT_EQ(nc.circuit.numQubits(), 4);
        EXPECT_FALSE(pauliFlipTable(nc.circuit, nc.sites, nc.measured));
        return checkpointCount(4, nc.circuit.numGates());
    }
};

} // namespace

TEST(ExecutorGovernor, LowMemoryPlanIsBitIdentical)
{
    // QFT is not Clifford, so neither plan takes the frame path: the
    // full plan replays faulty trials from checkpoints, the low-memory
    // plan from |0...0>.
    const Ibmq14Cell qft("QFT");
    const int k = qft.checkpoints();
    ExecutionResult full = qft.run(2);
    EXPECT_EQ(full.sched.threads, 2);
    EXPECT_GT(full.simulatedTrajectories, 0);
    // A budget between the low-memory plan (two states) and the full
    // plan (1 + 2 workers + K states) forces the degraded path (serial,
    // no checkpoints), which must produce bit-identical results.
    const uint64_t low = predictSimulationBytes(4, 1, 0);
    const uint64_t high = predictSimulationBytes(4, 2, k);
    ASSERT_LT(low, high);
    BudgetGuard guard(low + (high - low) / 2);
    ExecutionResult degraded = qft.run(2);
    EXPECT_EQ(degraded.sched.threads, 1);
    EXPECT_EQ(full.histogram, degraded.histogram);
    EXPECT_EQ(full.successRate, degraded.successRate);
    EXPECT_EQ(full.simulatedTrajectories, degraded.simulatedTrajectories);
    EXPECT_EQ(full.esp, degraded.esp);
}

TEST(ExecutorGovernor, FullPlanFitsABudgetOfItsExactSize)
{
    // At 2 threads QFT's full plan holds the ideal state, two
    // trajectory states and a checkpoint after every gate but the last:
    // (3 + K) x 256 B, reserved exactly. That budget keeps both
    // workers; one byte less takes the low-memory plan.
    const Ibmq14Cell qft("QFT");
    const int k = qft.checkpoints();
    const uint64_t full = (3 + static_cast<uint64_t>(k)) * 256;
    ASSERT_EQ(predictSimulationBytes(4, 2, k), full);
    {
        BudgetGuard guard(full);
        EXPECT_EQ(qft.run(2).sched.threads, 2);
    }
    {
        BudgetGuard guard(full - 1);
        EXPECT_EQ(qft.run(2).sched.threads, 1);
    }
}

TEST(ExecutorGovernor, FramePathReservesOnlyTheIdealState)
{
    // BV8's 8 compact qubits hold 4 KiB states, and its deterministic
    // flip table puts it on the frame path, which replays nothing: the
    // run holds the ideal state alone and reserves exactly that, so a
    // budget of one state keeps both workers and the histogram.
    const Ibmq14Cell bv8("BV8");
    const NoisyCircuit nc = bv8.noisy();
    ASSERT_EQ(nc.circuit.numQubits(), 8);
    const std::optional<FlipTable> table =
        pauliFlipTable(nc.circuit, nc.sites, nc.measured);
    ASSERT_TRUE(table.has_value());
    ASSERT_TRUE(table->deterministic);
    const ExecutionResult unbudgeted = bv8.run(2);
    ASSERT_EQ(predictSimulationBytes(8, 0, 0), 4096u);
    BudgetGuard guard(predictSimulationBytes(8, 0, 0));
    const ExecutionResult budgeted = bv8.run(2);
    EXPECT_EQ(budgeted.sched.threads, 2);
    EXPECT_EQ(budgeted.histogram, unbudgeted.histogram);
    EXPECT_EQ(budgeted.successRate, unbudgeted.successRate);
    EXPECT_EQ(budgeted.simulatedTrajectories,
              unbudgeted.simulatedTrajectories);
}

TEST(ExecutorGovernor, ImpossibleBudgetThrowsStructuredError)
{
    BudgetGuard guard(1024); // fits nothing
    try {
        Ibmq14Cell("BV8").run(1);
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
    Ibmq14Cell("BV8").run(2);
    EXPECT_EQ(processGovernor().committedBytes(), 0ull);
}
