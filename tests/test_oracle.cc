/**
 * @file
 * The exact Clifford oracle (cliffordSuccessProbability and
 * cliffordBitFlipProbabilities): checked against the density matrix
 * and sampling on the study's Clifford cells, then used as the
 * reference for trajectory replay on registers wider than the density
 * matrix can hold, so the >12-qubit replay kernels are checked against
 * values they did not compute.
 */

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "device/machines.hh"
#include "sim/compact.hh"
#include "sim/density.hh"
#include "sim/executor.hh"
#include "sim/pauli_frame.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

/** True when a rate observed over `trials` is within 5 sigma of p. */
::testing::AssertionResult
withinFiveSigma(double observed, double p, int trials)
{
    const double sigma = std::sqrt(p * (1.0 - p) / trials);
    if (std::abs(observed - p) <= 5.0 * sigma)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << observed << " is " << (observed - p) / sigma
           << " sigma from the exact " << p;
}

/** Fraction of trials whose key bit k differs from the correct answer. */
double
bitFlipRate(const ExecutionResult &r, size_t k)
{
    int flipped = 0;
    for (const auto &[key, count] : r.histogram)
        if (((key ^ r.correctOutcome) >> k) & 1)
            flipped += count;
    return static_cast<double>(flipped) / r.trials;
}

TEST(CliffordOracle, MatchesDensityMatrixOnStudyCliffordCells)
{
    // The 33 BV and HS cells of the golden study matrix (day 3,
    // default compile options, seed 2019).
    int cells = 0;
    for (const char *name : {"BV4", "BV6", "BV8", "HS2", "HS4", "HS6"}) {
        const Circuit program = makeBenchmark(name);
        for (const Device &dev : allStudyDevices()) {
            if (program.numQubits() > dev.numQubits())
                continue;
            SCOPED_TRACE(std::string(name) + " on " + dev.name());
            const Calibration calib = dev.calibrate(3);
            CompileResult res =
                compileForDevice(program, dev, calib, CompileOptions{});
            std::optional<double> oracle =
                cliffordSuccessProbability(res.hwCircuit, dev, calib);
            ASSERT_TRUE(oracle.has_value());
            EXPECT_NEAR(*oracle,
                        exactSuccessProbability(res.hwCircuit, dev, calib),
                        1e-12);
            // The per-bit rates against the density matrix, and against
            // sampling at the golden trial counts.
            std::optional<std::vector<double>> bit_flips =
                cliffordBitFlipProbabilities(res.hwCircuit, dev, calib);
            ASSERT_TRUE(bit_flips.has_value());
            const std::vector<double> exact_flips =
                exactBitFlipProbabilities(res.hwCircuit, dev, calib);
            ASSERT_EQ(exact_flips.size(), bit_flips->size());
            for (size_t k = 0; k < exact_flips.size(); ++k)
                EXPECT_NEAR((*bit_flips)[k], exact_flips[k], 1e-12)
                    << "key bit " << k;
            const int trials = dev.name() == "UMDTI" ? 5000 : 8192;
            ExecutionResult r =
                executeNoisy(res.hwCircuit, dev, calib, trials, 2019);
            for (size_t k = 0; k < bit_flips->size(); ++k)
                EXPECT_TRUE(withinFiveSigma(bitFlipRate(r, k),
                                            (*bit_flips)[k], trials))
                    << "key bit " << k;
            ++cells;
        }
    }
    EXPECT_EQ(cells, 33);
}

TEST(CliffordOracle, RefusesNonCliffordAndNonDeterministicCircuits)
{
    const Device dev = makeIbmQ5();
    const Calibration calib = dev.calibrate(3);
    CompileResult toffoli = compileForDevice(makeBenchmark("Toffoli"), dev,
                                             calib, CompileOptions{});
    EXPECT_FALSE(
        cliffordSuccessProbability(toffoli.hwCircuit, dev, calib));
    Circuit ghz(2, "Bell");
    ghz.add(Gate::h(0));
    ghz.add(Gate::cnot(0, 1));
    ghz.add(Gate::measure(0));
    ghz.add(Gate::measure(1));
    CompileResult bell = compileForDevice(ghz, dev, calib, CompileOptions{});
    EXPECT_FALSE(cliffordSuccessProbability(bell.hwCircuit, dev, calib));
}

/**
 * Replay-path results (fused kernels, every hardware thread) within 5
 * sigma of the oracle, on Google72 with the greedy mapper: the success
 * rate, and how often each key bit differs from the correct answer.
 * Most faulty trials fail whether or not their replay is right, so the
 * per-bit rates are what a scrambled replay moves.
 */
void
expectReplayNearOracle(const Circuit &program, int compact_qubits,
                       int trials)
{
    SCOPED_TRACE(program.name());
    const Device dev = makeGoogle72();
    const Calibration calib = dev.calibrate(3);
    CompileOptions opts;
    opts.mapping.kind = MapperKind::Greedy;
    CompileResult res = compileForDevice(program, dev, calib, opts);
    ASSERT_EQ(compactCircuit(res.hwCircuit).circuit.numQubits(),
              compact_qubits);
    std::optional<double> success =
        cliffordSuccessProbability(res.hwCircuit, dev, calib);
    std::optional<std::vector<double>> bit_flips =
        cliffordBitFlipProbabilities(res.hwCircuit, dev, calib);
    ASSERT_TRUE(success.has_value() && bit_flips.has_value());
    ExecOptions exec;
    exec.threads = 0;
    ExecutionResult r = detail::executeNoisyWith(
        res.hwCircuit, dev, calib, trials, 2019, exec, {.frame = false});
    ASSERT_GT(r.simulatedTrajectories, trials / 4);
    EXPECT_TRUE(withinFiveSigma(r.successRate, *success, trials))
        << "success";
    for (size_t k = 0; k < bit_flips->size(); ++k)
        EXPECT_TRUE(withinFiveSigma(bitFlipRate(r, k), (*bit_flips)[k],
                                    trials))
            << "key bit " << k;
}

TEST(CliffordOracle, WideReplayAgreesWithinFiveSigma)
{
    // Hidden shifts keep about half their trials fault-free and succeed
    // about a third of the time; a GHZ round trip of 20 qubits succeeds
    // in 1 % of trials, too few to test at an affordable trial count.
    // Replays of a 20-qubit state cost about 20 ms each, hence fewer
    // trials there.
    expectReplayNearOracle(makeHiddenShift(12, 0x5A5), 12, 2000);
    expectReplayNearOracle(makeHiddenShift(16, 0x5A5A), 16, 1000);
    expectReplayNearOracle(makeHiddenShift(20, 0x5A5A5), 20, 192);
}

} // namespace
} // namespace triq
