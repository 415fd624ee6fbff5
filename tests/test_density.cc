/**
 * @file
 * Density-matrix simulator tests: pure-state agreement with the
 * state-vector simulator, channel algebra (trace preservation,
 * dephasing semantics), and the headline cross-validation — the
 * Monte-Carlo executor's success rate and per-bit flip rates converge
 * to the exact values.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "sim/density.hh"
#include "sim/executor.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

TEST(Density, PureStateMatchesStateVector)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::u3(2, 0.7, 0.3, -0.4));
    c.add(Gate::xx(1, 2, kPi / 4));
    DensityMatrix rho(3);
    rho.applyCircuit(c);
    StateVector sv(3);
    sv.applyCircuit(c);
    for (uint64_t b = 0; b < 8; ++b)
        EXPECT_NEAR(rho.probability(b), sv.probability(b), 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(Density, ChannelsPreserveTrace)
{
    DensityMatrix rho(2);
    rho.applyGate(Gate::h(0));
    rho.applyGate(Gate::cnot(0, 1));
    rho.applyPauliChannel1(0, 0.3);
    rho.applyPauliChannel2(0, 1, 0.2);
    rho.applyDephasing(1, 0.4);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(Density, FullDepolarizing1qOnPlusState)
{
    // |+> under the uniform Pauli channel with p: X leaves |+>, Y and Z
    // map it to |->; coherence scales by (1 - 4p/3).
    const double p = 0.3;
    DensityMatrix rho(1);
    rho.applyGate(Gate::h(0));
    rho.applyPauliChannel1(0, p);
    // Probability of measuring |0> stays 1/2 by symmetry...
    EXPECT_NEAR(rho.probability(0), 0.5, 1e-12);
    // ...but a second H reveals the lost coherence.
    rho.applyGate(Gate::h(0));
    double expected = 0.5 * (1.0 + (1.0 - 4.0 * p / 3.0));
    EXPECT_NEAR(rho.probability(0), expected, 1e-12);
}

TEST(Density, DephasingKillsOffDiagonals)
{
    // Full dephasing (p = 1/2 of Z) destroys |+><+| coherence entirely:
    // rho' = (rho + Z rho Z)/2.
    DensityMatrix rho(1);
    rho.applyGate(Gate::h(0));
    rho.applyDephasing(0, 0.5);
    rho.applyGate(Gate::h(0));
    EXPECT_NEAR(rho.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(rho.probability(1), 0.5, 1e-12);
}

TEST(Density, MeasurementDistributionMarginal)
{
    DensityMatrix rho(2);
    rho.applyGate(Gate::h(0));
    rho.applyGate(Gate::cnot(0, 1));
    std::vector<double> d0 = rho.measurementDistribution({0});
    EXPECT_NEAR(d0[0], 0.5, 1e-12);
    EXPECT_NEAR(d0[1], 0.5, 1e-12);
    std::vector<double> dall = rho.measurementDistribution({0, 1});
    EXPECT_NEAR(dall[0], 0.5, 1e-12);
    EXPECT_NEAR(dall[3], 0.5, 1e-12);
    EXPECT_NEAR(dall[1] + dall[2], 0.0, 1e-12);
}

TEST(Density, SizeLimits)
{
    EXPECT_THROW(DensityMatrix(0), FatalError);
    EXPECT_THROW(DensityMatrix(DensityMatrix::maxQubits() + 1),
                 FatalError);
    DensityMatrix rho(2);
    EXPECT_THROW(rho.applyGate(Gate::ccx(0, 1, 1)), FatalError);
}

class ExecutorConvergence
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ExecutorConvergence, MonteCarloMatchesExact)
{
    // The headline cross-validation: run the full compile pipeline,
    // compute the exact noise-averaged success probability and per-bit
    // flip probabilities, and check the sampling executor lands within
    // Monte-Carlo error. Most faulty trials fail whether or not their
    // replay is right, so a replay bug shows in the per-bit rates long
    // before it moves success.
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(4);
    Circuit program = makeBenchmark(GetParam());
    CompileOptions opts;
    opts.emitAssembly = false;
    CompileResult res = compileForDevice(program, dev, calib, opts);

    double exact = exactSuccessProbability(res.hwCircuit, dev, calib);
    const int trials = 20000;
    ExecutionResult mc =
        executeNoisy(res.hwCircuit, dev, calib, trials, 2026);
    auto within_five_sigma = [&](double observed, double p) {
        return std::abs(observed - p) <=
               5.0 * std::sqrt(p * (1.0 - p) / trials) + 1e-6;
    };
    EXPECT_TRUE(within_five_sigma(mc.successRate, exact))
        << "exact=" << exact << " mc=" << mc.successRate;
    const std::vector<double> flips =
        exactBitFlipProbabilities(res.hwCircuit, dev, calib);
    ASSERT_EQ(flips.size(), res.hwCircuit.measuredQubits().size());
    for (size_t k = 0; k < flips.size(); ++k) {
        int flipped = 0;
        for (const auto &[key, count] : mc.histogram)
            if (((key ^ mc.correctOutcome) >> k) & 1)
                flipped += count;
        const double rate = static_cast<double>(flipped) / trials;
        EXPECT_TRUE(within_five_sigma(rate, flips[k]))
            << "key bit " << k << ": exact=" << flips[k] << " mc=" << rate;
    }
    // ESP never exceeds the exact success probability by much: ESP
    // counts every fault as fatal.
    EXPECT_LT(mc.esp, exact + 0.02);
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, ExecutorConvergence,
                         ::testing::Values("BV4", "HS4", "Toffoli",
                                           "Peres", "Adder"));

TEST(Density, EspOrderingPredictsExactSuccessOrdering)
{
    // The toolflow's central modeling assumption (Sec. 4.2): the
    // reliability-product estimate ranks configurations the same way
    // the real (here: exact noise-averaged) success probability does.
    // Check rank agreement across benchmarks and calibration days.
    Device dev = makeIbmQ5();
    std::vector<std::pair<double, double>> points; // (esp, exact)
    for (int day : {1, 2, 3}) {
        Calibration calib = dev.calibrate(day);
        for (const char *name :
             {"BV4", "HS2", "HS4", "Toffoli", "Peres", "Adder"}) {
            CompileOptions opts;
            opts.emitAssembly = false;
            CompileResult res = compileForDevice(makeBenchmark(name),
                                                 dev, calib, opts);
            double exact =
                exactSuccessProbability(res.hwCircuit, dev, calib);
            ExecutionResult quick =
                executeNoisy(res.hwCircuit, dev, calib, 50, 1);
            points.push_back({quick.esp, exact});
        }
    }
    // Concordant pair fraction (Kendall-style) must be high.
    int concordant = 0, total = 0;
    for (size_t i = 0; i < points.size(); ++i)
        for (size_t j = i + 1; j < points.size(); ++j) {
            double d_esp = points[i].first - points[j].first;
            double d_exact = points[i].second - points[j].second;
            if (std::abs(d_esp) < 1e-3 || std::abs(d_exact) < 1e-3)
                continue; // Ties carry no ranking signal.
            ++total;
            concordant += (d_esp > 0) == (d_exact > 0);
        }
    ASSERT_GT(total, 40);
    EXPECT_GT(static_cast<double>(concordant) / total, 0.85)
        << concordant << "/" << total;
}

TEST(Density, CapInheritsRaisedStateVectorCeiling)
{
    // The 30-qubit state-vector ceiling vectorizes to 15 density
    // qubits. The cap is a representation bound; admission still
    // decides what actually runs (see sim_cost).
    EXPECT_EQ(StateVector::maxQubits(), 30);
    EXPECT_EQ(DensityMatrix::maxQubits(), 15);
}

TEST(Density, ExactSuccessPerfectCalibrationIsOne)
{
    Device dev = makeUmdTi();
    Calibration zero = dev.averageCalibration();
    std::fill(zero.err1q.begin(), zero.err1q.end(), 0.0);
    std::fill(zero.err2q.begin(), zero.err2q.end(), 0.0);
    std::fill(zero.errRO.begin(), zero.errRO.end(), 0.0);
    std::fill(zero.t2Us.begin(), zero.t2Us.end(), 1e18);
    CompileOptions opts;
    opts.emitAssembly = false;
    CompileResult res =
        compileForDevice(makeBenchmark("Toffoli"), dev, zero, opts);
    EXPECT_NEAR(exactSuccessProbability(res.hwCircuit, dev, zero), 1.0,
                1e-9);
}

} // namespace
} // namespace triq
