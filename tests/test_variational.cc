/**
 * @file
 * Variational-workload tests: MaxCut bookkeeping, QAOA circuit
 * structure and physics sanity (noiseless depth-1 QAOA beats random
 * guessing; histogram-based expectation values are consistent), and
 * the TFIM trotterization.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "core/compiler.hh"
#include "device/machines.hh"
#include "sim/executor.hh"
#include "sim/statevector.hh"
#include "workloads/variational.hh"

namespace triq
{
namespace
{

TEST(MaxCut, CutValueAndOptimum)
{
    MaxCutGraph ring4 = MaxCutGraph::ring(4);
    EXPECT_EQ(ring4.cutValue(0b0101), 4); // Alternating: all edges cut.
    EXPECT_EQ(ring4.cutValue(0b0000), 0);
    EXPECT_EQ(ring4.cutValue(0b0001), 2);
    EXPECT_EQ(ring4.maxCut(), 4);
    // Odd ring is frustrated: max cut = n - 1.
    EXPECT_EQ(MaxCutGraph::ring(5).maxCut(), 4);
}

TEST(MaxCut, RandomGraphWellFormed)
{
    MaxCutGraph g = MaxCutGraph::random(6, 8, 42);
    EXPECT_EQ(g.numVertices, 6);
    EXPECT_EQ(g.edges.size(), 8u);
    for (const auto &[a, b] : g.edges) {
        EXPECT_NE(a, b);
        EXPECT_LT(a, 6);
        EXPECT_LT(b, 6);
    }
    // Deterministic per seed.
    MaxCutGraph g2 = MaxCutGraph::random(6, 8, 42);
    EXPECT_EQ(g.edges, g2.edges);
    EXPECT_THROW(MaxCutGraph::random(3, 10, 1), FatalError);
}

TEST(Qaoa, CircuitStructure)
{
    MaxCutGraph g = MaxCutGraph::ring(4);
    Circuit c = makeQaoaMaxCut(g, {0.5, 0.7}, {0.2, 0.3});
    // Per layer: 2 CNOTs per edge; 2 layers x 4 edges x 2 = 16.
    EXPECT_EQ(c.count2q(), 16);
    EXPECT_EQ(c.measuredQubits().size(), 4u);
    EXPECT_THROW(makeQaoaMaxCut(g, {0.5}, {0.2, 0.3}), FatalError);
    EXPECT_THROW(makeQaoaMaxCut(g, {}, {}), FatalError);
}

/** Exact noiseless <cut> of a depth-1 QAOA circuit. */
double
exactCut(const MaxCutGraph &g, double gamma, double beta)
{
    Circuit c = makeQaoaMaxCut(g, {gamma}, {beta});
    std::vector<double> dist = idealMeasurementDistribution(c);
    double expect = 0.0;
    for (uint64_t k = 0; k < dist.size(); ++k)
        expect += dist[k] * g.cutValue(k);
    return expect;
}

/** Best (gamma, beta) over a coarse grid. */
std::pair<double, double>
bestAngles(const MaxCutGraph &g)
{
    double best = -1.0, bg = 0.0, bb = 0.0;
    for (int gi = 1; gi <= 7; ++gi)
        for (int bi = 1; bi <= 7; ++bi) {
            double gamma = gi * kPi / 8.0, beta = bi * kPi / 16.0;
            double v = exactCut(g, gamma, beta);
            if (v > best) {
                best = v;
                bg = gamma;
                bb = beta;
            }
        }
    return {bg, bb};
}

TEST(Qaoa, NoiselessDepth1BeatsRandomGuessing)
{
    // Random assignments cut half the edges in expectation; tuned
    // depth-1 QAOA must do better.
    MaxCutGraph g = MaxCutGraph::ring(4);
    auto [gamma, beta] = bestAngles(g);
    double expect = exactCut(g, gamma, beta);
    EXPECT_GT(expect, 0.5 * static_cast<double>(g.edges.size()) + 0.3);
}

TEST(Qaoa, HistogramExpectationMatchesIdealUnderZeroNoise)
{
    MaxCutGraph g = MaxCutGraph::ring(4);
    Circuit c = makeQaoaMaxCut(g, {kPi / 3}, {kPi / 8});
    Device dev = makeUmdTi();
    Calibration zero = dev.averageCalibration();
    std::fill(zero.err1q.begin(), zero.err1q.end(), 0.0);
    std::fill(zero.err2q.begin(), zero.err2q.end(), 0.0);
    std::fill(zero.errRO.begin(), zero.errRO.end(), 0.0);
    std::fill(zero.t2Us.begin(), zero.t2Us.end(), 1e18);
    CompileOptions opts;
    opts.emitAssembly = false;
    CompileResult res = compileForDevice(c, dev, zero, opts);
    ExecutionResult run =
        executeNoisy(res.hwCircuit, dev, zero, 20000, 5);
    std::vector<std::pair<uint64_t, int>> counts;
    long total = 0;
    for (const auto &[key, count] : run.sortedHistogram()) {
        counts.push_back(
            {outcomeForProgram(key, res.hwCircuit, res.finalMap,
                               c.measuredQubits()),
             count});
        total += count;
    }
    EXPECT_EQ(total, run.trials);
    double sampled = expectedCutValue(g, counts);
    std::vector<double> dist = idealMeasurementDistribution(c);
    double exact = 0.0;
    for (uint64_t k = 0; k < dist.size(); ++k)
        exact += dist[k] * g.cutValue(k);
    EXPECT_NEAR(sampled, exact, 0.05);
}

TEST(Qaoa, NoiseDegradesCut)
{
    MaxCutGraph g = MaxCutGraph::ring(4);
    auto [gamma, beta] = bestAngles(g);
    Circuit c = makeQaoaMaxCut(g, {gamma}, {beta});
    Device dev = makeRigettiAgave();
    Calibration calib = dev.calibrate(1);
    CompileOptions opts;
    opts.emitAssembly = false;
    CompileResult res = compileForDevice(c, dev, calib, opts);
    ExecutionResult run =
        executeNoisy(res.hwCircuit, dev, calib, 8000, 3);
    std::vector<std::pair<uint64_t, int>> counts =
        run.sortedHistogram();
    for (auto &[key, count] : counts)
        key = outcomeForProgram(key, res.hwCircuit, res.finalMap,
                                c.measuredQubits());
    double noisy = expectedCutValue(g, counts);
    std::vector<double> dist = idealMeasurementDistribution(c);
    double exact = 0.0;
    for (uint64_t k = 0; k < dist.size(); ++k)
        exact += dist[k] * g.cutValue(k);
    EXPECT_LT(noisy, exact);
    // Depolarization drives toward the random-guess mean, not below.
    EXPECT_GT(noisy, 0.45 * static_cast<double>(g.edges.size()));
}

TEST(Tfim, TrotterStructureAndLimits)
{
    Circuit c = makeTfimTrotter(4, 3, 1.0, 0.5, 0.1);
    // 3 bonds x 2 CNOTs x 3 steps.
    EXPECT_EQ(c.count2q(), 18);
    EXPECT_EQ(c.measuredQubits().size(), 4u);
    EXPECT_THROW(makeTfimTrotter(1, 1, 1, 1, 0.1), FatalError);
    EXPECT_THROW(makeTfimTrotter(3, 0, 1, 1, 0.1), FatalError);
}

TEST(Tfim, ZeroFieldPreservesComputationalBasis)
{
    // With h = 0 the evolution is diagonal: |0000> stays put.
    Circuit c = makeTfimTrotter(4, 5, 1.3, 0.0, 0.2);
    StateVector sv(4);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.probability(0), 1.0, 1e-9);
}

TEST(Tfim, SmallDtApproachesIdentity)
{
    // One tiny step barely moves the state.
    Circuit c = makeTfimTrotter(3, 1, 1.0, 1.0, 1e-4);
    StateVector sv(3);
    sv.applyCircuit(c);
    EXPECT_GT(sv.probability(0), 0.9999);
}

} // namespace
} // namespace triq
