/**
 * @file
 * State-vector simulator tests: gate application against explicit
 * matrices, sampling statistics, marginals and fidelity.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "common/rng.hh"
#include "core/unitary.hh"
#include "sim/statevector.hh"

namespace triq
{
namespace
{

TEST(StateVector, InitialState)
{
    StateVector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-12);
}

TEST(StateVector, PauliGates)
{
    StateVector sv(2);
    sv.applyX(0);
    EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
    sv.applyX(1);
    EXPECT_NEAR(sv.probability(3), 1.0, 1e-12);
    sv.applyZ(0); // Phase only.
    EXPECT_NEAR(sv.probability(3), 1.0, 1e-12);
    sv.applyY(0);
    EXPECT_NEAR(sv.probability(2), 1.0, 1e-12);
}

TEST(StateVector, GateApplicationMatchesEmbeddedMatrix)
{
    // Property: applying a gate equals multiplying by its embedded
    // unitary, column by column.
    Rng rng(17);
    for (int rep = 0; rep < 30; ++rep) {
        Circuit c(3);
        for (int i = 0; i < 6; ++i) {
            switch (rng.uniformInt(5)) {
              case 0:
                c.add(Gate::h(rng.uniformInt(3)));
                break;
              case 1:
                c.add(Gate::u3(rng.uniformInt(3),
                               rng.uniform(0, kPi),
                               rng.uniform(-kPi, kPi),
                               rng.uniform(-kPi, kPi)));
                break;
              case 2: {
                int a = rng.uniformInt(3);
                c.add(Gate::cnot(a, (a + 1) % 3));
                break;
              }
              case 3: {
                int a = rng.uniformInt(3);
                c.add(Gate::xx(a, (a + 1) % 3,
                               rng.uniform(-kPi, kPi)));
                break;
              }
              default:
                c.add(Gate::ccx(0, 1, 2));
                break;
            }
        }
        StateVector sv(3);
        sv.applyCircuit(c);
        Matrix u = circuitUnitary(c);
        for (int b = 0; b < 8; ++b)
            EXPECT_NEAR(std::abs(sv.amplitude(b) - u(b, 0)), 0.0, 1e-9);
    }
}

TEST(StateVector, SamplingFollowsDistribution)
{
    StateVector sv(1);
    sv.applyGate(Gate::ry(0, 2 * std::acos(std::sqrt(0.3))));
    // P(|0>) = 0.3.
    EXPECT_NEAR(sv.probability(0), 0.3, 1e-9);
    Rng rng(23);
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ones += sv.sampleMeasurement(rng) == 1;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.7, 0.02);
}

TEST(StateVector, DominantBasisState)
{
    StateVector sv(2);
    sv.applyGate(Gate::x(1));
    double p = 0.0;
    EXPECT_EQ(sv.dominantBasisState(&p), 2u);
    EXPECT_NEAR(p, 1.0, 1e-12);
}

TEST(StateVector, FidelityBetweenStates)
{
    StateVector a(2), b(2);
    EXPECT_NEAR(a.fidelityWith(b), 1.0, 1e-12);
    b.applyX(0);
    EXPECT_NEAR(a.fidelityWith(b), 0.0, 1e-12);
    StateVector c(2);
    c.applyGate(Gate::h(0));
    EXPECT_NEAR(a.fidelityWith(c), 0.5, 1e-12);
}

TEST(StateVector, ResetRestoresGround)
{
    StateVector sv(2);
    sv.applyGate(Gate::h(0));
    sv.applyGate(Gate::cnot(0, 1));
    sv.reset();
    EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
}

TEST(StateVector, MeasurementDistributionMarginalizes)
{
    // Bell pair, measure only qubit 0: P(0) = P(1) = 0.5.
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::measure(0));
    std::vector<double> dist = idealMeasurementDistribution(c);
    ASSERT_EQ(dist.size(), 2u);
    EXPECT_NEAR(dist[0], 0.5, 1e-12);
    EXPECT_NEAR(dist[1], 0.5, 1e-12);
}

TEST(StateVector, MeasurementDistributionKeyOrder)
{
    // |q1 q0> = X on qubit 1 only; measure qubits {0, 1}: key bit 1
    // (the second measured qubit) must be set.
    Circuit c(3);
    c.add(Gate::x(1));
    c.add(Gate::measure(0));
    c.add(Gate::measure(1));
    std::vector<double> dist = idealMeasurementDistribution(c);
    ASSERT_EQ(dist.size(), 4u);
    EXPECT_NEAR(dist[2], 1.0, 1e-12);
}

TEST(StateVector, RejectsBadSizes)
{
    EXPECT_THROW(StateVector(0), FatalError);
    EXPECT_THROW(StateVector(StateVector::maxQubits() + 1), FatalError);
    StateVector sv(2);
    EXPECT_THROW(sv.applyGate(Gate::measure(0)), PanicError);
    Circuit wrong(3);
    EXPECT_THROW(sv.applyCircuit(wrong), FatalError);
}

TEST(StateVector, NormPreservedByLongCircuits)
{
    Rng rng(99);
    StateVector sv(4);
    for (int i = 0; i < 200; ++i) {
        int q = rng.uniformInt(4);
        switch (rng.uniformInt(3)) {
          case 0:
            sv.applyGate(Gate::u3(q, rng.uniform(0, kPi),
                                  rng.uniform(-kPi, kPi),
                                  rng.uniform(-kPi, kPi)));
            break;
          case 1:
            sv.applyGate(Gate::h(q));
            break;
          default:
            sv.applyGate(Gate::cnot(q, (q + 1) % 4));
            break;
        }
    }
    EXPECT_NEAR(sv.normSquared(), 1.0, 1e-9);
}

TEST(StateVector, FastPathKernelsMatchMatrixPath)
{
    // Every specialized kernel must agree with the general matrix path
    // it replaces, on a random (normalized-enough) dense state. The
    // Paulis, CNOT, CZ and SWAP only move, swap or negate components,
    // so they must match exactly (== treats the sign of an exact zero
    // as equal); the phase kernels keep a 1e-12 bound.
    std::vector<Gate> gates = {
        Gate::s(1),          Gate::sdg(2),
        Gate::t(0),          Gate::tdg(1),
        Gate::u1(2, 0.7),    Gate::rz(0, -1.3),
        Gate::cnot(0, 2),    Gate::cnot(2, 0),
        Gate::cnot(3, 1),    Gate::cz(1, 2),
        Gate::cz(0, 3),      Gate::cphase(0, 1, 0.9),
        Gate::swap(0, 2),    Gate::swap(1, 0),
        Gate::swap(3, 2),
    };
    for (int q = 0; q < 4; ++q) {
        gates.push_back(Gate::x(q));
        gates.push_back(Gate::y(q));
        gates.push_back(Gate::z(q));
    }
    Rng rng(23);
    for (const Gate &g : gates) {
        StateVector fast(4), ref(4);
        for (uint64_t b = 0; b < fast.dim(); ++b) {
            Cplx amp(rng.uniform(-1, 1), rng.uniform(-1, 1));
            fast.amps()[b] = amp;
            ref.amps()[b] = amp;
        }
        fast.applyGate(g); // dispatches to the specialized kernel
        if (g.arity() == 1)
            ref.applyMatrix1(gateMatrix(g), g.qubit(0));
        else
            ref.applyMatrix2(gateMatrix(g), g.qubit(0), g.qubit(1));
        const bool exact =
            g.kind == GateKind::X || g.kind == GateKind::Y ||
            g.kind == GateKind::Z || g.kind == GateKind::Cnot ||
            g.kind == GateKind::Cz || g.kind == GateKind::Swap;
        for (uint64_t b = 0; b < fast.dim(); ++b) {
            if (exact)
                EXPECT_EQ(fast.amplitude(b), ref.amplitude(b))
                    << g.str() << " basis " << b;
            else
                EXPECT_NEAR(std::abs(fast.amplitude(b) - ref.amplitude(b)),
                            0.0, 1e-12)
                    << g.str() << " basis " << b;
        }
    }
}

} // namespace
} // namespace triq
