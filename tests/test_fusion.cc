/**
 * @file
 * Gate-fusion tests: fused replay must match the gate-by-gate path to
 * 1e-12 on random circuits over the full fast-path gate set, and so
 * must every sub-range replay, whether it starts or stops inside a
 * fused operator (split tail or head) or lies inside one (the adjoint
 * of one head, then another). The packing rule and its refusal of
 * gates wider than two qubits are pinned too.
 */

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/unitary.hh"
#include "sim/executor.hh"
#include "sim/fusion.hh"
#include "sim/statevector.hh"

namespace triq
{
namespace
{

/** A random circuit over every gate kind the simulator fast-paths. */
Circuit
randomCircuit(int num_qubits, int num_gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(num_qubits, "random");
    auto q = [&] { return rng.uniformInt(num_qubits); };
    auto pair = [&](int &a, int &b) {
        a = q();
        do {
            b = q();
        } while (b == a);
    };
    for (int i = 0; i < num_gates; ++i) {
        int a, b;
        switch (rng.uniformInt(17)) {
          case 0:
            c.add(Gate::i(q()));
            break;
          case 1:
            c.add(Gate::x(q()));
            break;
          case 2:
            c.add(Gate::y(q()));
            break;
          case 3:
            c.add(Gate::z(q()));
            break;
          case 4:
            c.add(Gate::h(q()));
            break;
          case 5:
            c.add(Gate::s(q()));
            break;
          case 6:
            c.add(Gate::sdg(q()));
            break;
          case 7:
            c.add(Gate::t(q()));
            break;
          case 8:
            c.add(Gate::tdg(q()));
            break;
          case 9:
            c.add(Gate::rz(q(), rng.uniform(-kPi, kPi)));
            break;
          case 10:
            c.add(Gate::u1(q(), rng.uniform(-kPi, kPi)));
            break;
          case 11:
            c.add(Gate::u3(q(), rng.uniform(0, kPi),
                           rng.uniform(-kPi, kPi),
                           rng.uniform(-kPi, kPi)));
            break;
          case 12:
            pair(a, b);
            c.add(Gate::cnot(a, b));
            break;
          case 13:
            pair(a, b);
            c.add(Gate::cz(a, b));
            break;
          case 14:
            pair(a, b);
            c.add(Gate::cphase(a, b, rng.uniform(-kPi, kPi)));
            break;
          case 15:
            pair(a, b);
            c.add(Gate::swap(a, b));
            break;
          default:
            pair(a, b);
            c.add(Gate::xx(a, b, rng.uniform(-kPi, kPi)));
            break;
        }
    }
    return c;
}

/** Largest per-amplitude deviation between two states. */
double
maxAmpDelta(const StateVector &a, const StateVector &b)
{
    double worst = 0.0;
    for (uint64_t i = 0; i < a.dim(); ++i)
        worst = std::max(worst,
                         std::abs(a.amplitude(i) - b.amplitude(i)));
    return worst;
}

/**
 * Apply `gates`, written over local qubits 0 and 1, to `sv` with local
 * qubit i on qubit qs[i], through the reference kernels the fused ones
 * must agree with: applyMatrix1 and applyMatrix2.
 */
void
applyReference(StateVector &sv, const std::vector<Gate> &gates,
               const std::vector<int> &qs)
{
    for (Gate g : gates) {
        for (int i = 0; i < g.arity(); ++i)
            g.qubits[i] = qs[g.qubits[i]];
        if (g.arity() == 1)
            sv.applyMatrix1(gateMatrix(g), g.qubit(0));
        else
            sv.applyMatrix2(gateMatrix(g), g.qubit(0), g.qubit(1));
    }
}

/**
 * Row-major matrix of `gates` over local qubits 0..k-1 (bit i = qubit
 * i), read column by column off the reference kernels.
 */
std::vector<Cplx>
referenceMatrix(int k, const std::vector<Gate> &gates)
{
    const uint64_t dim = uint64_t{1} << k;
    std::vector<Cplx> m(dim * dim);
    for (uint64_t c = 0; c < dim; ++c) {
        StateVector col(k);
        col.amps()[0] = Cplx(0, 0);
        col.amps()[c] = Cplx(1, 0);
        applyReference(col, gates, {0, 1});
        for (uint64_t r = 0; r < dim; ++r)
            m[r * dim + c] = col.amplitude(r);
    }
    return m;
}

/**
 * For every 0 <= a <= b <= n, replaying [a, b) of `c` through `fused`
 * from the gate-by-gate state after a gates must land within 1e-12 of
 * the gate-by-gate state after b gates. The gate-by-gate states start
 * from a random state drawn from `seed`, so every phase is observable,
 * and skip Measure gates, as replay does.
 */
void
expectEverySubrangeMatches(const Circuit &c, const FusedProgram &fused,
                           uint64_t seed)
{
    Rng rng(seed);
    StateVector sv(c.numQubits());
    for (Cplx &a : sv.amps())
        a = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const double norm = std::sqrt(sv.normSquared());
    for (Cplx &a : sv.amps())
        a /= norm;
    std::vector<StateVector> after{sv};
    for (const Gate &g : c.gates()) {
        if (g.kind != GateKind::Measure)
            sv.applyGate(g);
        after.push_back(sv);
    }
    const int n = c.numGates();
    for (int a = 0; a <= n; ++a)
        for (int b = a; b <= n; ++b) {
            StateVector part = after[a];
            fused.apply(part, a, b);
            ASSERT_LE(maxAmpDelta(part, after[b]), 1e-12)
                << "range [" << a << ", " << b << ")";
        }
}

TEST(Fusion, FusedMatchesUnfusedOnRandomCircuits)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        Circuit c = randomCircuit(5, 120, seed);
        StateVector plain(5);
        plain.applyCircuit(c);
        FusedProgram fused(c);
        StateVector sv(5);
        fused.applyAll(sv);
        EXPECT_LE(maxAmpDelta(sv, plain), 1e-12)
            << "seed " << seed << " diverged";
        // The pass must actually fuse something on circuits this dense.
        EXPECT_GT(fused.stats().fusedGates, 0) << "seed " << seed;
        EXPECT_LT(fused.stats().ops, fused.stats().gates)
            << "seed " << seed;
    }
}

TEST(Fusion, AnySubrangeMatchesGateByGate)
{
    // Every range of random circuits on 3 qubits, the width most study
    // replay cells compact to, and on 5: ranges that start or stop
    // inside operators, span several or lie inside one.
    int gates = 0, ops = 0;
    for (int width : {3, 5})
        for (uint64_t seed : {3, 4, 5}) {
            SCOPED_TRACE(std::to_string(width) + " qubits, seed " +
                         std::to_string(seed));
            Circuit c = randomCircuit(width, 120, seed);
            FusedProgram fused(c);
            gates += fused.stats().fusedGates;
            ops += fused.stats().ops;
            expectEverySubrangeMatches(c, fused, seed);
        }
    // More than two gates per operator: some operator covers at least 3,
    // so the two-pass path for a range inside one operator ran.
    EXPECT_GT(gates, 2 * ops);
}

TEST(Fusion, PacksGatesByTwoQubitSupport)
{
    // Four operators, each closed a different way.
    Circuit c(4);
    // [0, 3) on {1, 3}: closed by a gate that brings in qubit 0. Its
    // first gate lands on local qubit 1 once the support grows.
    c.add(Gate::h(3));
    c.add(Gate::cnot(3, 1));
    c.add(Gate::rz(1, 0.3));
    // [3, 15) on {0, 1}: twelve gates, closed by a 13th on the pair.
    c.add(Gate::cnot(1, 0));
    c.add(Gate::u3(0, 0.4, 0.2, -0.9));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::t(1));
    c.add(Gate::xx(1, 0, 0.8));
    c.add(Gate::cphase(0, 1, 0.5));
    c.add(Gate::sdg(0));
    c.add(Gate::swap(1, 0));
    c.add(Gate::u1(1, -0.7));
    c.add(Gate::cz(0, 1));
    c.add(Gate::h(1));
    c.add(Gate::y(0));
    // [15, 17) on {0, 1}: closed by the mid-circuit Barrier at 17.
    c.add(Gate::cnot(0, 1));
    c.add(Gate::rx(1, 0.9));
    c.add(Gate::barrier());
    // [18, 21) on {0}, which would have joined [15, 17): closed by the
    // terminal Measures, which belong to no operator.
    c.add(Gate::u3(0, 0.7, -0.3, 1.1));
    c.add(Gate::h(0));
    c.add(Gate::s(0));
    for (int q = 0; q < 4; ++q)
        c.add(Gate::measure(q));

    FusedProgram fused(c);
    EXPECT_EQ(fused.stats().gates, 25);
    EXPECT_EQ(fused.stats().ops, 4);
    EXPECT_EQ(fused.stats().dense1, 1);
    EXPECT_EQ(fused.stats().dense2, 3);
    EXPECT_EQ(fused.stats().fusedGates, 20);
    expectEverySubrangeMatches(c, fused, 11);
}

TEST(Fusion, RejectsGatesWiderThanTwoQubits)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::ccx(0, 1, 2));
    EXPECT_THROW(FusedProgram{c}, PanicError);
}

TEST(Fusion, SameQubitRunsMergeToOneKernel)
{
    Circuit c(2);
    c.add(Gate::h(0));
    c.add(Gate::rz(0, 0.4));
    c.add(Gate::h(0));
    c.add(Gate::u3(0, 0.3, 0.2, 0.1));
    FusedProgram fused(c);
    EXPECT_EQ(fused.stats().dense1, 1);
    EXPECT_EQ(fused.stats().fusedGates, 4);
    StateVector plain(2), sv(2);
    plain.applyCircuit(c);
    fused.applyAll(sv);
    EXPECT_LE(maxAmpDelta(sv, plain), 1e-12);
}

TEST(Fusion, FusedKernelsMatchMatrixPath)
{
    // The fused kernels themselves are exact: applying a gate's
    // matrix through applyFused1/applyFused2 must equal the
    // established applyMatrix path bit for bit is too strict across
    // compilers, so we require <= 1e-15 per amplitude for one gate and
    // <= 1e-12 after a sequence of them.
    Rng rng(7);
    StateVector a(3), b(3);
    for (int q = 0; q < 3; ++q) {
        a.applyGate(Gate::h(q));
        b.applyGate(Gate::h(q));
    }
    Gate u = Gate::u3(1, 0.3, 1.1, -0.6);
    Matrix m1 = gateMatrix(u);
    Cplx f1[4] = {m1(0, 0), m1(0, 1), m1(1, 0), m1(1, 1)};
    a.applyMatrix1(m1, 1);
    b.applyFused1(f1, 1);
    EXPECT_LE(maxAmpDelta(a, b), 1e-15);

    Matrix m2 = gateMatrix(Gate::xx(0, 2, 0.9));
    Cplx f2[16];
    for (int r = 0; r < 4; ++r)
        for (int col = 0; col < 4; ++col)
            f2[r * 4 + col] = m2(r, col);
    a.applyMatrix2(m2, 0, 2);
    b.applyFused2(f2, 0, 2);
    EXPECT_LE(maxAmpDelta(a, b), 1e-15);

    // Dense operators whose every entry is nonzero, on operand lists
    // that reach each kernel path: qubit 0 first or later (the
    // stride-1 AVX2 layouts), operands above it only (the general
    // path) and the top qubit.
    const std::vector<Gate> dense1 = {Gate::u3(0, 0.4, 0.2, -0.9)};
    const std::vector<Gate> dense2 = {Gate::xx(0, 1, 0.8),
                                      Gate::u3(0, 0.3, -0.5, 1.2),
                                      Gate::u3(1, 1.1, 0.6, -0.2)};
    const std::vector<Cplx> f1m = referenceMatrix(1, dense1);
    const std::vector<Cplx> f2m = referenceMatrix(2, dense2);
    for (int n : {4, 11}) {
        const int top = n - 1;
        StateVector fused(n), ref(n);
        for (uint64_t i = 0; i < fused.dim(); ++i) {
            fused.amps()[i] = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
            ref.amps()[i] = fused.amps()[i];
        }
        auto check = [&](const char *kernel, const std::vector<int> &qs) {
            std::string on;
            for (int q : qs)
                on += " q" + std::to_string(q);
            EXPECT_LE(maxAmpDelta(fused, ref), 1e-12)
                << kernel << on << " of " << n << " qubits";
        };
        for (int q : {0, n / 2, top}) {
            fused.applyFused1(f1m.data(), q);
            applyReference(ref, dense1, {q});
            check("applyFused1", {q});
        }
        for (std::vector<int> qs :
             {std::vector<int>{0, top}, {top, 0}, {1, 2}, {2, 1}}) {
            fused.applyFused2(f2m.data(), qs[0], qs[1]);
            applyReference(ref, dense2, qs);
            check("applyFused2", qs);
        }

        // The phase kernels against applyMatrix1.
        const Cplx phase(0.6, 0.8);
        Matrix pm(2, 2);
        pm(0, 0) = Cplx(1, 0);
        pm(1, 1) = phase;
        fused.applyPhase1(0, phase);
        ref.applyMatrix1(pm, 0);
        check("applyPhase1", {0});
        fused.applyRz(top, 0.9);
        ref.applyMatrix1(gateMatrix(Gate::rz(top, 0.9)), top);
        check("applyRz", {top});
    }
}

} // namespace
} // namespace triq
