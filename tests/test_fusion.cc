/**
 * @file
 * Gate-fusion tests: fused replay must match the gate-by-gate path to
 * 1e-12 on random circuits over the full fast-path gate set, and so
 * must every sub-range replay, whether it starts or stops inside a
 * fused op (split operators) or lies inside one (original gates).
 */

#include <cmath>
#include <complex>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/unitary.hh"
#include "sim/executor.hh"
#include "sim/fusion.hh"
#include "sim/statevector.hh"

namespace triq
{
namespace
{

/**
 * A random circuit over every gate kind the simulator fast-paths,
 * weighted toward the diagonal and 1Q gates fusion targets.
 */
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
 * Apply `gates`, written over local qubits 0..2, to `sv` with local
 * qubit i on qubit qs[i], through the reference kernels the fused ones
 * must agree with: applyMatrix1, applyMatrix2 and applyGate's generic
 * 3-qubit loop.
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
        else if (g.arity() == 2)
            sv.applyMatrix2(gateMatrix(g), g.qubit(0), g.qubit(1));
        else
            sv.applyGate(g);
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
        applyReference(col, gates, {0, 1, 2});
        for (uint64_t r = 0; r < dim; ++r)
            m[r * dim + c] = col.amplitude(r);
    }
    return m;
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
        EXPECT_LT(fused.stats().modeledCostRatio, 1.0)
            << "seed " << seed;
    }
}

TEST(Fusion, AnySubrangeMatchesGateByGate)
{
    // For every 0 <= a <= b <= n, replaying [a, b) from the gate-by-gate
    // state after a gates must land on the gate-by-gate state after b
    // gates. That covers ranges which start inside an op (split tail),
    // stop inside one (split head), lie inside one, or span several.
    // The circuits carry 3-qubit dense ops and diagonal runs over more
    // than 3 qubits, so the per-gate path stays covered too.
    for (uint64_t seed : {3, 4, 5}) {
        Circuit c = randomCircuit(5, 120, seed);
        FusedProgram fused(c);
        ASSERT_GT(fused.stats().dense3, 0) << "seed " << seed;
        ASSERT_GT(fused.stats().wideDiagonal, 0) << "seed " << seed;
        // Start from a random state so every phase is observable.
        Rng rng(seed);
        StateVector sv(5);
        for (Cplx &a : sv.amps())
            a = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
        const double norm = std::sqrt(sv.normSquared());
        for (Cplx &a : sv.amps())
            a /= norm;
        std::vector<StateVector> after{sv};
        for (const Gate &g : c.gates()) {
            sv.applyGate(g);
            after.push_back(sv);
        }
        const int n = c.numGates();
        for (int a = 0; a <= n; ++a)
            for (int b = a; b <= n; ++b) {
                StateVector part = after[a];
                fused.apply(part, a, b);
                ASSERT_LE(maxAmpDelta(part, after[b]), 1e-12)
                    << "seed " << seed << " range [" << a << ", " << b
                    << ")";
            }
    }
}

TEST(Fusion, DiagonalRunsCollapse)
{
    Circuit c(3);
    c.add(Gate::t(0));
    c.add(Gate::rz(1, 0.7));
    c.add(Gate::cz(0, 1));
    c.add(Gate::cphase(1, 2, 0.3));
    c.add(Gate::s(2));
    FusedProgram fused(c);
    EXPECT_EQ(fused.stats().diagonal, 1);
    EXPECT_EQ(fused.stats().fusedGates, 5);
    StateVector plain(3), sv(3);
    // Start from a superposition so every phase is observable.
    for (int q = 0; q < 3; ++q)
        plain.applyGate(Gate::h(q));
    plain.applyCircuit(c);
    for (int q = 0; q < 3; ++q)
        sv.applyGate(Gate::h(q));
    fused.applyAll(sv);
    EXPECT_LE(maxAmpDelta(sv, plain), 1e-12);
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
    // matrix through applyFused{1,2,3}/applyDiagonal must equal the
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

    // diag over (q0, q2): bit 0 carries S's phase i, bit 1 Z's -1.
    int qs[2] = {0, 2};
    Cplx full[4] = {Cplx(1, 0), Cplx(0, 1), Cplx(-1, 0), Cplx(0, -1)};
    a.applyGate(Gate::s(0));
    a.applyGate(Gate::z(2));
    b.applyDiagonal(full, qs, 2);
    EXPECT_LE(maxAmpDelta(a, b), 1e-12);

    // Dense operators whose every entry is nonzero, on operand lists
    // that reach each kernel path: qubit 0 first or later (the
    // stride-1 AVX2 layouts), operands above it only (the general
    // path) and the top qubit.
    const std::vector<Gate> dense1 = {Gate::u3(0, 0.4, 0.2, -0.9)};
    const std::vector<Gate> dense2 = {Gate::xx(0, 1, 0.8),
                                      Gate::u3(0, 0.3, -0.5, 1.2),
                                      Gate::u3(1, 1.1, 0.6, -0.2)};
    const std::vector<Gate> dense3 = {
        Gate::ccx(0, 1, 2), Gate::u3(0, 0.7, -0.3, 1.1),
        Gate::u3(1, 1.3, 0.5, 0.4), Gate::u3(2, 0.2, -1.0, 0.9)};
    const std::vector<Cplx> f1m = referenceMatrix(1, dense1);
    const std::vector<Cplx> f2m = referenceMatrix(2, dense2);
    const std::vector<Cplx> f3m = referenceMatrix(3, dense3);
    Cplx table[8];
    for (int i = 0; i < 8; ++i)
        table[i] = std::polar(1.0, 0.37 * i * i - 0.5);
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
        for (std::vector<int> qs : {std::vector<int>{0, 1, top},
                                    {top, 0, 1}, {1, 2, 3}, {3, 1, 2}}) {
            fused.applyFused3(f3m.data(), qs[0], qs[1], qs[2]);
            applyReference(ref, dense3, qs);
            check("applyFused3", qs);
        }

        // Diagonals: the phase kernels against applyMatrix1, and a
        // 3-qubit table against a plain per-amplitude multiply.
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
        for (std::vector<int> qs :
             {std::vector<int>{0, 1, top}, {top, 0, n / 2}}) {
            fused.applyDiagonal(table, qs.data(), 3);
            for (uint64_t i = 0; i < ref.dim(); ++i) {
                uint64_t local = 0;
                for (int k = 0; k < 3; ++k)
                    local |= ((i >> qs[k]) & 1) << k;
                ref.amps()[i] *= table[local];
            }
            check("applyDiagonal", qs);
        }
    }
}

TEST(Fusion, EnvDefaultToggles)
{
    unsetenv("TRIQ_SIM_FUSION");
    EXPECT_TRUE(defaultSimFusion());
    setenv("TRIQ_SIM_FUSION", "0", 1);
    EXPECT_FALSE(defaultSimFusion());
    setenv("TRIQ_SIM_FUSION", "1", 1);
    EXPECT_TRUE(defaultSimFusion());
    unsetenv("TRIQ_SIM_FUSION");
}

} // namespace
} // namespace triq
