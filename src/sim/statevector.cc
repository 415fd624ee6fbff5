#include "sim/statevector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/unitary.hh"

namespace triq
{

StateVector::StateVector(int num_qubits) : numQubits_(num_qubits)
{
    if (num_qubits < 1 || num_qubits > maxQubits())
        fatal("StateVector: qubit count ", num_qubits, " outside [1, ",
              maxQubits(), "]");
    amps_.assign(uint64_t{1} << num_qubits, Cplx(0, 0));
    amps_[0] = Cplx(1, 0);
}

void
StateVector::reset()
{
    std::fill(amps_.begin(), amps_.end(), Cplx(0, 0));
    amps_[0] = Cplx(1, 0);
}

Cplx
StateVector::amplitude(uint64_t basis) const
{
    if (basis >= dim())
        panic("StateVector::amplitude: basis out of range");
    return amps_[basis];
}

double
StateVector::probability(uint64_t basis) const
{
    return std::norm(amplitude(basis));
}

void
StateVector::checkQubit(int q) const
{
    if (q < 0 || q >= numQubits_)
        panic("StateVector: qubit ", q, " out of range [0,", numQubits_,
              ")");
}

void
StateVector::applyMatrix1(const Matrix &m, int q)
{
    checkQubit(q);
    if (m.rows() != 2 || m.cols() != 2)
        panic("applyMatrix1: matrix is not 2x2");
    const uint64_t bit = uint64_t{1} << q;
    const Cplx m00 = m(0, 0), m01 = m(0, 1), m10 = m(1, 0), m11 = m(1, 1);
    for (uint64_t i = 0; i < dim(); ++i) {
        if (i & bit)
            continue;
        Cplx a0 = amps_[i];
        Cplx a1 = amps_[i | bit];
        amps_[i] = m00 * a0 + m01 * a1;
        amps_[i | bit] = m10 * a0 + m11 * a1;
    }
}

void
StateVector::applyMatrix2(const Matrix &m, int q0, int q1)
{
    checkQubit(q0);
    checkQubit(q1);
    if (q0 == q1)
        panic("applyMatrix2: identical qubits");
    if (m.rows() != 4 || m.cols() != 4)
        panic("applyMatrix2: matrix is not 4x4");
    const uint64_t b0 = uint64_t{1} << q0;
    const uint64_t b1 = uint64_t{1} << q1;
    Cplx mm[4][4];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            mm[r][c] = m(r, c);
    for (uint64_t i = 0; i < dim(); ++i) {
        if (i & (b0 | b1))
            continue;
        const uint64_t idx[4] = {i, i | b0, i | b1, i | b0 | b1};
        Cplx a[4];
        for (int k = 0; k < 4; ++k)
            a[k] = amps_[idx[k]];
        for (int r = 0; r < 4; ++r) {
            Cplx v(0, 0);
            for (int c = 0; c < 4; ++c)
                v += mm[r][c] * a[c];
            amps_[idx[r]] = v;
        }
    }
}

namespace
{

/**
 * Run fn(i, i | bit) over the dim/2 amplitude pairs a one-qubit Pauli
 * mixes: pair index t with a zero bit inserted at `bit`. Enumerating
 * only the pairs spends no iteration or branch on the other half of the
 * amplitudes.
 */
template <typename Fn>
void
forEachPair(uint64_t dim, uint64_t bit, const Fn &fn)
{
    for (uint64_t t = 0; t < dim / 2; ++t) {
        const uint64_t i = ((t & ~(bit - 1)) << 1) | (t & (bit - 1));
        fn(i, i | bit);
    }
}

} // namespace

void
StateVector::applyX(int q)
{
    checkQubit(q);
    forEachPair(dim(), uint64_t{1} << q, [&](uint64_t i, uint64_t j) {
        std::swap(amps_[i], amps_[j]);
    });
}

void
StateVector::applyY(int q)
{
    checkQubit(q);
    // Y = [[0, -i], [i, 0]] only swaps and negates components, so this
    // equals the matrix path up to the sign of an exact zero and every
    // probability is bit-identical.
    forEachPair(dim(), uint64_t{1} << q, [&](uint64_t i, uint64_t j) {
        const Cplx a0 = amps_[i];
        const Cplx a1 = amps_[j];
        amps_[i] = Cplx(a1.imag(), -a1.real());
        amps_[j] = Cplx(-a0.imag(), a0.real());
    });
}

void
StateVector::applyZ(int q)
{
    checkQubit(q);
    forEachPair(dim(), uint64_t{1} << q,
                [&](uint64_t, uint64_t j) { amps_[j] = -amps_[j]; });
}

void
StateVector::applyPhase1(int q, Cplx phase)
{
    checkQubit(q);
    const uint64_t bit = uint64_t{1} << q;
    for (uint64_t i = 0; i < dim(); ++i)
        if (i & bit)
            amps_[i] *= phase;
}

void
StateVector::applyRz(int q, double theta)
{
    checkQubit(q);
    const uint64_t bit = uint64_t{1} << q;
    const Cplx plo = std::exp(Cplx(0, -theta / 2));
    const Cplx phi = std::exp(Cplx(0, theta / 2));
    for (uint64_t i = 0; i < dim(); ++i)
        amps_[i] *= (i & bit) ? phi : plo;
}

void
StateVector::applyCnot(int control, int target)
{
    checkQubit(control);
    checkQubit(target);
    if (control == target)
        panic("applyCnot: identical qubits");
    const uint64_t cb = uint64_t{1} << control;
    const uint64_t tb = uint64_t{1} << target;
    for (uint64_t i = 0; i < dim(); ++i)
        if ((i & cb) && !(i & tb))
            std::swap(amps_[i], amps_[i | tb]);
}

void
StateVector::applyCz(int a, int b)
{
    checkQubit(a);
    checkQubit(b);
    if (a == b)
        panic("applyCz: identical qubits");
    const uint64_t mask = (uint64_t{1} << a) | (uint64_t{1} << b);
    for (uint64_t i = 0; i < dim(); ++i)
        if ((i & mask) == mask)
            amps_[i] = -amps_[i];
}

void
StateVector::applyCphase(int a, int b, double lambda)
{
    checkQubit(a);
    checkQubit(b);
    if (a == b)
        panic("applyCphase: identical qubits");
    const uint64_t mask = (uint64_t{1} << a) | (uint64_t{1} << b);
    const Cplx phase = std::exp(Cplx(0, lambda));
    for (uint64_t i = 0; i < dim(); ++i)
        if ((i & mask) == mask)
            amps_[i] *= phase;
}

void
StateVector::applySwap(int a, int b)
{
    checkQubit(a);
    checkQubit(b);
    if (a == b)
        panic("applySwap: identical qubits");
    const uint64_t ba = uint64_t{1} << a;
    const uint64_t bb = uint64_t{1} << b;
    for (uint64_t i = 0; i < dim(); ++i)
        if ((i & ba) && !(i & bb))
            std::swap(amps_[i], amps_[(i & ~ba) | bb]);
}

// applyFused1 and applyFused2, the two kernels gate fusion applies its
// 2x2 and 4x4 operators with, live in fused_kernels.cc so the build can
// give them tuned optimization flags. The per-gate paths here keep the
// generic build: applyGate below is what the ideal pass and unfused
// replay run, gate by gate.

void
StateVector::applyGate(const Gate &g)
{
    if (g.kind == GateKind::Barrier || g.kind == GateKind::I)
        return;
    if (g.kind == GateKind::Measure)
        panic("StateVector::applyGate: Measure is not unitary");
    switch (g.arity()) {
      case 1:
        switch (g.kind) {
          case GateKind::X:
            applyX(g.qubit(0));
            return;
          case GateKind::Y:
            applyY(g.qubit(0));
            return;
          case GateKind::Z:
            applyZ(g.qubit(0));
            return;
          case GateKind::S:
            applyPhase1(g.qubit(0), Cplx(0, 1));
            return;
          case GateKind::Sdg:
            applyPhase1(g.qubit(0), Cplx(0, -1));
            return;
          case GateKind::T:
            applyPhase1(g.qubit(0), std::exp(Cplx(0, kPi / 4)));
            return;
          case GateKind::Tdg:
            applyPhase1(g.qubit(0), std::exp(Cplx(0, -kPi / 4)));
            return;
          case GateKind::U1:
            applyPhase1(g.qubit(0), std::exp(Cplx(0, g.params[0])));
            return;
          case GateKind::Rz:
            applyRz(g.qubit(0), g.params[0]);
            return;
          default:
            applyMatrix1(gateMatrix(g), g.qubit(0));
            return;
        }
      case 2:
        switch (g.kind) {
          case GateKind::Cnot:
            applyCnot(g.qubit(0), g.qubit(1));
            return;
          case GateKind::Cz:
            applyCz(g.qubit(0), g.qubit(1));
            return;
          case GateKind::Cphase:
            applyCphase(g.qubit(0), g.qubit(1), g.params[0]);
            return;
          case GateKind::Swap:
            applySwap(g.qubit(0), g.qubit(1));
            return;
          default:
            applyMatrix2(gateMatrix(g), g.qubit(0), g.qubit(1));
            return;
        }
      case 3: {
        // Composite gates are rare post-decomposition; expand via two
        // levels: apply as a controlled operation by direct permutation.
        const Matrix m = gateMatrix(g);
        const uint64_t b[3] = {uint64_t{1} << g.qubit(0),
                               uint64_t{1} << g.qubit(1),
                               uint64_t{1} << g.qubit(2)};
        const uint64_t mask = b[0] | b[1] | b[2];
        for (uint64_t i = 0; i < dim(); ++i) {
            if (i & mask)
                continue;
            uint64_t idx[8];
            Cplx a[8];
            for (int k = 0; k < 8; ++k) {
                uint64_t j = i;
                for (int t = 0; t < 3; ++t)
                    if (k & (1 << t))
                        j |= b[t];
                idx[k] = j;
                a[k] = amps_[j];
            }
            for (int r = 0; r < 8; ++r) {
                Cplx v(0, 0);
                for (int c = 0; c < 8; ++c)
                    v += m(r, c) * a[c];
                amps_[idx[r]] = v;
            }
        }
        return;
      }
      default:
        panic("StateVector::applyGate: unexpected arity");
    }
}

void
StateVector::applyCircuit(const Circuit &c)
{
    if (c.numQubits() != numQubits_)
        fatal("StateVector::applyCircuit: register width mismatch");
    for (const auto &g : c.gates()) {
        if (g.kind == GateKind::Measure)
            continue;
        applyGate(g);
    }
}

uint64_t
StateVector::sampleMeasurement(Rng &rng) const
{
    const double r = rng.uniform();
    double acc = 0.0;
    for (uint64_t i = 0; i < dim(); ++i) {
        acc += std::norm(amps_[i]);
        if (r < acc)
            return i;
    }
    return dim() - 1; // Numerical slack: land on the last state.
}

uint64_t
StateVector::dominantBasisState(double *prob_out) const
{
    uint64_t best = 0;
    double bestp = -1.0;
    for (uint64_t i = 0; i < dim(); ++i) {
        double p = std::norm(amps_[i]);
        if (p > bestp) {
            bestp = p;
            best = i;
        }
    }
    if (prob_out)
        *prob_out = bestp;
    return best;
}

double
StateVector::normSquared() const
{
    double s = 0.0;
    for (const auto &a : amps_)
        s += std::norm(a);
    return s;
}

double
StateVector::fidelityWith(const StateVector &other) const
{
    if (other.dim() != dim())
        panic("StateVector::fidelityWith: size mismatch");
    Cplx ip(0, 0);
    for (uint64_t i = 0; i < dim(); ++i)
        ip += std::conj(amps_[i]) * other.amps_[i];
    return std::norm(ip);
}

std::vector<double>
idealMeasurementDistribution(const Circuit &c)
{
    StateVector sv(c.numQubits());
    sv.applyCircuit(c);
    std::vector<ProgQubit> mq = c.measuredQubits();
    if (mq.empty())
        fatal("idealMeasurementDistribution: circuit measures nothing");
    std::vector<double> out(uint64_t{1} << mq.size(), 0.0);
    for (uint64_t i = 0; i < sv.dim(); ++i) {
        double p = sv.probability(i);
        if (p == 0.0)
            continue;
        uint64_t key = 0;
        for (size_t k = 0; k < mq.size(); ++k)
            key |= ((i >> mq[k]) & 1) << k;
        out[key] += p;
    }
    return out;
}

} // namespace triq
