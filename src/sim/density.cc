#include "sim/density.hh"

#include <cmath>

#include "common/logging.hh"
#include "core/unitary.hh"
#include "sim/noise.hh"

namespace triq
{

namespace
{

/** Entry-wise complex conjugate. */
Matrix
conjugated(const Matrix &m)
{
    Matrix out(m.rows(), m.cols());
    for (int r = 0; r < m.rows(); ++r)
        for (int c = 0; c < m.cols(); ++c)
            out(r, c) = std::conj(m(r, c));
    return out;
}

} // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : numQubits_(num_qubits), vec_(2 * num_qubits)
{
    if (num_qubits < 1 || num_qubits > maxQubits())
        fatal("DensityMatrix: qubit count ", num_qubits, " outside [1, ",
              maxQubits(), "]");
}

void
DensityMatrix::reset()
{
    vec_.reset();
}

void
DensityMatrix::applyBothSides(const Gate &g)
{
    Matrix m = gateMatrix(g);
    Matrix mc = conjugated(m);
    switch (g.arity()) {
      case 1:
        vec_.applyMatrix1(m, g.qubit(0));
        vec_.applyMatrix1(mc, g.qubit(0) + numQubits_);
        return;
      case 2:
        vec_.applyMatrix2(m, g.qubit(0), g.qubit(1));
        vec_.applyMatrix2(mc, g.qubit(0) + numQubits_,
                          g.qubit(1) + numQubits_);
        return;
      default:
        fatal("DensityMatrix: decompose ", g.str(),
              " before density-matrix simulation");
    }
}

void
DensityMatrix::applyGate(const Gate &g)
{
    if (g.kind == GateKind::Barrier || g.kind == GateKind::I)
        return;
    if (g.kind == GateKind::Measure)
        panic("DensityMatrix::applyGate: Measure is not unitary");
    applyBothSides(g);
}

void
DensityMatrix::applyCircuit(const Circuit &c)
{
    if (c.numQubits() != numQubits_)
        fatal("DensityMatrix::applyCircuit: register width mismatch");
    for (const auto &g : c.gates())
        if (g.kind != GateKind::Measure)
            applyGate(g);
}

void
DensityMatrix::applyPauliChannel1(int q, double p)
{
    if (p <= 0.0)
        return;
    StateVector before = vec_;
    for (auto &a : vec_.amps())
        a *= 1.0 - p;
    const double w = p / 3.0;
    for (GateKind pk : {GateKind::X, GateKind::Y, GateKind::Z}) {
        StateVector branch = before;
        Gate g;
        g.kind = pk;
        g.qubits[0] = q;
        Matrix m = gateMatrix(g);
        branch.applyMatrix1(m, q);
        branch.applyMatrix1(conjugated(m), q + numQubits_);
        for (size_t i = 0; i < vec_.amps().size(); ++i)
            vec_.amps()[i] += w * branch.amps()[i];
    }
}

void
DensityMatrix::applyPauliChannel2(int q0, int q1, double p)
{
    if (p <= 0.0)
        return;
    StateVector before = vec_;
    for (auto &a : vec_.amps())
        a *= 1.0 - p;
    const double w = p / 15.0;
    const GateKind paulis[3] = {GateKind::X, GateKind::Y, GateKind::Z};
    for (int code = 1; code < 16; ++code) {
        StateVector branch = before;
        int p0 = code & 3, p1 = (code >> 2) & 3;
        auto apply_one = [&](int which, int q) {
            if (which == 0)
                return;
            Gate g;
            g.kind = paulis[which - 1];
            g.qubits[0] = q;
            Matrix m = gateMatrix(g);
            branch.applyMatrix1(m, q);
            branch.applyMatrix1(conjugated(m), q + numQubits_);
        };
        apply_one(p0, q0);
        apply_one(p1, q1);
        for (size_t i = 0; i < vec_.amps().size(); ++i)
            vec_.amps()[i] += w * branch.amps()[i];
    }
}

void
DensityMatrix::applyDephasing(int q, double p)
{
    if (p <= 0.0)
        return;
    StateVector before = vec_;
    for (auto &a : vec_.amps())
        a *= 1.0 - p;
    StateVector branch = before;
    branch.applyZ(q);
    branch.applyZ(q + numQubits_); // conj(Z) == Z.
    for (size_t i = 0; i < vec_.amps().size(); ++i)
        vec_.amps()[i] += p * branch.amps()[i];
}

double
DensityMatrix::probability(uint64_t basis) const
{
    if (basis >= (uint64_t{1} << numQubits_))
        panic("DensityMatrix::probability: basis out of range");
    uint64_t idx = basis | (basis << numQubits_);
    return vec_.amps()[idx].real();
}

double
DensityMatrix::trace() const
{
    double t = 0.0;
    for (uint64_t b = 0; b < (uint64_t{1} << numQubits_); ++b)
        t += probability(b);
    return t;
}

std::vector<double>
DensityMatrix::measurementDistribution(
    const std::vector<ProgQubit> &measured) const
{
    std::vector<double> out(uint64_t{1} << measured.size(), 0.0);
    for (uint64_t b = 0; b < (uint64_t{1} << numQubits_); ++b) {
        double pr = probability(b);
        if (pr == 0.0)
            continue;
        uint64_t key = 0;
        for (size_t k = 0; k < measured.size(); ++k)
            key |= ((b >> measured[k]) & 1) << k;
        out[key] += pr;
    }
    return out;
}

namespace
{

/**
 * A compiled circuit's exact noisy output: the distribution over
 * measured keys before readout flips, the correct answer (the dominant
 * ideal outcome) and each key bit's readout error.
 */
struct NoisyOutput
{
    std::vector<double> dist;
    uint64_t correct = 0;
    std::vector<double> roErr;
};

/**
 * Evolve the density matrix of `hw` through the error sites the
 * trajectory executor samples; `caller` names the public function in
 * errors.
 */
NoisyOutput
evolveNoisy(const Circuit &hw, const Device &dev, const Calibration &calib,
            const char *caller)
{
    const NoisyCircuit nc = noisyCircuit(hw, dev.topology(), calib);
    const Circuit &circuit = nc.circuit;
    if (circuit.numQubits() > DensityMatrix::maxQubits())
        fatal(caller, ": ", circuit.numQubits(),
              " active qubits exceed the density-matrix limit of ",
              DensityMatrix::maxQubits());

    NoisyOutput out;
    // The benchmark's correct answer: dominant ideal marginal outcome.
    std::vector<double> ideal = idealMeasurementDistribution(circuit);
    double best = -1.0;
    for (uint64_t k = 0; k < ideal.size(); ++k)
        if (ideal[k] > best) {
            best = ideal[k];
            out.correct = k;
        }

    // Sites grouped by preceding gate, as in the executor.
    std::vector<std::vector<int>> sites_after(
        static_cast<size_t>(circuit.numGates()));
    for (size_t i = 0; i < nc.sites.size(); ++i)
        sites_after[static_cast<size_t>(nc.sites[i].gateIdx)].push_back(
            static_cast<int>(i));

    DensityMatrix rho(circuit.numQubits());
    for (int gi = 0; gi < circuit.numGates(); ++gi) {
        const Gate &g = circuit.gate(gi);
        if (g.kind != GateKind::Measure)
            rho.applyGate(g);
        for (int si : sites_after[static_cast<size_t>(gi)]) {
            const ErrorSite &s = nc.sites[static_cast<size_t>(si)];
            if (s.idle)
                rho.applyDephasing(s.q0, s.prob);
            else if (s.q1 == -1)
                rho.applyPauliChannel1(s.q0, s.prob);
            else
                rho.applyPauliChannel2(s.q0, s.q1, s.prob);
        }
    }

    out.dist = rho.measurementDistribution(nc.measured);
    out.roErr = nc.roErr;
    return out;
}

} // namespace

double
exactSuccessProbability(const Circuit &hw, const Device &dev,
                        const Calibration &calib)
{
    const NoisyOutput out =
        evolveNoisy(hw, dev, calib, "exactSuccessProbability");
    // Fold classical readout flips: the observed key matches the
    // correct one when each bit either matches and survives, or
    // mismatches and flips.
    double success = 0.0;
    for (uint64_t key = 0; key < out.dist.size(); ++key) {
        if (out.dist[key] == 0.0)
            continue;
        double w = 1.0;
        for (size_t k = 0; k < out.roErr.size(); ++k) {
            bool match = (((key ^ out.correct) >> k) & 1) == 0;
            w *= match ? 1.0 - out.roErr[k] : out.roErr[k];
        }
        success += out.dist[key] * w;
    }
    return success;
}

std::vector<double>
exactBitFlipProbabilities(const Circuit &hw, const Device &dev,
                          const Calibration &calib)
{
    const NoisyOutput out =
        evolveNoisy(hw, dev, calib, "exactBitFlipProbabilities");
    std::vector<double> flips(out.roErr.size(), 0.0);
    for (uint64_t key = 0; key < out.dist.size(); ++key)
        for (size_t k = 0; k < flips.size(); ++k)
            if (((key ^ out.correct) >> k) & 1)
                flips[k] += out.dist[key];
    // An observed bit differs when it differs and survives readout, or
    // matches and flips.
    for (size_t k = 0; k < flips.size(); ++k)
        flips[k] = flips[k] * (1.0 - out.roErr[k]) +
                   (1.0 - flips[k]) * out.roErr[k];
    return flips;
}

} // namespace triq
