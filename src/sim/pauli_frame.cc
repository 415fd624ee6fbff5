#include "sim/pauli_frame.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>

#include "common/logging.hh"
#include "core/unitary.hh"

namespace triq
{

namespace
{

/** Entrywise tolerance of the Clifford test (see cliffordImages). */
constexpr double kCliffordTol = 1e-12;

/**
 * Match a 2^n x 2^n matrix against c X^x Z^z for a unit phase c.
 * X^x Z^z maps |b> to (-1)^|z & b| |b ^ x>, so column 0 fixes x and c,
 * and column 2^k fixes bit k of z; then every entry is checked.
 */
std::optional<PauliMask>
matchPhasedPauli(const Matrix &m)
{
    const int d = m.rows();
    int x = 0;
    for (int r = 1; r < d; ++r)
        if (std::abs(m(r, 0)) > std::abs(m(x, 0)))
            x = r;
    if (std::abs(m(x, 0)) == 0.0)
        return std::nullopt;
    const Cplx c = m(x, 0) / std::abs(m(x, 0));
    int z = 0;
    for (int k = 1; k < d; k <<= 1)
        if (std::real(m(x ^ k, k) * std::conj(c)) < 0.0)
            z |= k;
    for (int col = 0; col < d; ++col) {
        for (int row = 0; row < d; ++row) {
            Cplx want = 0.0;
            if (row == (col ^ x))
                want = std::popcount(static_cast<unsigned>(z & col)) & 1
                           ? -c
                           : c;
            if (std::abs(m(row, col) - want) > kCliffordTol)
                return std::nullopt;
        }
    }
    return PauliMask{static_cast<uint64_t>(x), static_cast<uint64_t>(z)};
}

/** o <- U^dagger o U, for U the gate whose operand images are given. */
void
conjugate(PauliMask &o, const Gate &g, const std::vector<PauliMask> &images)
{
    PauliMask local;
    for (int a = 0; a < g.arity(); ++a) {
        const uint64_t bit = uint64_t{1} << g.qubit(a);
        for (int is_z = 0; is_z < 2; ++is_z) {
            if (((is_z ? o.z : o.x) & bit) == 0)
                continue;
            const PauliMask &img = images[static_cast<size_t>(2 * a + is_z)];
            local.x ^= img.x;
            local.z ^= img.z;
        }
        o.x &= ~bit;
        o.z &= ~bit;
    }
    for (int a = 0; a < g.arity(); ++a) {
        const uint64_t bit = uint64_t{1} << g.qubit(a);
        if ((local.x >> a) & 1)
            o.x |= bit;
        if ((local.z >> a) & 1)
            o.z |= bit;
    }
}


/** Generator masks of one factor of the character sum (unused = 0). */
using Gens = std::array<uint64_t, 4>;

/**
 * The oracle's characteristic function F(u) = E[(-1)^(u . flips)] over
 * a trial's total flip vector (fired masks XOR readout flips), as one
 * factor per distinct generator set. Every factor is 1 when u is
 * orthogonal to its masks and 1 - kappa p otherwise: kappa is 16/15 for
 * a 2Q site, 4/3 for a 1Q site and 2 for an idle Z or a readout flip.
 */
struct Characteristic
{
    int measured = 0;
    std::vector<std::pair<Gens, double>> factors;

    double operator()(uint64_t u) const
    {
        double f = 1.0;
        for (const auto &[gens, weight] : factors) {
            const bool odd = std::any_of(
                gens.begin(), gens.end(),
                [u](uint64_t g) { return std::popcount(u & g) & 1; });
            if (odd)
                f *= weight;
        }
        return f;
    }
};

/** The characteristic of a Clifford circuit with deterministic output. */
std::optional<Characteristic>
characteristic(const Circuit &hw, const Device &dev,
               const Calibration &calib)
{
    const NoisyCircuit nc = noisyCircuit(hw, dev.topology(), calib);
    if (nc.circuit.numQubits() > 64)
        fatal("Clifford oracle: ", nc.circuit.numQubits(),
              " active qubits exceed the 64-bit Pauli masks");
    std::optional<FlipTable> table =
        pauliFlipTable(nc.circuit, nc.sites, nc.measured);
    if (!table || !table->deterministic)
        return std::nullopt;

    // Factors with equal masks merge.
    std::map<Gens, double> merged;
    auto add = [&](const Gens &gens, double kappa, double p) {
        if (gens != Gens{})
            merged.try_emplace(gens, 1.0).first->second *= 1.0 - kappa * p;
    };
    for (size_t si = 0; si < nc.sites.size(); ++si) {
        const ErrorSite &s = nc.sites[si];
        const uint64_t *row = &table->flips[kPauliCodes * si];
        if (s.idle)
            add({row[0], 0, 0, 0}, 2.0, s.prob);
        else if (s.q1 == -1)
            add({row[0], row[2], 0, 0}, 4.0 / 3.0, s.prob);
        else // X and Z on q0 are codes 1 and 3; on q1, 4 and 12.
            add({row[1], row[3], row[4], row[12]}, 16.0 / 15.0, s.prob);
    }
    for (size_t k = 0; k < nc.roErr.size(); ++k)
        add({uint64_t{1} << k, 0, 0, 0}, 2.0, nc.roErr[k]);
    Characteristic f;
    f.measured = static_cast<int>(nc.measured.size());
    f.factors.assign(merged.begin(), merged.end());
    return f;
}

} // namespace

std::optional<std::vector<PauliMask>>
cliffordImages(const Gate &g)
{
    const Matrix u = gateMatrix(g);
    const Matrix u_dag = u.dagger();
    const int d = u.rows();
    std::vector<PauliMask> images;
    for (int a = 0; a < g.arity(); ++a) {
        const int bit = 1 << a;
        for (bool is_z : {false, true}) {
            // P U for P = X_a (rows permuted) or Z_a (rows signed).
            Matrix pu(d, d);
            for (int r = 0; r < d; ++r)
                for (int c = 0; c < d; ++c)
                    pu(r, c) = is_z ? ((r & bit) ? -u(r, c) : u(r, c))
                                    : u(r ^ bit, c);
            std::optional<PauliMask> image = matchPhasedPauli(u_dag * pu);
            if (!image)
                return std::nullopt;
            images.push_back(*image);
        }
    }
    return images;
}

std::optional<FlipTable>
pauliFlipTable(const Circuit &circuit, const std::vector<ErrorSite> &sites,
               const std::vector<ProgQubit> &measured)
{
    if (circuit.numQubits() > 64)
        return std::nullopt; // wider than the masks
    // obs[k]: measured[k]'s Z, conjugated back through every gate after
    // the sweep's position. A Pauli injected there flips key bit k
    // exactly when it anticommutes with obs[k].
    std::vector<PauliMask> obs(measured.size());
    for (size_t k = 0; k < measured.size(); ++k)
        obs[k].z = uint64_t{1} << measured[k];
    // Key bits flipped by an X (a Z) on qubit q: those whose observable
    // has a Z (an X) component there.
    auto flipped = [&](int q, bool by_z) {
        uint64_t mask = 0;
        for (size_t k = 0; k < obs.size(); ++k)
            if ((((by_z ? obs[k].x : obs[k].z) >> q) & 1) != 0)
                mask |= uint64_t{1} << k;
        return mask;
    };
    // Masks of I, X, Y, Z on qubit q, indexed like a code's digit.
    auto paulis = [&](int q) {
        const uint64_t fx = flipped(q, false), fz = flipped(q, true);
        return std::array<uint64_t, 4>{0, fx, fx ^ fz, fz};
    };

    FlipTable table;
    table.flips.assign(kPauliCodes * sites.size(), 0);
    auto record = [&](size_t si) {
        const ErrorSite &s = sites[si];
        uint64_t *row = &table.flips[kPauliCodes * si];
        const std::array<uint64_t, 4> p0 = paulis(s.q0);
        if (s.idle) {
            row[0] = p0[3];
        } else if (s.q1 == -1) {
            for (int code = 0; code < 3; ++code)
                row[code] = p0[static_cast<size_t>(code + 1)];
        } else {
            const std::array<uint64_t, 4> p1 = paulis(s.q1);
            for (int code = 1; code < kPauliCodes; ++code)
                row[code] = p0[static_cast<size_t>(code & 3)] ^
                            p1[static_cast<size_t>(code >> 2)];
        }
    };

    std::vector<size_t> by_gate(sites.size());
    std::iota(by_gate.begin(), by_gate.end(), size_t{0});
    std::stable_sort(by_gate.begin(), by_gate.end(),
                     [&](size_t a, size_t b) {
                         return sites[a].gateIdx < sites[b].gateIdx;
                     });
    auto next = by_gate.rbegin();
    for (int gi = circuit.numGates() - 1; gi >= 0; --gi) {
        // A site's Pauli lands after its gate: record it before
        // conjugating through that gate.
        for (; next != by_gate.rend() && sites[*next].gateIdx == gi; ++next)
            record(*next);
        const Gate &g = circuit.gate(gi);
        if (!isUnitaryGate(g.kind))
            continue; // Measure and Barrier.
        std::optional<std::vector<PauliMask>> images = cliffordImages(g);
        if (!images)
            return std::nullopt;
        for (PauliMask &o : obs)
            conjugate(o, g, *images);
    }
    table.deterministic = std::all_of(
        obs.begin(), obs.end(), [](const PauliMask &o) { return o.x == 0; });
    return table;
}

std::optional<double>
cliffordSuccessProbability(const Circuit &hw, const Device &dev,
                           const Calibration &calib)
{
    std::optional<Characteristic> f = characteristic(hw, dev, calib);
    if (!f)
        return std::nullopt;
    if (f->measured > 30)
        fatal("cliffordSuccessProbability: ", f->measured,
              " measured qubits exceed the 2^30-term sum");
    // P(flips = 0) is the mean of F over all 2^m keys.
    const uint64_t keys = uint64_t{1} << f->measured;
    double sum = 0.0;
    for (uint64_t u = 0; u < keys; ++u)
        sum += (*f)(u);
    return sum / static_cast<double>(keys);
}

std::optional<std::vector<double>>
cliffordBitFlipProbabilities(const Circuit &hw, const Device &dev,
                             const Calibration &calib)
{
    std::optional<Characteristic> f = characteristic(hw, dev, calib);
    if (!f)
        return std::nullopt;
    // E[(-1)^(flip of bit k)] is F at the unit key e_k.
    std::vector<double> out(static_cast<size_t>(f->measured));
    for (int k = 0; k < f->measured; ++k)
        out[static_cast<size_t>(k)] = (1.0 - (*f)(uint64_t{1} << k)) / 2.0;
    return out;
}

} // namespace triq
