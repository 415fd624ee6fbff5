/**
 * @file
 * Dense state-vector quantum simulator.
 *
 * This is the substrate that stands in for the paper's real machines: the
 * noisy executor evolves compiled circuits through this simulator with
 * sampled error events. It is also used ideally (no noise) to determine
 * each benchmark's correct answer and to verify compiler passes.
 *
 * Basis convention matches core/unitary.hh: qubit q is bit q of the basis
 * index.
 */

#ifndef TRIQ_SIM_STATEVECTOR_HH
#define TRIQ_SIM_STATEVECTOR_HH

#include <cstdint>
#include <vector>

#include "common/matrix.hh"
#include "common/rng.hh"
#include "core/circuit.hh"

namespace triq
{

/**
 * A dense 2^n-amplitude quantum state with gate application, Pauli-error
 * injection and measurement sampling.
 */
class StateVector
{
  public:
    /** Construct n qubits in |0...0>. @pre 0 < n <= maxQubits(). */
    explicit StateVector(int num_qubits);

    /**
     * Largest register this simulator accepts. 30 qubits is a 16 GiB
     * state — the constant is a sanity bound on the *representation*,
     * not an admission decision: whether a given register actually
     * fits this process is decided by the ResourceGovernor /
     * sim_cost admission path, which rejects oversized requests as
     * structured sim.oom / server.budget errors before any amplitude
     * array is allocated.
     */
    static constexpr int maxQubits() { return 30; }

    int numQubits() const { return numQubits_; }

    /** Reset to |0...0>. */
    void reset();

    /** Dimension of the state (2^n). */
    uint64_t dim() const { return amps_.size(); }

    /** Amplitude of a basis state. */
    Cplx amplitude(uint64_t basis) const;

    /** Probability of a basis state. */
    double probability(uint64_t basis) const;

    /** Apply a unitary IR gate (any arity; Barrier is a no-op). */
    void applyGate(const Gate &g);

    /** Apply every unitary gate of a circuit (Measure not allowed). */
    void applyCircuit(const Circuit &c);

    /** Apply a 2x2 matrix to qubit q. */
    void applyMatrix1(const Matrix &m, int q);

    /** Apply a 4x4 matrix to qubits (q0 = local bit 0, q1 = bit 1). */
    void applyMatrix2(const Matrix &m, int q0, int q1);

    /** Fast Pauli applications used by the noise model. */
    void applyX(int q);
    void applyY(int q);
    void applyZ(int q);

    /**
     * Specialized kernels for the gate families that dominate compiled
     * circuits (diagonal phases, CNOT/CZ, SWAP). applyGate dispatches
     * here instead of the general 2x2/4x4 matrix path. The Paulis,
     * CNOT, CZ and SWAP only move or negate components, so they match
     * the matrix path exactly (up to the sign of an exact zero); the
     * phase kernels agree with it to rounding.
     */
    void applyPhase1(int q, Cplx phase); //!< diag(1, phase) on qubit q.
    void applyRz(int q, double theta);   //!< diag(e^-it/2, e^+it/2).
    void applyCnot(int control, int target);
    void applyCz(int a, int b);
    void applyCphase(int a, int b, double lambda);
    void applySwap(int a, int b);

    /**
     * The two kernels gate fusion (sim/fusion.hh) applies its operators
     * with. Unlike applyMatrix1/2 they enumerate only the amplitudes
     * they touch (no skip branch). Matrices are row-major with local
     * qubit i = bit i; amplitudes agree with the matrix path to
     * rounding (see fused_kernels.cc).
     */
    void applyFused1(const Cplx *m, int q);          //!< m: 2x2.
    void applyFused2(const Cplx *m, int q0, int q1); //!< m: 4x4.

    /**
     * Sample a full measurement outcome (all qubits) without collapsing.
     * @return Basis index distributed according to |amplitude|^2.
     */
    uint64_t sampleMeasurement(Rng &rng) const;

    /**
     * The most probable basis state.
     * @param prob_out When non-null, receives that state's probability.
     */
    uint64_t dominantBasisState(double *prob_out = nullptr) const;

    /** Sum of probabilities (1.0 when normalized). */
    double normSquared() const;

    /** Fidelity |<this|other>|^2. @pre equal sizes. */
    double fidelityWith(const StateVector &other) const;

    /**
     * Raw amplitude storage. Expert interface: the density-matrix
     * simulator vectorizes rho into a StateVector and mixes channel
     * branches by direct amplitude arithmetic.
     */
    std::vector<Cplx> &amps() { return amps_; }
    const std::vector<Cplx> &amps() const { return amps_; }

  private:
    int numQubits_;
    std::vector<Cplx> amps_;

    void checkQubit(int q) const;
};

/**
 * Run `c` ideally from |0...0> and return the outcome distribution
 * restricted to the measured qubits (in ascending qubit order: measured
 * qubit i contributes bit i of the returned index).
 *
 * @return Probability vector of size 2^(#measured qubits).
 */
std::vector<double> idealMeasurementDistribution(const Circuit &c);

} // namespace triq

#endif // TRIQ_SIM_STATEVECTOR_HH
