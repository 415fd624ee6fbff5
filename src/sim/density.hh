/**
 * @file
 * Density-matrix simulator: exact noise-averaged evolution for small
 * registers.
 *
 * Where the trajectory executor (sim/executor.hh) *samples* the
 * stochastic-Pauli noise model, this simulator evolves the full density
 * matrix through the same model and returns the exact success
 * probability — no Monte-Carlo error. It is the reference the executor
 * is validated against, and a fast alternative for sweeps over small
 * (<= ~7 qubit) compiled circuits.
 *
 * Implementation: rho is stored vectorized. With rows in bits [0, n)
 * and columns in bits [n, 2n), left-multiplying by U is a gate on the
 * row bits and right-multiplying by U^dagger is the conjugate gate on
 * the column bits — so the state-vector kernels do all the work.
 */

#ifndef TRIQ_SIM_DENSITY_HH
#define TRIQ_SIM_DENSITY_HH

#include "device/device.hh"
#include "sim/statevector.hh"

namespace triq
{

/** A density matrix over up to maxQubits() qubits. */
class DensityMatrix
{
  public:
    /** Construct n qubits in |0...0><0...0|. */
    explicit DensityMatrix(int num_qubits);

    /** Largest register (the vectorized form uses 2n qubits). */
    static constexpr int maxQubits() { return StateVector::maxQubits() / 2; }

    int numQubits() const { return numQubits_; }

    /** Reset to the ground-state projector. */
    void reset();

    /** Apply a unitary IR gate: rho -> U rho U^dagger. */
    void applyGate(const Gate &g);

    /** Apply all unitary gates of a circuit (Measure skipped). */
    void applyCircuit(const Circuit &c);

    /**
     * Uniform Pauli channel on one qubit: with probability p, one of
     * {X, Y, Z} uniformly (the 1Q gate-error model of sim/noise.hh).
     */
    void applyPauliChannel1(int q, double p);

    /**
     * Uniform two-qubit Pauli channel: with probability p, one of the
     * fifteen non-identity Pauli pairs uniformly.
     */
    void applyPauliChannel2(int q0, int q1, double p);

    /** Dephasing: with probability p, Z (the idle-noise model). */
    void applyDephasing(int q, double p);

    /** Classical bit-flip on measurement outcomes is handled by the
     * caller (readout error acts on classical bits, not on rho). */

    /** Diagonal element <basis|rho|basis> (a probability). */
    double probability(uint64_t basis) const;

    /** Trace (1.0 for a valid state). */
    double trace() const;

    /**
     * Outcome distribution over `measured` qubits (ascending order
     * defines key bits, matching the executor's convention).
     */
    std::vector<double>
    measurementDistribution(const std::vector<ProgQubit> &measured) const;

  private:
    int numQubits_;
    StateVector vec_; // Vectorized rho over 2n qubits.

    /** Apply gate g on the row bits and conj(g) on the column bits. */
    void applyBothSides(const Gate &g);
};

/**
 * Exact success probability of a translated hardware circuit under the
 * same error sites the trajectory executor samples (gate Paulis, idle
 * dephasing, readout flips). The expectation of
 * executeNoisy(...).successRate converges to this value.
 *
 * @pre The circuit's active-qubit count is <= DensityMatrix::maxQubits().
 */
double exactSuccessProbability(const Circuit &hw, const Device &dev,
                               const Calibration &calib);

/**
 * For the same circuits and noise, the exact probability that each
 * observed key bit differs from the correct answer (element k for key
 * bit k), readout flips included: the density-matrix twin of
 * cliffordBitFlipProbabilities (sim/pauli_frame.hh), at any gate set.
 * Most faulty trials fail whether or not their replay is right, so a
 * replay bug moves these rates where it barely moves success.
 *
 * @pre As exactSuccessProbability.
 */
std::vector<double> exactBitFlipProbabilities(const Circuit &hw,
                                              const Device &dev,
                                              const Calibration &calib);

} // namespace triq

#endif // TRIQ_SIM_DENSITY_HH
