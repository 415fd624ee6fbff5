/**
 * @file
 * Pauli propagation through Clifford circuits: the conjugation rules of
 * Aaronson and Gottesman, as used by Stim (Gidney, "Stim: a fast
 * stabilizer circuit simulator", Quantum 5, 497, 2021).
 *
 * When every gate of a circuit is Clifford, a Pauli fault injected
 * after some gate is still a Pauli at the end, so it flips a fixed set
 * of measured bits. Sweeping each measured qubit's Z backwards through
 * the circuit gives that set for every (error site, Pauli code) pair of
 * the noise model (sim/noise.hh). Two users:
 *  - the executor's Clifford frame path (sim/executor.cc): a faulty
 *    trial's key is the correct answer XOR the masks of its faults, so
 *    no trial replays a state vector;
 *  - cliffordSuccessProbability, an exact oracle for such circuits at
 *    any width, independent of the state-vector kernels it checks.
 *
 * Nothing here touches a state vector. A Pauli is a pair of bit masks
 * over the compact register, so registers of up to 64 qubits are
 * representable, and gates are recognised as Clifford from their
 * matrices (gateMatrix, core/unitary.hh).
 */

#ifndef TRIQ_SIM_PAULI_FRAME_HH
#define TRIQ_SIM_PAULI_FRAME_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/circuit.hh"
#include "device/device.hh"
#include "sim/noise.hh"

namespace triq
{

/**
 * A Pauli operator up to phase: bit q of `x` (`z`) is set when it acts
 * on qubit q with an X (Z) component, so Y sets both.
 */
struct PauliMask
{
    uint64_t x = 0;
    uint64_t z = 0;
};

/**
 * How a Clifford gate conjugates the Paulis on its operands: element 2a
 * is U^dagger X_a U and element 2a + 1 is U^dagger Z_a U, phases
 * dropped, as masks over the operands (operand a = bit a).
 *
 * A gate is accepted when each of those products equals a unit-phased
 * Pauli entrywise within 1e-12. That tolerance is linear in angle
 * error, so a rotation 1e-9 rad off a multiple of pi/2 is rejected; a
 * test on |trace| would be quadratic in it and admit gates far further
 * off Clifford.
 *
 * @pre isUnitaryGate(g.kind).
 * @return The images, or nullopt when g is not Clifford.
 */
std::optional<std::vector<PauliMask>> cliffordImages(const Gate &g);

/** The fault table of a Clifford circuit (see pauliFlipTable). */
struct FlipTable
{
    /**
     * flips[kPauliCodes * s + code]: the measured key bits that the
     * Pauli `code` (ErrorSite's code convention) of site s flips. Codes
     * the site never draws read 0.
     */
    std::vector<uint64_t> flips;

    /**
     * True when every measured Z conjugates back to a product of Zs,
     * which |0...0> fixes: the ideal measured outcome is deterministic,
     * and executeNoisy takes the frame path.
     */
    bool deterministic = false;
};

/**
 * Sweep each measured qubit's Z backwards through `circuit`, and record
 * for every error site and Pauli code which measured bits the fault
 * flips. Measure and Barrier are the identity (measurements are
 * terminal).
 *
 * @param circuit A compact circuit.
 * @param sites Its error sites, on the same qubits.
 * @param measured Measured qubits; key bit k is measured[k].
 * @return The table, or nullopt when some gate is not Clifford or the
 *         circuit has more than 64 qubits.
 */
std::optional<FlipTable>
pauliFlipTable(const Circuit &circuit, const std::vector<ErrorSite> &sites,
               const std::vector<ProgQubit> &measured);

/**
 * Exact success probability of a Clifford hardware circuit with a
 * deterministic ideal output, under the error sites and readout errors
 * executeNoisy samples (the value exactSuccessProbability computes by
 * density matrix, at any width).
 *
 * A trial succeeds when its fired flip masks and readout flips XOR to
 * zero. That probability is a Walsh-Hadamard sum over the 2^m measured
 * keys u of a product of per-site characters. By linearity each site's
 * sum over its codes collapses: over a 2Q site's 15 codes,
 * sum chi_u = 16 [u orthogonal to its 4 generator masks] - 1 (4 and 3
 * for a 1Q site), so the cost is O(2^m x sites).
 *
 * @return The probability, or nullopt when the circuit is not Clifford
 *         or its ideal measured outcome is not deterministic.
 */
std::optional<double> cliffordSuccessProbability(const Circuit &hw,
                                                 const Device &dev,
                                                 const Calibration &calib);

/**
 * For the same circuits, the exact probability that each measured key
 * bit differs from the correct answer (element k for key bit k), in
 * O(m x sites). A replay bug that scrambles faulty trajectories moves
 * these even where it barely moves the success rate, because most
 * faulty trials fail either way.
 *
 * @return The probabilities, or nullopt as cliffordSuccessProbability.
 */
std::optional<std::vector<double>>
cliffordBitFlipProbabilities(const Circuit &hw, const Device &dev,
                             const Calibration &calib);

} // namespace triq

#endif // TRIQ_SIM_PAULI_FRAME_HH
