/**
 * @file
 * Stochastic-Pauli noise model for executing compiled circuits.
 *
 * Every physical operation of a translated circuit becomes an "error
 * site": with the calibrated error probability, a uniformly random
 * Pauli is injected after the gate (X/Y/Z for 1Q, one of the fifteen
 * non-identity two-qubit Paulis for 2Q). Readout errors flip measured
 * bits. Idle windows from the ASAP schedule become dephasing (Z) sites
 * with probability 1 - exp(-t_idle / T2), which is how the machines'
 * coherence times (Fig. 1) enter the simulation. noisyCircuit builds
 * the model the executor and both exact oracles consume.
 */

#ifndef TRIQ_SIM_NOISE_HH
#define TRIQ_SIM_NOISE_HH

#include <vector>

#include "common/rng.hh"
#include "core/circuit.hh"
#include "device/calibration.hh"
#include "device/topology.hh"

namespace triq
{

/**
 * One potential fault location in a circuit.
 *
 * A fired site injects the Pauli its *code* names (drawPauliCode):
 *  - an idle site always injects Z, code 0;
 *  - a 1Q site injects X, Y or Z on q0 for code 0, 1 or 2;
 *  - a 2Q site's code in [1, 15] holds the Pauli on q0 in bits 0-1 and
 *    the one on q1 in bits 2-3, each 0 = I, 1 = X, 2 = Y, 3 = Z.
 */
struct ErrorSite
{
    /** Gate index after which the fault (if sampled) is injected. */
    int gateIdx;

    /** Affected qubits (q1 = -1 for single-qubit sites). */
    int q0;
    int q1;

    /** Fault probability. */
    double prob;

    /** True for idle-dephasing sites (always inject Z). */
    bool idle;
};

/**
 * Enumerate the error sites of a translated hardware circuit:
 * per-gate fault sites (using gateErrorProb) plus idle-dephasing sites
 * from the schedule's gaps.
 */
std::vector<ErrorSite> collectErrorSites(const Circuit &hw,
                                         const Topology &topo,
                                         const Calibration &calib);

/** Probability that *no* site fires: product of (1 - prob). */
double noErrorProbability(const std::vector<ErrorSite> &sites);

/**
 * A hardware circuit's noise model on its active qubits, as executeNoisy
 * samples it and the density-matrix and Clifford oracles evaluate it.
 */
struct NoisyCircuit
{
    /** The circuit relabeled onto its active qubits (compactCircuit). */
    Circuit circuit;

    /** Its error sites (collectErrorSites), on the compact register. */
    std::vector<ErrorSite> sites;

    /** Measured compact qubits, ascending: key bit k is measured[k]. */
    std::vector<ProgQubit> measured;

    /** roErr[k]: the readout error of key bit k's hardware qubit. */
    std::vector<double> roErr;
};

/**
 * Build a translated circuit's NoisyCircuit. Its sites are enumerated
 * on the full-width circuit, where edge lookups need hardware indices.
 * @throws FatalError when the circuit measures no qubit.
 */
NoisyCircuit noisyCircuit(const Circuit &hw, const Topology &topo,
                          const Calibration &calib);

/** Codes a site can draw: every code is below this. */
constexpr int kPauliCodes = 16;

/**
 * Draw the Pauli code of a fired site. Idle sites consume no
 * randomness; 1Q sites draw a uniform X/Y/Z and 2Q sites a uniform
 * non-identity two-qubit Pauli.
 */
inline int
drawPauliCode(Rng &rng, const ErrorSite &s)
{
    if (s.idle)
        return 0;
    if (s.q1 == -1)
        return rng.uniformInt(3);
    return 1 + rng.uniformInt(15);
}

} // namespace triq

#endif // TRIQ_SIM_NOISE_HH
