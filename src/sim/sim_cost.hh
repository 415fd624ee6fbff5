/**
 * @file
 * The simulator's memory cost model: how many bytes a noisy-simulation
 * run will commit. Every executeNoisy plan holds (1 + workers + K)
 * state vectors over the compact register: the cached ideal state, one
 * trajectory state per concurrent trial chunk and K ideal-prefix
 * checkpoints (checkpointCount). executeNoisy reserves exactly that
 * against the process ResourceGovernor before allocating. The Clifford
 * frame path holds the ideal state alone (workers = 0, K = 0); the
 * low-memory plan is workers = 1, K = 0. triqd admission (via
 * service/cost_model.hh) checks the one-state plan with the same
 * formula, so the layers cannot disagree about what fits.
 */

#ifndef TRIQ_SIM_SIM_COST_HH
#define TRIQ_SIM_SIM_COST_HH

#include <cstdint>

namespace triq
{

/**
 * Bytes of one state vector over `qubits` qubits (2^n amplitudes x
 * 16 B). Saturates at UINT64_MAX — a 72-qubit state is 2^76 bytes,
 * and a saturated prediction still compares correctly against any
 * real budget.
 */
uint64_t stateVectorBytes(int qubits);

/** Bytes of one density matrix over `qubits` qubits (4^n x 16 B). */
uint64_t densityMatrixBytes(int qubits);

/**
 * Ideal-prefix checkpoints executeNoisy keeps for a compact circuit of
 * `active_qubits` qubits and `num_gates` gates: the state after each
 * of the first K gates, K = min(num_gates - 1, 64 MiB / one state's
 * bytes). K is 0 once a single state exceeds 64 MiB.
 */
int checkpointCount(int active_qubits, int num_gates);

/**
 * Predicted peak committed bytes for executeNoisy over a compact
 * circuit of `active_qubits` qubits with `workers` trajectory states
 * (0 on the frame path) and `checkpoints` ideal-prefix checkpoints:
 * (1 + workers + checkpoints) state vectors.
 */
uint64_t predictSimulationBytes(int active_qubits, int workers,
                                int checkpoints);

} // namespace triq

#endif // TRIQ_SIM_SIM_COST_HH
