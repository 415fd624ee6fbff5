/**
 * @file
 * The simulator's memory cost model: how many bytes a noisy-simulation
 * run will commit, as a pure function of qubit count and worker fan-out.
 * executeNoisy reserves exactly these predictions against the process
 * ResourceGovernor before allocating, and triqd admission (via
 * service/cost_model.hh) checks the same formulas — one model, so the
 * layers cannot disagree about what fits. Only the *trajectory*
 * fan-out multiplies memory: each concurrent chunk owns one state.
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
 * Ideal-prefix checkpoint spacing, in gates, for executeNoisy over a
 * compact circuit of `active_qubits` qubits and `num_gates` gates: the
 * smallest spacing whose snapshots (at most 1024) fit the 64 MiB
 * checkpoint budget, and at least 1. A circuit whose single state
 * fills the budget gets spacing `num_gates`, so it takes no snapshot.
 */
int checkpointSpacing(int active_qubits, int num_gates);

/**
 * Predicted peak committed bytes for executeNoisy over a compact
 * circuit of `active_qubits` qubits fanned out across `workers`
 * concurrent trial chunks: the cached ideal state, the one trajectory
 * state each running chunk allocates, and the checkpoint budget
 * (charged only when checkpointSpacing leaves room for a snapshot).
 */
uint64_t predictSimulationBytes(int active_qubits, int workers);

/**
 * Predicted bytes of the degraded low-memory plan: serial
 * trajectories, no checkpoints — the ideal state plus a single
 * trajectory state (~2 x stateVectorBytes). executeNoisy falls
 * back to this plan automatically when the full plan does not fit the
 * budget.
 */
uint64_t predictLowMemSimulationBytes(int active_qubits);

} // namespace triq

#endif // TRIQ_SIM_SIM_COST_HH
