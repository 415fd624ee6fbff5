/**
 * @file
 * Predictive per-request admission: estimate, *before any work
 * starts*, how much memory a simulation will commit, so triqd can
 * reject a request the process cannot afford with a structured
 * `server.budget` error instead of queueing it until the allocator (or
 * the kernel) kills the daemon.
 *
 * The memory formula lives in sim/sim_cost.hh: every executeNoisy plan
 * holds (1 + workers + K) state vectors and reserves exactly that.
 * Admission checks the smallest plan any run can take, the frame
 * path's one state, so it never refuses a request the executor could
 * run. See DESIGN.md, "Resource governor".
 */

#ifndef TRIQ_SERVICE_COST_MODEL_HH
#define TRIQ_SERVICE_COST_MODEL_HH

#include <cstdint>
#include <string>

#include "sim/sim_cost.hh"

namespace triq
{

/** One admission verdict; `fits` false means reject with the fields. */
struct AdmissionVerdict
{
    bool fits = true;
    uint64_t predictedBytes = 0; //!< Predicted peak committed memory.
    uint64_t budgetBytes = 0;    //!< Budget in force (0 = unlimited).
    std::string reason; //!< Human-readable rejection reason ("" = fits).
};

/**
 * Check a simulate request `active_qubits` wide against the process
 * memory budget. It fails only when the one-state plan
 * (predictSimulationBytes(active_qubits, 0, 0)) cannot fit.
 */
AdmissionVerdict checkAdmission(int active_qubits);

} // namespace triq

#endif // TRIQ_SERVICE_COST_MODEL_HH
