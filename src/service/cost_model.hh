/**
 * @file
 * Predictive per-request admission: estimate, *before any work
 * starts*, how much memory a simulation will commit, so triqd can
 * reject a request the process cannot afford with a structured
 * `server.budget` error instead of queueing it until the allocator (or
 * the kernel) kills the daemon.
 *
 * The memory formulas live in sim/sim_cost.hh — executeNoisy reserves
 * exactly what admission checks, so the layers cannot disagree. See
 * DESIGN.md, "Resource governor", for the formulas.
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
 * Check a simulate request against the process memory budget:
 * `active_qubits` wide, fanned out over `workers` chunks. Considers the
 * executor's degraded low-memory plan before rejecting: a request only
 * fails admission when even the fallback cannot fit.
 */
AdmissionVerdict checkAdmission(int active_qubits, int workers);

} // namespace triq

#endif // TRIQ_SERVICE_COST_MODEL_HH
