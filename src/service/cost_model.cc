#include "service/cost_model.hh"

#include <sstream>

#include "common/resource.hh"

namespace triq
{

AdmissionVerdict
checkAdmission(int active_qubits, int workers)
{
    AdmissionVerdict v;
    ResourceGovernor &gov = processGovernor();
    v.budgetBytes = gov.budgetBytes();
    v.predictedBytes = predictSimulationBytes(active_qubits, workers);
    if (v.budgetBytes == 0 || gov.wouldFit(v.predictedBytes))
        return v;
    // The full plan does not fit, but the executor degrades to a
    // serial low-memory plan before giving up — admit iff that fits.
    uint64_t low = predictLowMemSimulationBytes(active_qubits);
    if (gov.wouldFit(low))
        return v;
    v.fits = false;
    std::ostringstream msg;
    msg << "predicted simulation memory "
        << formatBytes(v.predictedBytes) << " (" << formatBytes(low)
        << " degraded) exceeds the memory budget "
        << formatBytes(v.budgetBytes);
    v.reason = msg.str();
    return v;
}

} // namespace triq
