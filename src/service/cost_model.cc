#include "service/cost_model.hh"

#include <sstream>

#include "common/resource.hh"

namespace triq
{

AdmissionVerdict
checkAdmission(int active_qubits)
{
    AdmissionVerdict v;
    ResourceGovernor &gov = processGovernor();
    v.budgetBytes = gov.budgetBytes();
    v.predictedBytes = predictSimulationBytes(active_qubits, 0, 0);
    if (gov.wouldFit(v.predictedBytes))
        return v;
    v.fits = false;
    std::ostringstream msg;
    msg << "predicted simulation memory "
        << formatBytes(v.predictedBytes)
        << " exceeds the memory budget " << formatBytes(v.budgetBytes);
    v.reason = msg.str();
    return v;
}

} // namespace triq
