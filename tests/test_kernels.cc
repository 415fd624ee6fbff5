/**
 * @file
 * State-vector ceiling tests: the 30-qubit representation limit is
 * checked structurally (admission math, no giant allocation ever
 * happens in-process).
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/resource.hh"
#include "service/cost_model.hh"
#include "sim/sim_cost.hh"
#include "sim/statevector.hh"

namespace triq
{
namespace
{

TEST(Kernels, ThirtyQubitCeilingIsStructural)
{
    // The representation accepts 30 qubits; what actually runs is
    // decided by admission math, never by an allocator crash. A
    // 30-qubit state is 16 GiB — the test only does arithmetic.
    EXPECT_EQ(StateVector::maxQubits(), 30);
    EXPECT_THROW(StateVector(31), FatalError);
    EXPECT_EQ(stateVectorBytes(30), uint64_t{16} << 30);

    // Admission against a small budget rejects 30 qubits up front
    // (even the smallest plan, the frame path's one state, needs
    // 16 GiB)...
    ResourceGovernor tight(uint64_t{1} << 30);
    EXPECT_FALSE(tight.wouldFit(predictSimulationBytes(30, 0, 0)));
    // ...and the reservation path reports it structurally.
    EXPECT_THROW(tight.reserve(predictSimulationBytes(30, 0, 0),
                               "30-qubit simulation"),
                 ResourceError);

    // The service-level verdict carries the same numbers: a 30-qubit
    // simulate request against a tight process budget is refused with
    // a sized reason, not a bad_alloc.
    ResourceGovernor &gov = processGovernor();
    const uint64_t saved = gov.budgetBytes();
    gov.setBudgetBytes(uint64_t{1} << 30);
    AdmissionVerdict v = checkAdmission(30);
    gov.setBudgetBytes(saved);
    EXPECT_FALSE(v.fits);
    EXPECT_EQ(v.predictedBytes, stateVectorBytes(30));
    EXPECT_FALSE(v.reason.empty());

    // And with a roomy budget the same request is admitted — the
    // ceiling itself never rejects.
    gov.setBudgetBytes(uint64_t{128} << 30);
    AdmissionVerdict roomy = checkAdmission(30);
    gov.setBudgetBytes(saved);
    EXPECT_TRUE(roomy.fits);
}

} // namespace
} // namespace triq
