#include "sim/sim_cost.hh"

#include <algorithm>

namespace triq
{

namespace
{

constexpr uint64_t kSaturated = ~uint64_t{0};

uint64_t
satMul(uint64_t a, uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    return a > kSaturated / b ? kSaturated : a * b;
}

/** 2^`exp` bytes, saturated. */
uint64_t
satShift(int exp)
{
    return exp >= 64 ? kSaturated : uint64_t{1} << exp;
}

/** Most memory one run's ideal-prefix checkpoints may hold. */
constexpr uint64_t kCheckpointBudgetBytes = 64ull << 20;

} // namespace

uint64_t
stateVectorBytes(int qubits)
{
    if (qubits < 1)
        return 0;
    return satShift(qubits + 4); // 2^n amplitudes x 16 B
}

uint64_t
densityMatrixBytes(int qubits)
{
    if (qubits < 1)
        return 0;
    return satShift(2 * qubits + 4); // 4^n entries x 16 B
}

int
checkpointCount(int active_qubits, int num_gates)
{
    const uint64_t per_state =
        std::max<uint64_t>(stateVectorBytes(active_qubits), 1);
    const auto prefix = static_cast<uint64_t>(std::max(num_gates - 1, 0));
    return static_cast<int>(
        std::min(kCheckpointBudgetBytes / per_state, prefix));
}

uint64_t
predictSimulationBytes(int active_qubits, int workers, int checkpoints)
{
    const uint64_t states = 1 + static_cast<uint64_t>(std::max(workers, 0)) +
                            static_cast<uint64_t>(std::max(checkpoints, 0));
    return satMul(stateVectorBytes(active_qubits), states);
}

} // namespace triq
