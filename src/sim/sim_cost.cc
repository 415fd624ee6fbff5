#include "sim/sim_cost.hh"

#include <algorithm>

namespace triq
{

namespace
{

constexpr uint64_t kSaturated = ~uint64_t{0};

uint64_t
satAdd(uint64_t a, uint64_t b)
{
    return a > kSaturated - b ? kSaturated : a + b;
}

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

/**
 * Snapshot memory for executeNoisy's ideal-prefix checkpoints:
 * checkpointSpacing fits the snapshots into it, and a circuit whose
 * single state fills it gets no checkpoints at all.
 */
constexpr uint64_t kCheckpointBudgetBytes = 64ull << 20;

/** Most snapshots one run takes, however small its state. */
constexpr uint64_t kMaxCheckpoints = 1024;

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
checkpointSpacing(int active_qubits, int num_gates)
{
    const uint64_t per_state =
        std::max<uint64_t>(stateVectorBytes(active_qubits), 1);
    const int max_ckpts = static_cast<int>(std::clamp<uint64_t>(
        kCheckpointBudgetBytes / per_state, 1, kMaxCheckpoints));
    return std::max(1, (num_gates + max_ckpts - 1) / max_ckpts);
}

uint64_t
predictSimulationBytes(int active_qubits, int workers)
{
    uint64_t per_state = stateVectorBytes(active_qubits);
    uint64_t w = static_cast<uint64_t>(std::max(workers, 1));
    uint64_t states = satMul(per_state, satAdd(1, w));
    uint64_t ckpts =
        per_state < kCheckpointBudgetBytes ? kCheckpointBudgetBytes : 0;
    return satAdd(states, ckpts);
}

uint64_t
predictLowMemSimulationBytes(int active_qubits)
{
    return satMul(stateVectorBytes(active_qubits), 2);
}

} // namespace triq
