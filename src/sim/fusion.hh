/**
 * @file
 * Gate fusion: a pre-simulation pass that packs a circuit into dense
 * one- and two-qubit operators so each trajectory replay makes fewer
 * passes over the state vector.
 *
 * One rule, with no cost model: walking the circuit once, a unitary
 * gate joins the open operator while their union touches at most two
 * qubits and the operator holds fewer than 12 gates; otherwise the
 * operator closes and the gate opens the next one. Measure and Barrier
 * close the open operator and belong to none. Two qubits, not three: on
 * the 3-5 qubit states the paper's study cells replay, an 8x8 operator
 * costs more than the passes it saves (DESIGN.md, "Gate fusion").
 * Amplitudes agree with the gate-by-gate path to ~1e-15 per gate
 * (locked at <= 1e-12 by tests/test_fusion.cc).
 *
 * Each operator remembers the original gate range it covers and stores
 * its split operators, the products of its leading and of its trailing
 * gates, so the executor can still start or stop evolution at *any*
 * original gate index (checkpoints resume mid-circuit; Pauli faults
 * inject after a specific gate) without replaying a gate on its own.
 */

#ifndef TRIQ_SIM_FUSION_HH
#define TRIQ_SIM_FUSION_HH

#include <vector>

#include "core/circuit.hh"
#include "sim/statevector.hh"

namespace triq
{

/** What the fusion pass did to one circuit. */
struct FusionStats
{
    int gates = 0;      //!< Original gate count (incl. Measure/Barrier).
    int ops = 0;        //!< Fused operators.
    int dense1 = 0;     //!< Of those, 2x2 operators.
    int dense2 = 0;     //!< Of those, 4x4 operators.
    int fusedGates = 0; //!< Unitary gates the operators cover.

    /** Always 0; kept only because the triqbench `wide` workload reads it. */
    int tileRuns = 0;
};

/**
 * A circuit compiled for fast state-vector replay.
 *
 * Construction packs the operators once; apply() then replays any
 * original-gate range [from, to) against a StateVector. Each operator
 * the range covers, starts in or stops in costs one kernel pass (its
 * table, its split tail or its split head), and a range inside one
 * operator costs two: the adjoint of the head already applied, then
 * the head the range stops at. Measure and Barrier gates inside the
 * range are skipped (the executor samples measurements separately),
 * matching the unfused replay loop.
 */
class FusedProgram
{
  public:
    FusedProgram() = default;

    /**
     * Pack `c` into operators.
     * @throws PanicError when a gate acts on more than two qubits.
     */
    explicit FusedProgram(const Circuit &c);

    /** Apply original-gate range [from_gate, to_gate) to `sv`. */
    void apply(StateVector &sv, int from_gate, int to_gate) const;

    /** Apply the whole circuit (Measure gates skipped). */
    void applyAll(StateVector &sv) const;

    /** Original gate count (range bound for apply()). */
    int numGates() const { return stats_.gates; }

    const FusionStats &stats() const { return stats_; }

  private:
    /**
     * A dense operator on nq = 1 or 2 qubits covering original gates
     * [lo, hi). Its tables are row-major (2^nq)^2 matrices whose local
     * qubit i is q[i], ascending: entry j of `heads` is the product of
     * gates [lo, lo + j + 1), so the last one is the whole operator,
     * and entry j of `tails` that of gates [lo + j + 1, hi).
     */
    struct Op
    {
        int lo = 0;
        int hi = 0;
        int nq = 0;
        int q[2] = {0, 0};
        std::vector<Cplx> heads;
        std::vector<Cplx> tails;

        /** Table of the product of gates [lo, s), for lo < s <= hi. */
        const Cplx *head(int s) const;

        /** Table of the product of gates [s, hi), for lo < s < hi. */
        const Cplx *tail(int s) const;
    };

    void applyTable(StateVector &sv, const Op &op, const Cplx *m) const;

    std::vector<Op> ops_;
    std::vector<int> opOfGate_; //!< Gate index -> ops_ index, -1 if none.
    FusionStats stats_;
};

} // namespace triq

#endif // TRIQ_SIM_FUSION_HH
