/**
 * @file
 * Gate fusion: a pre-simulation pass that rewrites a circuit into a
 * shorter sequence of fused operators so each trajectory replay makes
 * fewer passes over the state vector.
 *
 * Three rewrites, all semantics-preserving (amplitudes agree with the
 * gate-by-gate path to ~1e-15 per gate; locked at <= 1e-12 by
 * tests/test_fusion.cc):
 *  - runs of adjacent diagonal gates (Z/S/Sdg/T/Tdg/Rz/U1/CZ/Cphase)
 *    collapse into one diagonal table applied in a single pass;
 *  - runs of adjacent single-qubit gates on the same qubit merge into
 *    one 2x2 unitary;
 *  - small contiguous regions whose gates touch at most 2 (or 3)
 *    qubits fuse into one dense unitary applied by the fused kernels
 *    in sim/statevector.hh, when a pass-count cost model says the
 *    fused form is cheaper.
 *
 * Fused operators remember the original gate range they cover, so the
 * executor can still start or stop evolution at *any* original gate
 * index (checkpoints resume mid-circuit; Pauli faults inject after a
 * specific gate). Each fused operator also stores its split operators,
 * the products of its leading and trailing gates, so a range that
 * starts or stops inside it still costs one kernel pass. Operator
 * boundaries therefore follow the cost model alone, never the
 * executor's checkpoints.
 */

#ifndef TRIQ_SIM_FUSION_HH
#define TRIQ_SIM_FUSION_HH

#include <cstdint>
#include <vector>

#include "core/circuit.hh"
#include "sim/statevector.hh"

namespace triq
{

/** What the fusion pass did to one circuit. */
struct FusionStats
{
    int gates = 0;       //!< Original gate count (incl. Measure/Barrier).
    int ops = 0;         //!< Emitted fused-op count.
    int dense1 = 0;      //!< Fused 2x2 operators.
    int dense2 = 0;      //!< Fused 4x4 operators.
    int dense3 = 0;      //!< Fused 8x8 operators.
    int diagonal = 0;    //!< Collapsed diagonal runs.
    int wideDiagonal = 0; //!< Of those, runs over > 3 qubits (no splits).
    int passthrough = 0; //!< Ops that replay original gates unchanged.
    int fusedGates = 0;  //!< Gates absorbed into fused operators.

    /** Always 0; kept only because the triqbench `wide` workload reads it. */
    int tileRuns = 0;

    /** Modeled cost ratio fused/unfused (passes over the state). */
    double modeledCostRatio = 1.0;
};

/**
 * A circuit compiled for fast state-vector replay.
 *
 * Construction runs the fusion pass once; apply() then replays any
 * original-gate range [from, to) against a StateVector. An operator the
 * range covers completely costs one kernel pass. So does one the range
 * only starts or stops inside, through its split tail or head (dense
 * operators, and diagonal ones over at most 3 qubits). Original gates
 * replay one by one only for Pass ops, wider diagonal ops, and a range
 * that starts and stops inside one operator. Measure gates inside the
 * range are skipped (the executor samples measurements separately),
 * matching the unfused replay loop.
 */
class FusedProgram
{
  public:
    FusedProgram() = default;

    /** Fuse `c` (kept by copy, so the program owns its fallback path). */
    explicit FusedProgram(const Circuit &c);

    /** Apply original-gate range [from_gate, to_gate) to `sv`. */
    void apply(StateVector &sv, int from_gate, int to_gate) const;

    /** Apply the whole circuit (Measure gates skipped). */
    void applyAll(StateVector &sv) const;

    /** Original gate count (range bound for apply()). */
    int numGates() const { return circuit_.numGates(); }

    const FusionStats &stats() const { return stats_; }

    /** The original circuit the program was built from. */
    const Circuit &circuit() const { return circuit_; }

  private:
    struct Op
    {
        enum class Kind : uint8_t
        {
            Pass,   //!< Replay original gates in [lo, hi).
            Dense1, //!< 2x2 matrix on q[0].
            Dense2, //!< 4x4 matrix on q[0] (bit 0), q[1] (bit 1).
            Dense3, //!< 8x8 matrix on q[0..2].
            Diag,   //!< Diagonal table over q[0..nq).
        };
        Kind kind = Kind::Pass;
        int lo = 0; //!< First original gate covered.
        int hi = 0; //!< One past the last original gate covered.
        int nq = 0;
        int q[3] = {0, 0, 0};   //!< Dense operands, ascending (bit i = q[i]).
        std::vector<int> qs;    //!< Diag support, ascending (bit k = qs[k]).
        std::vector<Cplx> data; //!< Row-major matrix or diagonal table.

        /**
         * Split operators, each in the layout of `data`: for
         * lo < s < hi, entry s - lo - 1 of `heads` is the product of
         * gates [lo, s) and that of `tails` the product of gates
         * [s, hi). Empty for Pass ops and Diag ops over > 3 qubits.
         */
        std::vector<Cplx> heads;
        std::vector<Cplx> tails;
    };

    /**
     * How applyPlainRange applies one original gate: for Pass ops, Diag
     * ops over > 3 qubits, and ranges that start and stop inside one
     * op. Dense single-qubit gates (and XX) cache their unitary at
     * fusion time so these replays hit the fused kernels instead of
     * re-deriving a heap-allocated Matrix per gate.
     */
    struct PlainRec
    {
        enum class Kind : uint8_t
        {
            Skip,   //!< Measure/Barrier/I: nothing to apply.
            Native, //!< StateVector::applyGate fast path (CNOT, CZ, ...).
            Mat1,   //!< applyFused1 with the cached 2x2 at matPool_[mat].
            Mat2,   //!< applyFused2 with the cached 4x4 at matPool_[mat].
        };
        Kind kind = Kind::Native;
        int q0 = 0;
        int q1 = 0;
        int mat = -1; //!< Offset into matPool_ (Mat1/Mat2 only).
    };

    void applyOp(StateVector &sv, const Op &op) const;
    void applyTable(StateVector &sv, const Op &op, const Cplx *m) const;
    void applyPlainRange(StateVector &sv, int lo, int hi) const;

    Circuit circuit_;
    std::vector<Op> ops_;
    std::vector<int> opOfGate_; //!< gate index -> index into ops_.
    std::vector<PlainRec> plain_; //!< One record per original gate.
    std::vector<Cplx> matPool_;   //!< Cached fallback matrices, row-major.
    FusionStats stats_;
};

} // namespace triq

#endif // TRIQ_SIM_FUSION_HH
