#include "sim/fusion.hh"

#include <algorithm>
#include <complex>

#include "common/logging.hh"
#include "core/unitary.hh"

namespace triq
{

namespace
{

/**
 * Most original gates one operator may cover. An operator of k gates
 * also stores 2(k - 1) split tables, so the cap bounds that storage: at
 * most 22 tables of at most 16 amplitudes (5.5 KiB) per operator.
 */
constexpr int kMaxGatesPerOp = 12;

/**
 * Add g's operands to the ascending support q[0..nq) when the union
 * stays within two qubits.
 * @return false, leaving q and nq as they were, when it would not.
 */
bool
joinSupport(int (&q)[2], int &nq, const Gate &g)
{
    int u[2] = {q[0], q[1]};
    int m = nq;
    for (int i = 0; i < g.arity(); ++i) {
        if (std::find(u, u + m, g.qubit(i)) != u + m)
            continue;
        if (m == 2)
            return false;
        u[m++] = g.qubit(i);
    }
    if (m == 2 && u[0] > u[1])
        std::swap(u[0], u[1]);
    q[0] = u[0];
    q[1] = u[1];
    nq = m;
    return true;
}

/** Copy `m` into `out` as table `idx` of m.rows()^2 entries, row-major. */
void
storeTable(std::vector<Cplx> &out, int idx, const Matrix &m)
{
    const int dim = m.rows();
    Cplx *dst = out.data() + static_cast<size_t>(idx * dim * dim);
    for (int r = 0; r < dim; ++r)
        for (int col = 0; col < dim; ++col)
            dst[r * dim + col] = m(r, col);
}

} // namespace

FusedProgram::FusedProgram(const Circuit &c)
{
    const int n = c.numGates();
    opOfGate_.assign(n, -1);

    // One walk: a unitary gate joins the open operator while their union
    // support stays within two qubits and the span cap; Measure and
    // Barrier close it and belong to none.
    int open = -1;
    for (int gi = 0; gi < n; ++gi) {
        const Gate &g = c.gate(gi);
        if (!isUnitaryGate(g.kind)) {
            open = -1;
            continue;
        }
        if (g.arity() > 2)
            panic("FusedProgram: ", g.str(), " acts on more than two qubits");
        if (open < 0 || gi - ops_[open].lo == kMaxGatesPerOp ||
            !joinSupport(ops_[open].q, ops_[open].nq, g)) {
            Op op;
            op.lo = gi;
            joinSupport(op.q, op.nq, g);
            ops_.push_back(std::move(op));
            open = static_cast<int>(ops_.size()) - 1;
        }
        ops_[open].hi = gi + 1;
        opOfGate_[gi] = open;
    }

    // Each operator's heads and tails over its own support, each gate
    // relabeled onto local qubits 0 and 1 and built incrementally:
    // head(s + 1) = G_s head(s) and tail(s) = tail(s + 1) G_s.
    for (Op &op : ops_) {
        std::vector<Matrix> g;
        for (int gi = op.lo; gi < op.hi; ++gi) {
            Gate local = c.gate(gi);
            for (int i = 0; i < local.arity(); ++i)
                local.qubits[i] = local.qubit(i) == op.q[0] ? 0 : 1;
            g.push_back(embedGate(op.nq, local));
        }
        const int k = op.hi - op.lo;
        const size_t table = size_t{1} << (2 * op.nq);
        op.heads.resize(static_cast<size_t>(k) * table);
        op.tails.resize(static_cast<size_t>(k - 1) * table);
        Matrix head = g[0], tail = g[k - 1];
        storeTable(op.heads, 0, head);
        for (int j = 1; j < k; ++j) {
            if (j > 1)
                tail = tail * g[k - j];
            head = g[j] * head;
            storeTable(op.heads, j, head);
            storeTable(op.tails, k - 1 - j, tail);
        }
        ++(op.nq == 1 ? stats_.dense1 : stats_.dense2);
        stats_.fusedGates += k;
    }
    stats_.gates = n;
    stats_.ops = static_cast<int>(ops_.size());
}

const Cplx *
FusedProgram::Op::head(int s) const
{
    return heads.data() + (static_cast<size_t>(s - lo - 1) << (2 * nq));
}

const Cplx *
FusedProgram::Op::tail(int s) const
{
    return tails.data() + (static_cast<size_t>(s - lo - 1) << (2 * nq));
}

void
FusedProgram::applyTable(StateVector &sv, const Op &op,
                         const Cplx *m) const
{
    if (op.nq == 1)
        sv.applyFused1(m, op.q[0]);
    else
        sv.applyFused2(m, op.q[0], op.q[1]);
}

void
FusedProgram::apply(StateVector &sv, int from_gate, int to_gate) const
{
    from_gate = std::max(from_gate, 0);
    to_gate = std::min(to_gate, numGates());
    int gi = from_gate;
    while (gi < to_gate) {
        if (opOfGate_[gi] < 0) {
            ++gi; // Measure or Barrier
            continue;
        }
        const Op &op = ops_[opOfGate_[gi]];
        const int stop = std::min(op.hi, to_gate);
        if (gi == op.lo) {
            applyTable(sv, op, op.head(stop));
        } else if (stop == op.hi) {
            applyTable(sv, op, op.tail(gi));
        } else {
            // Inside one operator: undo the head already applied, then
            // apply the head the range stops at.
            const int dim = 1 << op.nq;
            const Cplx *h = op.head(gi);
            Cplx adjoint[16];
            for (int r = 0; r < dim; ++r)
                for (int col = 0; col < dim; ++col)
                    adjoint[r * dim + col] = std::conj(h[col * dim + r]);
            applyTable(sv, op, adjoint);
            applyTable(sv, op, op.head(stop));
        }
        gi = stop;
    }
}

void
FusedProgram::applyAll(StateVector &sv) const
{
    apply(sv, 0, numGates());
}

} // namespace triq
