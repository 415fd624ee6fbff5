#include "sim/fusion.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "core/unitary.hh"

namespace triq
{

namespace
{

/** Largest dense fused region, in qubits. */
constexpr int kMaxDenseQubits = 3;

/** Largest diagonal-run support, in qubits. */
constexpr int kMaxDiagonalQubits = 10;

/**
 * Largest original-gate span one fused operator may cover. An operator
 * of k gates also stores 2(k-1) split operators (see FusedProgram), so
 * the span bounds that storage: at most 22 tables of at most 64
 * amplitudes (22 KiB) per operator.
 */
constexpr int kMaxGatesPerOp = 12;

/**
 * Modeled cost of replaying one gate on the fused path, where dense
 * single-qubit gates (and XX) go through cached matrices and the fused
 * kernels (see FusedProgram::PlainRec) and the rest use the applyGate
 * fast paths. Calibrated from measured per-pass wall clock on a 2^8
 * state (RelWithDebInfo baseline, TRIQ_NATIVE_KERNELS fused kernels);
 * only relative magnitudes matter — the fusion pass compares these sums
 * against the fused-kernel costs below to decide whether fusing wins.
 */
double
plainGateCost(const Gate &g)
{
    switch (g.kind) {
      case GateKind::I:
        return 0.02; // no-op in applyGate; loop overhead only
      case GateKind::Cz:
        return 0.26;
      case GateKind::Cphase:
        return 0.35;
      case GateKind::Cnot:
        return 0.33;
      case GateKind::Swap:
        return 0.40;
      case GateKind::Xx:
        return 0.33; // cached 4x4 through applyFused2
      default:
        return 0.15; // any 1Q gate: cached 2x2 through applyFused1
    }
}

/** Modeled cost of one fused dense kernel pass (applyFused1/2/3). */
double
fusedDenseCost(int nq)
{
    switch (nq) {
      case 1:
        return 0.15;
      case 2:
        return 0.33;
      default:
        return 0.66;
    }
}

/** Modeled cost of one applyDiagonal pass over an nq-qubit table. */
double
fusedDiagCost(int nq)
{
    return 0.25 + 0.04 * nq;
}

/** Gates whose unitary is diagonal in the computational basis. */
bool
isDiagGate(GateKind k)
{
    switch (k) {
      case GateKind::I:
      case GateKind::Z:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::Rz:
      case GateKind::U1:
      case GateKind::Cz:
      case GateKind::Cphase:
        return true;
      default:
        return false;
    }
}

/** Sorted, deduplicated operand qubits of a gate. */
std::vector<int>
gateSupport(const Gate &g)
{
    std::vector<int> s;
    for (int i = 0; i < g.arity(); ++i)
        s.push_back(g.qubit(i));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
}

/** Sorted union of two sorted qubit lists. */
std::vector<int>
supportUnion(const std::vector<int> &a, const std::vector<int> &b)
{
    std::vector<int> u;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(u));
    return u;
}

/** Index of q in the sorted list `support`. @pre q is present. */
int
supportIndex(const std::vector<int> &support, int q)
{
    auto it = std::lower_bound(support.begin(), support.end(), q);
    return static_cast<int>(it - support.begin());
}

/**
 * Embed an a-qubit matrix into an n-qubit space: local bit i of `m`
 * lands at bit pos[i] of the embedded index; bits outside pos act as
 * identity. Row-major both ways.
 */
Matrix
embedAt(const Matrix &m, const std::vector<int> &pos, int n)
{
    const uint64_t dim = 1ull << n;
    const int a = static_cast<int>(pos.size());
    const uint64_t sub = 1ull << a;
    uint64_t mask = 0;
    for (int p : pos)
        mask |= 1ull << p;
    Matrix out(static_cast<int>(dim), static_cast<int>(dim));
    for (uint64_t c = 0; c < dim; ++c) {
        const uint64_t rest = c & ~mask;
        uint64_t mc = 0;
        for (int i = 0; i < a; ++i)
            mc |= ((c >> pos[i]) & 1) << i;
        for (uint64_t mr = 0; mr < sub; ++mr) {
            uint64_t r = rest;
            for (int i = 0; i < a; ++i)
                r |= ((mr >> i) & 1) << pos[i];
            out(static_cast<int>(r), static_cast<int>(c)) =
                m(static_cast<int>(mr), static_cast<int>(mc));
        }
    }
    return out;
}

/** A gate's unitary expressed over sorted support (bit k = support[k]). */
Matrix
gateMatrixOnSupport(const Gate &g, const std::vector<int> &support)
{
    Matrix gm = gateMatrix(g);
    std::vector<int> pos(g.arity());
    for (int i = 0; i < g.arity(); ++i)
        pos[i] = supportIndex(support, g.qubit(i));
    return embedAt(gm, pos, static_cast<int>(support.size()));
}

/**
 * Multiply a diagonal table over sorted `support` (bit k = support[k])
 * in place by diagonal gate g's phases.
 */
void
mulGateDiagonal(std::vector<Cplx> &table, const Gate &g,
                const std::vector<int> &support)
{
    if (g.kind == GateKind::I)
        return;
    Matrix gm = gateMatrix(g);
    std::vector<int> pos(g.arity());
    for (int o = 0; o < g.arity(); ++o)
        pos[o] = supportIndex(support, g.qubit(o));
    for (uint64_t l = 0; l < table.size(); ++l) {
        uint64_t local = 0;
        for (int o = 0; o < g.arity(); ++o)
            local |= ((l >> pos[o]) & 1) << o;
        table[l] *= gm(static_cast<int>(local), static_cast<int>(local));
    }
}

/**
 * The split operators of a fused op over original gates [lo, hi) and
 * sorted `support`, in the op's data layout (see FusedProgram::Op):
 * heads[s - lo - 1] is gates [lo, s) and tails[s - lo - 1] gates
 * [s, hi). Built incrementally, head(s + 1) = G_s head(s) and
 * tail(s) = tail(s + 1) G_s, so each costs one small product.
 */
void
buildSplits(const Circuit &c, int lo, int hi,
            const std::vector<int> &support, bool diag,
            std::vector<Cplx> &heads, std::vector<Cplx> &tails)
{
    const int k = hi - lo;
    const size_t dim = size_t{1} << support.size();
    const size_t n = diag ? dim : dim * dim;
    heads.resize(static_cast<size_t>(k - 1) * n);
    tails.resize(static_cast<size_t>(k - 1) * n);
    if (diag) {
        std::vector<Cplx> head(dim, Cplx(1.0, 0.0)), tail = head;
        for (int j = 0; j + 1 < k; ++j) {
            mulGateDiagonal(head, c.gate(lo + j), support);
            mulGateDiagonal(tail, c.gate(hi - 1 - j), support);
            std::copy(head.begin(), head.end(), heads.begin() + j * n);
            std::copy(tail.begin(), tail.end(),
                      tails.begin() + (k - 2 - j) * n);
        }
        return;
    }
    std::vector<Matrix> g;
    g.reserve(k);
    for (int gi = lo; gi < hi; ++gi)
        g.push_back(gateMatrixOnSupport(c.gate(gi), support));
    auto store = [&](std::vector<Cplx> &out, int idx, const Matrix &m) {
        Cplx *dst = out.data() + static_cast<size_t>(idx) * n;
        for (size_t r = 0; r < dim; ++r)
            for (size_t col = 0; col < dim; ++col)
                dst[r * dim + col] =
                    m(static_cast<int>(r), static_cast<int>(col));
    };
    Matrix head = g[0], tail = g[k - 1];
    for (int j = 0; j + 1 < k; ++j) {
        if (j > 0) {
            head = g[j] * head;
            tail = tail * g[k - 1 - j];
        }
        store(heads, j, head);
        store(tails, k - 2 - j, tail);
    }
}

/**
 * One unit of the fusion worklist: either a single original gate, a
 * fence (Measure/Barrier/composite), or a fused candidate carrying its
 * matrix/table over a sorted support.
 */
struct Item
{
    enum class Kind : uint8_t
    {
        Single, //!< One original gate, not (yet) fused.
        Fence,  //!< Unfusable gate; closes every run and region.
        Dense,  //!< Fused dense matrix over `support`.
        Diag,   //!< Fused diagonal table over `support`.
    };
    Kind kind = Kind::Single;
    int lo = 0;
    int hi = 0;
    std::vector<int> support;
    Matrix mat;             //!< Dense only.
    std::vector<Cplx> diag; //!< Diag only.
    double cost = 0.0;      //!< Modeled cost of emitting this item as-is.
    int gateCount = 0;      //!< Unitary gates absorbed.
};

/** True when the item has a unitary the region builder can multiply. */
bool
fusible(const Item &it)
{
    return it.kind != Item::Kind::Fence;
}

/**
 * Whether one fused operator may cover original gates [lo, hi): bounded
 * by the span cap, and never crossing an alignment boundary (checkpoint
 * interval) when one is set.
 */
bool
spanAllowed(int lo, int hi, int align)
{
    if (hi - lo > kMaxGatesPerOp)
        return false;
    if (align > 0 && lo / align != (hi - 1) / align)
        return false;
    return true;
}

/** The item's unitary over `support` (superset of the item's support). */
Matrix
itemMatrixOn(const Item &it, const Circuit &c,
             const std::vector<int> &support)
{
    if (it.kind == Item::Kind::Single)
        return gateMatrixOnSupport(c.gate(it.lo), support);
    std::vector<int> pos(it.support.size());
    for (size_t k = 0; k < it.support.size(); ++k)
        pos[k] = supportIndex(support, it.support[k]);
    if (it.kind == Item::Kind::Dense)
        return embedAt(it.mat, pos, static_cast<int>(support.size()));
    // Diag: expand the table into a diagonal matrix first.
    const int a = static_cast<int>(it.support.size());
    Matrix d(1 << a, 1 << a);
    for (int i = 0; i < (1 << a); ++i)
        d(i, i) = it.diag[i];
    return embedAt(d, pos, static_cast<int>(support.size()));
}

/**
 * Collapse runs of adjacent diagonal gates into one Diag item when the
 * single table pass is modeled cheaper than replaying the run. Runs
 * split when their union support would exceed kMaxDiagonalQubits or the
 * span limits. Single-qubit-support runs are left alone: the same-qubit
 * merge pass turns those into a cheaper 2x2.
 */
std::vector<Item>
collapseDiagonalRuns(std::vector<Item> items, const Circuit &c, int align)
{
    std::vector<Item> out;
    size_t i = 0;
    while (i < items.size()) {
        const Item &head = items[i];
        if (head.kind != Item::Kind::Single ||
            !isDiagGate(c.gate(head.lo).kind)) {
            out.push_back(std::move(items[i]));
            ++i;
            continue;
        }
        std::vector<int> support = head.support;
        double plain_cost = head.cost;
        size_t j = i + 1;
        while (j < items.size() && items[j].kind == Item::Kind::Single &&
               isDiagGate(c.gate(items[j].lo).kind) &&
               spanAllowed(head.lo, items[j].hi, align)) {
            std::vector<int> u = supportUnion(support, items[j].support);
            if (static_cast<int>(u.size()) > kMaxDiagonalQubits)
                break;
            support = std::move(u);
            plain_cost += items[j].cost;
            ++j;
        }
        if (j - i < 2 || support.size() < 2 ||
            fusedDiagCost(static_cast<int>(support.size())) >=
                plain_cost) {
            out.push_back(std::move(items[i]));
            ++i;
            continue;
        }
        Item fused;
        fused.kind = Item::Kind::Diag;
        fused.lo = items[i].lo;
        fused.hi = items[j - 1].hi;
        fused.support = support;
        fused.gateCount = static_cast<int>(j - i);
        fused.cost = fusedDiagCost(static_cast<int>(support.size()));
        fused.diag.assign(1ull << support.size(), Cplx(1.0, 0.0));
        for (size_t k = i; k < j; ++k)
            mulGateDiagonal(fused.diag, c.gate(items[k].lo), support);
        out.push_back(std::move(fused));
        i = j;
    }
    return out;
}

/**
 * Merge runs of >= 2 adjacent single-qubit gates on the same qubit into
 * one 2x2 Dense item (left-multiplied in program order).
 */
std::vector<Item>
mergeSameQubitRuns(std::vector<Item> items, const Circuit &c, int align)
{
    std::vector<Item> out;
    size_t i = 0;
    auto is1q = [&](const Item &it) {
        return it.kind == Item::Kind::Single && it.support.size() == 1 &&
               isOneQubitGate(c.gate(it.lo).kind);
    };
    while (i < items.size()) {
        if (!is1q(items[i])) {
            out.push_back(std::move(items[i]));
            ++i;
            continue;
        }
        const int q = items[i].support[0];
        size_t j = i + 1;
        while (j < items.size() && is1q(items[j]) &&
               items[j].support[0] == q &&
               spanAllowed(items[i].lo, items[j].hi, align))
            ++j;
        if (j - i < 2) {
            out.push_back(std::move(items[i]));
            ++i;
            continue;
        }
        Item fused;
        fused.kind = Item::Kind::Dense;
        fused.lo = items[i].lo;
        fused.hi = items[j - 1].hi;
        fused.support = {q};
        fused.gateCount = static_cast<int>(j - i);
        fused.cost = fusedDenseCost(1);
        fused.mat = Matrix::identity(2);
        for (size_t k = i; k < j; ++k)
            fused.mat = gateMatrix(c.gate(items[k].lo)) * fused.mat;
        out.push_back(std::move(fused));
        i = j;
    }
    return out;
}

/**
 * Greedy dense-region fusion: grow a contiguous region while its union
 * support stays within max_qubits, then fuse the whole region into one
 * DenseN item when the kernel's modeled cost beats replaying the items
 * it absorbs. Called with max_qubits = 2 and then 3, so profitable
 * 2-qubit blocks form first and become units for 3-qubit growth.
 */
std::vector<Item>
fuseDenseRegions(std::vector<Item> items, const Circuit &c, int max_qubits,
                 int align)
{
    std::vector<Item> out;
    size_t i = 0;
    while (i < items.size()) {
        if (!fusible(items[i]) ||
            static_cast<int>(items[i].support.size()) > max_qubits) {
            out.push_back(std::move(items[i]));
            ++i;
            continue;
        }
        std::vector<int> support = items[i].support;
        double plain_cost = items[i].cost;
        int gate_count = items[i].gateCount;
        size_t j = i + 1;
        while (j < items.size() && fusible(items[j]) &&
               spanAllowed(items[i].lo, items[j].hi, align)) {
            std::vector<int> u = supportUnion(support, items[j].support);
            if (static_cast<int>(u.size()) > max_qubits)
                break;
            support = std::move(u);
            plain_cost += items[j].cost;
            gate_count += items[j].gateCount;
            ++j;
        }
        const double fused_cost =
            fusedDenseCost(static_cast<int>(support.size()));
        if (j - i < 2 || gate_count < 2 || fused_cost >= plain_cost) {
            out.push_back(std::move(items[i]));
            ++i;
            continue;
        }
        Item fused;
        fused.kind = Item::Kind::Dense;
        fused.lo = items[i].lo;
        fused.hi = items[j - 1].hi;
        fused.support = support;
        fused.gateCount = gate_count;
        fused.cost = fused_cost;
        fused.mat = Matrix::identity(1 << support.size());
        for (size_t k = i; k < j; ++k)
            fused.mat = itemMatrixOn(items[k], c, support) * fused.mat;
        out.push_back(std::move(fused));
        i = j;
    }
    return out;
}

} // namespace

FusedProgram::FusedProgram(const Circuit &c, int align) : circuit_(c)
{
    // Precompile the per-gate path (Pass ops, wide diagonal runs, ranges
    // inside one op): cache the 2x2 (or XX 4x4) unitaries once so those
    // replays go through the fused kernels instead of allocating a
    // Matrix per gate per trajectory.
    plain_.resize(c.numGates());
    for (int gi = 0; gi < c.numGates(); ++gi) {
        const Gate &g = c.gate(gi);
        PlainRec &rec = plain_[gi];
        if (g.kind == GateKind::Measure || g.kind == GateKind::Barrier ||
            g.kind == GateKind::I) {
            rec.kind = PlainRec::Kind::Skip;
            continue;
        }
        const bool cache1 = isUnitaryGate(g.kind) && g.arity() == 1;
        const bool cache2 = g.kind == GateKind::Xx;
        if (!cache1 && !cache2) {
            rec.kind = PlainRec::Kind::Native;
            continue;
        }
        rec.kind = cache1 ? PlainRec::Kind::Mat1 : PlainRec::Kind::Mat2;
        rec.q0 = g.qubit(0);
        rec.q1 = cache2 ? g.qubit(1) : 0;
        rec.mat = static_cast<int>(matPool_.size());
        const Matrix gm = gateMatrix(g);
        for (int r = 0; r < gm.rows(); ++r)
            for (int col = 0; col < gm.cols(); ++col)
                matPool_.push_back(gm(r, col));
    }

    // Worklist of single-gate items; Measure/Barrier and any 3Q
    // composite that escaped decomposition are fences.
    std::vector<Item> items;
    items.reserve(c.numGates());
    for (int gi = 0; gi < c.numGates(); ++gi) {
        const Gate &g = c.gate(gi);
        Item it;
        it.lo = gi;
        it.hi = gi + 1;
        if (!isUnitaryGate(g.kind) || isCompositeGate(g.kind)) {
            it.kind = Item::Kind::Fence;
        } else {
            it.kind = Item::Kind::Single;
            it.support = gateSupport(g);
            it.cost = plainGateCost(g);
            it.gateCount = 1;
        }
        items.push_back(std::move(it));
    }

    items = collapseDiagonalRuns(std::move(items), circuit_, align);
    items = mergeSameQubitRuns(std::move(items), circuit_, align);
    for (int limit = 2; limit <= kMaxDenseQubits; ++limit)
        items = fuseDenseRegions(std::move(items), circuit_, limit, align);

    // Emit ops: fused items become kernels, everything else coalesces
    // into Pass ranges replayed gate by gate.
    double plain_total = 0.0;
    for (const Gate &g : c.gates())
        if (isUnitaryGate(g.kind))
            plain_total += plainGateCost(g);
    double fused_total = 0.0;

    auto flushPass = [&](int lo, int hi) {
        if (lo >= hi)
            return;
        Op op;
        op.kind = Op::Kind::Pass;
        op.lo = lo;
        op.hi = hi;
        for (int gi = lo; gi < hi; ++gi)
            if (isUnitaryGate(c.gate(gi).kind))
                fused_total += plainGateCost(c.gate(gi));
        ops_.push_back(std::move(op));
        ++stats_.passthrough;
    };

    int pass_lo = 0;
    for (const Item &it : items) {
        const bool fused_dense =
            it.kind == Item::Kind::Dense &&
            static_cast<int>(it.support.size()) <= 3;
        const bool fused_diag = it.kind == Item::Kind::Diag;
        if (!fused_dense && !fused_diag)
            continue;
        flushPass(pass_lo, it.lo);
        pass_lo = it.hi;
        Op op;
        op.lo = it.lo;
        op.hi = it.hi;
        op.nq = static_cast<int>(it.support.size());
        if (fused_diag) {
            op.kind = Op::Kind::Diag;
            op.qs = it.support;
            op.data = it.diag;
            fused_total += fusedDiagCost(op.nq);
            ++stats_.diagonal;
            if (op.nq <= 3)
                buildSplits(c, op.lo, op.hi, it.support, true, op.heads,
                            op.tails);
            else
                ++stats_.wideDiagonal;
        } else {
            op.kind = op.nq == 1   ? Op::Kind::Dense1
                      : op.nq == 2 ? Op::Kind::Dense2
                                   : Op::Kind::Dense3;
            for (int k = 0; k < op.nq; ++k)
                op.q[k] = it.support[k];
            const int dim = 1 << op.nq;
            op.data.resize(static_cast<size_t>(dim) * dim);
            for (int r = 0; r < dim; ++r)
                for (int col = 0; col < dim; ++col)
                    op.data[static_cast<size_t>(r) * dim + col] =
                        it.mat(r, col);
            fused_total += fusedDenseCost(op.nq);
            buildSplits(c, op.lo, op.hi, it.support, false, op.heads,
                        op.tails);
            if (op.nq == 1)
                ++stats_.dense1;
            else if (op.nq == 2)
                ++stats_.dense2;
            else
                ++stats_.dense3;
        }
        stats_.fusedGates += it.gateCount;
        ops_.push_back(std::move(op));
    }
    flushPass(pass_lo, c.numGates());

    // Ops are emitted in gate order and tile [0, numGates) exactly.
    std::sort(ops_.begin(), ops_.end(),
              [](const Op &a, const Op &b) { return a.lo < b.lo; });
    opOfGate_.assign(c.numGates(), 0);
    int expect = 0;
    for (size_t oi = 0; oi < ops_.size(); ++oi) {
        if (ops_[oi].lo != expect)
            panic("FusedProgram: op ranges do not tile the circuit");
        for (int gi = ops_[oi].lo; gi < ops_[oi].hi; ++gi)
            opOfGate_[gi] = static_cast<int>(oi);
        expect = ops_[oi].hi;
    }
    if (expect != c.numGates())
        panic("FusedProgram: op ranges do not cover the circuit");

    stats_.gates = c.numGates();
    stats_.ops = static_cast<int>(ops_.size());
    stats_.modeledCostRatio =
        plain_total > 0.0 ? fused_total / plain_total : 1.0;
}

void
FusedProgram::applyPlainRange(StateVector &sv, int lo, int hi) const
{
    for (int gi = lo; gi < hi; ++gi) {
        const PlainRec &rec = plain_[gi];
        switch (rec.kind) {
          case PlainRec::Kind::Skip:
            break;
          case PlainRec::Kind::Mat1:
            sv.applyFused1(matPool_.data() + rec.mat, rec.q0);
            break;
          case PlainRec::Kind::Mat2:
            sv.applyFused2(matPool_.data() + rec.mat, rec.q0, rec.q1);
            break;
          case PlainRec::Kind::Native:
            sv.applyGate(circuit_.gate(gi));
            break;
        }
    }
}

void
FusedProgram::applyOp(StateVector &sv, const Op &op) const
{
    if (op.kind == Op::Kind::Pass)
        applyPlainRange(sv, op.lo, op.hi);
    else
        applyTable(sv, op, op.data.data());
}

void
FusedProgram::applyTable(StateVector &sv, const Op &op,
                         const Cplx *m) const
{
    switch (op.kind) {
      case Op::Kind::Dense1:
        sv.applyFused1(m, op.q[0]);
        break;
      case Op::Kind::Dense2:
        sv.applyFused2(m, op.q[0], op.q[1]);
        break;
      case Op::Kind::Dense3:
        sv.applyFused3(m, op.q[0], op.q[1], op.q[2]);
        break;
      case Op::Kind::Diag:
        sv.applyDiagonal(m, op.qs.data(), op.nq);
        break;
      case Op::Kind::Pass:
        panic("FusedProgram::applyTable: Pass op has no table");
    }
}

void
FusedProgram::apply(StateVector &sv, int from_gate, int to_gate) const
{
    from_gate = std::max(from_gate, 0);
    to_gate = std::min(to_gate, numGates());
    int gi = from_gate;
    while (gi < to_gate) {
        const Op &op = ops_[opOfGate_[gi]];
        if (gi == op.lo && op.hi <= to_gate) {
            applyOp(sv, op);
            gi = op.hi;
        } else {
            // The range starts or stops inside this op: one pass of its
            // split tail or head, or of its original gates for just the
            // overlap when it has no splits or the range lies inside it.
            const int stop = std::min(op.hi, to_gate);
            const size_t n = op.data.size();
            if (op.heads.empty() || (gi != op.lo && stop != op.hi))
                applyPlainRange(sv, gi, stop);
            else if (gi == op.lo)
                applyTable(sv, op, op.heads.data() + (stop - op.lo - 1) * n);
            else
                applyTable(sv, op, op.tails.data() + (gi - op.lo - 1) * n);
            gi = stop;
        }
    }
}

void
FusedProgram::applyAll(StateVector &sv) const
{
    apply(sv, 0, numGates());
}

} // namespace triq
