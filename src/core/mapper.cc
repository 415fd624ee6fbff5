#include "core/mapper.hh"

#include "core/mapper_smt.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <span>

#include "common/logging.hh"

namespace triq
{

ProgramInfo
ProgramInfo::fromCircuit(const Circuit &c)
{
    ProgramInfo info;
    info.numProgQubits = c.numQubits();
    std::map<std::pair<ProgQubit, ProgQubit>, int> counts;
    for (const auto &g : c.gates()) {
        if (isTwoQubitGate(g.kind)) {
            ProgQubit a = g.qubit(0), b = g.qubit(1);
            if (a > b)
                std::swap(a, b);
            ++counts[{a, b}];
        }
    }
    for (const auto &[key, w] : counts)
        info.pairs.push_back({key.first, key.second, w});
    info.measured = c.measuredQubits();
    return info;
}

MapperKind
mapperKindFromString(const std::string &s)
{
    if (s == "trivial")
        return MapperKind::Trivial;
    if (s == "greedy")
        return MapperKind::Greedy;
    if (s == "bnb")
        return MapperKind::BranchAndBound;
    if (s == "smt")
        return MapperKind::Smt;
    fatal("unknown mapper '", s, "' (expected trivial, greedy, bnb or smt)");
}

std::string
mapperKindName(MapperKind kind)
{
    switch (kind) {
      case MapperKind::Trivial:
        return "trivial";
      case MapperKind::Greedy:
        return "greedy";
      case MapperKind::BranchAndBound:
        return "bnb";
      case MapperKind::Smt:
        return "smt";
    }
    panic("mapperKindName: unknown kind");
}

std::vector<ProgQubit>
Mapping::hwToProg(int num_hw) const
{
    std::vector<ProgQubit> inv(static_cast<size_t>(num_hw), -1);
    for (size_t p = 0; p < progToHw.size(); ++p) {
        HwQubit h = progToHw[p];
        if (h < 0 || h >= num_hw)
            panic("Mapping::hwToProg: hardware qubit ", h, " out of range");
        if (inv[static_cast<size_t>(h)] != -1)
            panic("Mapping::hwToProg: non-injective mapping at hw qubit ",
                  h);
        inv[static_cast<size_t>(h)] = static_cast<ProgQubit>(p);
    }
    return inv;
}

namespace
{

/**
 * Reliability of one mapped interacting pair. The matrix entry is
 * direction-sensitive (it moves the *control* next to the target, and
 * IBM orientation fixes are asymmetric); since the translation pass can
 * reverse any CNOT with free/cheap 1Q gates, the mapper scores a pair
 * by its better direction. The search and the evaluation must agree on
 * this, or branch-and-bound pruning would be unsound.
 */
double
pairScore(const ReliabilityMatrix &rel, HwQubit a, HwQubit b)
{
    return std::max(rel.pairReliability(a, b), rel.pairReliability(b, a));
}

} // namespace

double
mappingMinReliability(const ProgramInfo &info, const ReliabilityMatrix &rel,
                      const std::vector<HwQubit> &prog_to_hw,
                      bool include_readout)
{
    double m = 1.0;
    for (const auto &p : info.pairs)
        m = std::min(m,
                     pairScore(rel, prog_to_hw[static_cast<size_t>(p.a)],
                               prog_to_hw[static_cast<size_t>(p.b)]));
    if (include_readout)
        for (ProgQubit q : info.measured)
            m = std::min(m, rel.readoutReliability(
                                prog_to_hw[static_cast<size_t>(q)]));
    return m;
}

double
mappingLogProduct(const ProgramInfo &info, const ReliabilityMatrix &rel,
                  const std::vector<HwQubit> &prog_to_hw,
                  bool include_readout)
{
    double s = 0.0;
    for (const auto &p : info.pairs) {
        double r = pairScore(rel, prog_to_hw[static_cast<size_t>(p.a)],
                             prog_to_hw[static_cast<size_t>(p.b)]);
        s += p.weight * std::log(std::max(r, 1e-300));
    }
    if (include_readout)
        for (ProgQubit q : info.measured)
            s += std::log(std::max(
                rel.readoutReliability(prog_to_hw[static_cast<size_t>(q)]),
                1e-300));
    return s;
}

namespace
{

/** Per-program-qubit total interaction weight. */
std::vector<int>
interactionWeights(const ProgramInfo &info)
{
    std::vector<int> w(static_cast<size_t>(info.numProgQubits), 0);
    for (const auto &p : info.pairs) {
        w[static_cast<size_t>(p.a)] += p.weight;
        w[static_cast<size_t>(p.b)] += p.weight;
    }
    return w;
}

/**
 * Placement order: BFS over the interaction graph from the
 * heaviest-interacting qubit, heavier frontier nodes first. Isolated
 * (including measured-only) qubits go last.
 */
std::vector<ProgQubit>
placementOrder(const ProgramInfo &info)
{
    const int n = info.numProgQubits;
    std::vector<int> weight = interactionWeights(info);
    std::vector<std::vector<ProgQubit>> adj(static_cast<size_t>(n));
    for (const auto &p : info.pairs) {
        adj[static_cast<size_t>(p.a)].push_back(p.b);
        adj[static_cast<size_t>(p.b)].push_back(p.a);
    }
    std::vector<bool> placed(static_cast<size_t>(n), false);
    std::vector<ProgQubit> order;
    order.reserve(static_cast<size_t>(n));
    auto heaviest_unplaced = [&]() {
        ProgQubit best = -1;
        for (int q = 0; q < n; ++q)
            if (!placed[static_cast<size_t>(q)] &&
                (best == -1 || weight[static_cast<size_t>(q)] >
                                   weight[static_cast<size_t>(best)]))
                best = q;
        return best;
    };
    while (static_cast<int>(order.size()) < n) {
        ProgQubit seed = heaviest_unplaced();
        std::vector<ProgQubit> frontier{seed};
        placed[static_cast<size_t>(seed)] = true;
        while (!frontier.empty()) {
            // Pop the heaviest frontier qubit.
            auto it = std::max_element(
                frontier.begin(), frontier.end(),
                [&](ProgQubit a, ProgQubit b) {
                    return weight[static_cast<size_t>(a)] <
                           weight[static_cast<size_t>(b)];
                });
            ProgQubit q = *it;
            frontier.erase(it);
            order.push_back(q);
            for (ProgQubit nb : adj[static_cast<size_t>(q)]) {
                if (!placed[static_cast<size_t>(nb)]) {
                    placed[static_cast<size_t>(nb)] = true;
                    frontier.push_back(nb);
                }
            }
        }
    }
    return order;
}

/**
 * Shared state for one mapQubits call: the placement order, the pairs
 * each placement scores, and the flat score table every search scorer
 * reads.
 *
 * The table holds pairScore for every hardware pair (row-major,
 * symmetric) with its clamped log, and each readout reliability with
 * its clamped log: the same doubles mappingMinReliability and
 * mappingLogProduct compute, without their bounds-checked lookups and
 * per-term std::log. Summed in the same order they give the same bits,
 * which is what keeps every placement identical to scoring through the
 * public evaluators.
 */
struct SearchContext
{
    const ProgramInfo &info;
    const ReliabilityMatrix &rel;
    bool includeReadout;
    int numHw;
    std::vector<ProgQubit> order;
    // For each position k in `order`, the pairs whose *second* endpoint
    // is order[k] and whose other endpoint was placed earlier.
    std::vector<std::vector<ProgramInfo::Pair>> backPairs;
    std::vector<bool> measuredFlag;
    // Interaction partners of each program qubit.
    std::vector<std::vector<ProgQubit>> partners;
    std::vector<double> pair, logPair, ro, logRo;

    SearchContext(const ProgramInfo &i, const ReliabilityMatrix &r,
                  bool include_ro)
        : info(i), rel(r), includeReadout(include_ro),
          numHw(r.numQubits()), order(placementOrder(i)),
          backPairs(order.size()),
          measuredFlag(static_cast<size_t>(i.numProgQubits), false),
          partners(static_cast<size_t>(i.numProgQubits)),
          pair(static_cast<size_t>(numHw) * static_cast<size_t>(numHw),
               0.0),
          logPair(pair.size(), 0.0), ro(static_cast<size_t>(numHw)),
          logRo(static_cast<size_t>(numHw))
    {
        std::vector<int> pos(static_cast<size_t>(i.numProgQubits), 0);
        for (size_t k = 0; k < order.size(); ++k)
            pos[static_cast<size_t>(order[k])] = static_cast<int>(k);
        for (const auto &p : i.pairs) {
            size_t k = static_cast<size_t>(
                std::max(pos[static_cast<size_t>(p.a)],
                         pos[static_cast<size_t>(p.b)]));
            backPairs[k].push_back(p);
            partners[static_cast<size_t>(p.a)].push_back(p.b);
            partners[static_cast<size_t>(p.b)].push_back(p.a);
        }
        for (ProgQubit q : i.measured)
            measuredFlag[static_cast<size_t>(q)] = true;
        for (HwQubit a = 0; a < numHw; ++a) {
            for (HwQubit b = 0; b < numHw; ++b) {
                if (a == b)
                    continue;
                size_t ab = cell(a, b);
                pair[ab] = pairScore(r, a, b);
                logPair[ab] = std::log(std::max(pair[ab], 1e-300));
            }
            ro[static_cast<size_t>(a)] = r.readoutReliability(a);
            logRo[static_cast<size_t>(a)] =
                std::log(std::max(ro[static_cast<size_t>(a)], 1e-300));
        }
    }

    size_t
    cell(HwQubit a, HwQubit b) const
    {
        return static_cast<size_t>(a) * static_cast<size_t>(numHw) +
               static_cast<size_t>(b);
    }

    double sym(HwQubit a, HwQubit b) const { return pair[cell(a, b)]; }

    double
    logSym(HwQubit a, HwQubit b) const
    {
        return logPair[cell(a, b)];
    }

    bool
    scoresReadout(ProgQubit q) const
    {
        return includeReadout && measuredFlag[static_cast<size_t>(q)];
    }

    /** mappingMinReliability of a complete placement, from the table. */
    double
    minReliability(const std::vector<HwQubit> &map) const
    {
        double m = 1.0;
        for (const auto &p : info.pairs)
            m = std::min(m, sym(map[static_cast<size_t>(p.a)],
                                map[static_cast<size_t>(p.b)]));
        if (includeReadout)
            for (ProgQubit q : info.measured)
                m = std::min(m, ro[static_cast<size_t>(
                                    map[static_cast<size_t>(q)])]);
        return m;
    }

    /**
     * mappingLogProduct of a complete placement, from the table and in
     * its summation order (pairs, then readouts), so the sum is
     * bit-identical to it.
     */
    double
    logProduct(const std::vector<HwQubit> &map) const
    {
        double s = 0.0;
        for (const auto &p : info.pairs)
            s += p.weight * logSym(map[static_cast<size_t>(p.a)],
                                   map[static_cast<size_t>(p.b)]);
        if (includeReadout)
            for (ProgQubit q : info.measured)
                s += logRo[static_cast<size_t>(
                    map[static_cast<size_t>(q)])];
        return s;
    }

    /**
     * Min over the pairs and readout incident to program qubit q alone:
     * an upper bound on minReliability(map), since it ranges over a
     * subset of the same terms.
     */
    double
    incidentMin(ProgQubit q, const std::vector<HwQubit> &map) const
    {
        HwQubit h = map[static_cast<size_t>(q)];
        double m = scoresReadout(q) ? ro[static_cast<size_t>(h)] : 1.0;
        for (ProgQubit o : partners[static_cast<size_t>(q)])
            m = std::min(m, sym(h, map[static_cast<size_t>(o)]));
        return m;
    }

    /**
     * Min reliability contributed by placing order[k] at hw qubit h,
     * given earlier placements in `map` (program -> hw, -1 unplaced).
     */
    double
    placementScore(size_t k, HwQubit h,
                   const std::vector<HwQubit> &map) const
    {
        double m = 1.0;
        ProgQubit q = order[k];
        for (const auto &p : backPairs[k]) {
            ProgQubit other = p.a == q ? p.b : p.a;
            HwQubit oh = map[static_cast<size_t>(other)];
            m = std::min(m, sym(oh, h));
        }
        if (scoresReadout(q))
            m = std::min(m, ro[static_cast<size_t>(h)]);
        return m;
    }
};

Mapping
finishMapping(const ProgramInfo &info, const ReliabilityMatrix &rel,
              std::vector<HwQubit> map, bool include_ro, bool optimal,
              long nodes, const char *engine)
{
    Mapping m;
    m.progToHw = std::move(map);
    m.minReliability =
        mappingMinReliability(info, rel, m.progToHw, include_ro);
    m.logProduct = mappingLogProduct(info, rel, m.progToHw, include_ro);
    m.optimal = optimal;
    m.nodesExplored = nodes;
    m.engine = engine;
    return m;
}

/** Constructive greedy placement. */
std::vector<HwQubit>
greedyPlace(const SearchContext &ctx)
{
    const int m = ctx.numHw;
    std::vector<HwQubit> map(static_cast<size_t>(ctx.info.numProgQubits),
                             -1);
    std::vector<bool> used(static_cast<size_t>(m), false);
    for (size_t k = 0; k < ctx.order.size(); ++k) {
        HwQubit best = -1;
        double best_score = -1.0;
        double best_tie = -1.0;
        for (HwQubit h = 0; h < m; ++h) {
            if (used[static_cast<size_t>(h)])
                continue;
            double score = ctx.placementScore(k, h, map);
            // Tie-break: prefer reliable readout neighborhoods.
            double tie = ctx.ro[static_cast<size_t>(h)];
            if (score > best_score + 1e-15 ||
                (score > best_score - 1e-15 && tie > best_tie)) {
                best = h;
                best_score = score;
                best_tie = tie;
            }
        }
        map[static_cast<size_t>(ctx.order[k])] = best;
        used[static_cast<size_t>(best)] = true;
    }
    return map;
}

/**
 * Hill-climbing improvement: move a program qubit to a free hardware
 * qubit or swap two placements when it improves the objective pair
 * lexicographically (primary metric first, the other as tie-break).
 * Anytime: returns false when the budget deadline fired before the
 * climb converged (the map still holds the best placement reached).
 *
 * Under max-min most moves are settled without a rescore: the min over
 * the moved qubit's and its displaced occupant's own pairs and readouts
 * caps the candidate's primary score, so a cap below the rejection
 * threshold proves `better` would refuse the move. Every other
 * candidate is rescored in full from the table, in the public
 * evaluators' summation order, so the climb takes exactly the moves a
 * full rescore of every candidate takes; a delta-updated log sum would
 * drift in the last bits and let the 1e-12 tie-break pick other moves.
 */
bool
localSearch(const SearchContext &ctx, MappingObjective objective,
            std::vector<HwQubit> &map,
            const CompileBudget &budget = CompileBudget())
{
    const int mhw = ctx.numHw;
    const int n = ctx.info.numProgQubits;
    const bool maxmin = objective == MappingObjective::MaxMin;
    auto score = [&](const std::vector<HwQubit> &mp) {
        double mn = ctx.minReliability(mp);
        double lp = ctx.logProduct(mp);
        return maxmin ? std::pair<double, double>(mn, lp)
                      : std::pair<double, double>(lp, mn);
    };
    auto better = [](const std::pair<double, double> &a,
                     const std::pair<double, double> &b) {
        if (a.first > b.first + 1e-15)
            return true;
        if (a.first < b.first - 1e-15)
            return false;
        return a.second > b.second + 1e-12;
    };
    std::vector<ProgQubit> inv(static_cast<size_t>(mhw), -1);
    for (int p = 0; p < n; ++p)
        inv[static_cast<size_t>(map[static_cast<size_t>(p)])] = p;
    auto cur = score(map);
    // The screen, on the move already applied to `map`: true when the
    // moved qubits' own terms cap the candidate's min below the
    // threshold `better` needs, i.e. a provable rejection.
    auto screened_out = [&](ProgQubit p, ProgQubit occupant) {
        if (!maxmin)
            return false;
        double cap = ctx.incidentMin(p, map);
        if (occupant != -1)
            cap = std::min(cap, ctx.incidentMin(occupant, map));
        return cap < cur.first - 1e-15;
    };
    for (int pass = 0; pass < 32; ++pass) {
        bool improved = false;
        for (int p = 0; p < n; ++p) {
            if (budget.expired())
                return false;
            for (HwQubit h = 0; h < mhw; ++h) {
                HwQubit old = map[static_cast<size_t>(p)];
                if (h == old)
                    continue;
                ProgQubit occupant = inv[static_cast<size_t>(h)];
                map[static_cast<size_t>(p)] = h;
                if (occupant != -1)
                    map[static_cast<size_t>(occupant)] = old;
                bool accept = false;
                if (!screened_out(p, occupant)) {
                    auto cand = score(map);
                    accept = better(cand, cur);
                    if (accept)
                        cur = cand;
                }
                if (accept) {
                    improved = true;
                    inv[static_cast<size_t>(h)] = p;
                    inv[static_cast<size_t>(old)] = occupant;
                } else {
                    map[static_cast<size_t>(p)] = old;
                    if (occupant != -1)
                        map[static_cast<size_t>(occupant)] = h;
                }
            }
        }
        if (!improved)
            break;
    }
    return true;
}

/**
 * Shared node-accounting core of the exact searches. One place owns
 * the node budget, the sparse wall-clock poll, and the pruning
 * counters, so the two objective-specific engines cannot drift apart
 * in their anytime behavior (the deadline-check stride used to be
 * copy-pasted in both).
 */
struct SearchCore
{
    long budget;
    const CompileBudget &clock;
    long nodes = 0;
    long boundPruned = 0;
    long symmetryPruned = 0;
    long dominancePruned = 0;
    bool exhausted = false;
    bool timedOut = false;

    SearchCore(long node_budget, const CompileBudget &clk)
        : budget(node_budget), clock(clk)
    {
    }

    /** Charge one node expansion; false when the search must stop. */
    bool
    tick()
    {
        if (++nodes > budget) {
            exhausted = true;
            return false;
        }
        // Poll the wall clock sparsely: a clock read per node would
        // dominate the search itself.
        if ((nodes & 0xFFF) == 0 && clock.expired()) {
            exhausted = true;
            timedOut = true;
            return false;
        }
        return true;
    }
};

/**
 * Precomputed pruning machinery shared by both B&B engines. Every rule
 * below is sound: it never changes the optimal objective value, only
 * the number of nodes needed to prove it.
 *
 * Bound (degree-aware row relaxation). rowMax[h] is the best symmetric
 * pair reliability reachable through hardware qubit h, so any single
 * mapped 2Q op with an endpoint on h scores <= rowMax[h]. The sharper
 * observation is that a program qubit with f *forward* pairs (partners
 * still unplaced when it is placed at h) forces f distinct sites, so
 * the worst of those f pair scores is <= the f-th best entry of h's
 * partner-score row — on sparse devices the f-th best is a swap chain,
 * far below the best edge, which is what makes the cap bite.
 *  - Max-min: for every program qubit q, the final objective is
 *    <= kth-best(h, fwdDeg) when q has forward pairs, <= rowMax[h]
 *    when its pairs are all backward, and <= ro(h) when q is measured;
 *    maximizing those caps over all hardware sites gives an admissible
 *    per-qubit cap, and suffixCap[k] (the min of caps over order
 *    positions >= k) bounds any completion of a prefix in one
 *    comparison. At search time each candidate additionally gets the
 *    *free-site* version of its cap (f-th best partner score over the
 *    sites actually still free), which is inherited down the subtree —
 *    the free set only shrinks, so a placement-time cap stays
 *    admissible for every descendant.
 *  - Product: each still-unscored pair is attributed to its earlier
 *    placement-order endpoint and charged weight * logRowMax of that
 *    endpoint's row — the actual row once the endpoint is placed
 *    (dyn_pot), the max_h fold otherwise (capE/suffixCapE).
 *
 * Symmetry. hwClass comes from ReliabilityMatrix::equivalenceClasses();
 * expanding more than one free member of a class at a node only
 * re-derives permuted copies of the same subtree, so a node keeps one
 * representative per class: the lowest-indexed free member, i.e. the
 * free site none of whose lowerPeers is free. The max-min engine counts
 * the pruned members arithmetically (free sites minus classes with a
 * free site) instead of visiting them; the product engine tests each
 * site of its scan.
 *
 * Site walk (max-min). partnerScore[oh] lists every site best-first by
 * its pair score with oh. Once a partner oh of order[k] is placed, a
 * candidate h satisfies ub <= nm <= placementScore <= sym(oh, h), so a
 * site whose score with oh is at or below the incumbent is bound-pruned
 * whatever else holds: a node scores only the free sites in the head of
 * that row above the incumbent, taking the shortest head over its
 * placed partners (a qubit with no placed partner scans every site).
 * The survivors go back into ascending site order before the score
 * sort, so the children and their order are the full scan's.
 *
 * Dominance. domGE[h2][h1] = h2's scoring row is pointwise >= h1's on
 * every third qubit (readout included). At depths where the qubit being
 * placed has no *forward* pairs, a candidate h2 whose placement score
 * is <= an already-expanded sibling h1's can be pruned: any completion
 * under h2 maps to a pointwise-no-worse completion under h1 by swapping
 * the two hardware qubits in the remainder. The no-forward-pairs
 * restriction is what keeps this sound — the current qubit's own future
 * pairs would need the opposite row inequality.
 */
struct PruneTables
{
    std::vector<double> rowMax, logRowMax;
    // Per hardware qubit: every other qubit with its symmetric pair
    // score, sorted best-first (ties by index, for determinism).
    std::vector<std::vector<std::pair<double, HwQubit>>> partnerScore;
    // Number of *forward* pairs of order[k]: partners placed later.
    std::vector<int> fwdDeg;
    // Max-min: admissible cap on the final objective chargeable to the
    // unplaced order-position suffix [k..end); size order+1, last 1.0.
    std::vector<double> suffixCap;
    // Product: forward weight of order[k] (pairs whose earlier endpoint
    // is order[k]) and the admissible suffix potential (size order+1).
    std::vector<double> attrW;
    std::vector<double> suffixCapE;
    // Highest order position among partners of order[k] (-1: no pairs).
    std::vector<int> lastPartnerPos;
    // First position of the trailing run of pair-free qubits.
    size_t firstIsolated = 0;
    std::vector<int> hwClass;
    int numClasses = 0;
    // Per hardware qubit: the lower-indexed members of its class.
    std::vector<std::vector<HwQubit>> lowerPeers;
    std::vector<std::vector<uint8_t>> domGE;

    bool
    hasForward(size_t k) const
    {
        return lastPartnerPos[k] > static_cast<int>(k);
    }

    /** True when free site h is the lowest-indexed free one of its class. */
    bool
    representative(HwQubit h, const std::vector<bool> &used) const
    {
        for (HwQubit x : lowerPeers[static_cast<size_t>(h)])
            if (!used[static_cast<size_t>(x)])
                return false;
        return true;
    }

    /**
     * The leading entries of oh's partner row that score above
     * `cutoff`: every site past them pairs with oh at or below it.
     */
    std::span<const std::pair<double, HwQubit>>
    headAbove(HwQubit oh, double cutoff) const
    {
        const auto &row = partnerScore[static_cast<size_t>(oh)];
        auto end = std::partition_point(
            row.begin(), row.end(),
            [cutoff](const auto &e) { return e.first > cutoff; });
        return {row.begin(), end};
    }

    /** f-th best partner score of h over all sites (f >= 1). */
    double
    kthBestAll(HwQubit h, int f) const
    {
        const auto &row = partnerScore[static_cast<size_t>(h)];
        return static_cast<size_t>(f) <= row.size()
                   ? row[static_cast<size_t>(f - 1)].first
                   : 0.0;
    }

    /**
     * f-th best partner score of h over the currently *free* sites
     * (f >= 1): the f forward partners of a qubit placed at h must
     * occupy f distinct free sites, so the worst of their pair scores
     * cannot exceed this.
     */
    double
    kthBestFree(HwQubit h, int f, const std::vector<bool> &used) const
    {
        int seen = 0;
        for (const auto &[score, x] : partnerScore[static_cast<size_t>(h)]) {
            if (used[static_cast<size_t>(x)])
                continue;
            if (++seen == f)
                return score;
        }
        return 0.0;
    }
};

PruneTables
buildPruneTables(const SearchContext &ctx)
{
    PruneTables t;
    const int mhw = ctx.numHw;
    const size_t n = ctx.order.size();

    t.rowMax.assign(static_cast<size_t>(mhw), 0.0);
    t.logRowMax.resize(static_cast<size_t>(mhw));
    for (HwQubit h = 0; h < mhw; ++h) {
        double &best = t.rowMax[static_cast<size_t>(h)];
        for (HwQubit x = 0; x < mhw; ++x)
            if (x != h)
                best = std::max(best, ctx.sym(h, x));
        t.logRowMax[static_cast<size_t>(h)] =
            std::log(std::max(best, 1e-300));
    }

    std::vector<int> pos(static_cast<size_t>(ctx.info.numProgQubits), 0);
    for (size_t k = 0; k < n; ++k)
        pos[static_cast<size_t>(ctx.order[k])] = static_cast<int>(k);
    t.lastPartnerPos.assign(n, -1);
    t.attrW.assign(n, 0.0);
    t.fwdDeg.assign(n, 0);
    for (const auto &p : ctx.info.pairs) {
        int pa = pos[static_cast<size_t>(p.a)];
        int pb = pos[static_cast<size_t>(p.b)];
        int lo = std::min(pa, pb), hi = std::max(pa, pb);
        t.lastPartnerPos[static_cast<size_t>(lo)] =
            std::max(t.lastPartnerPos[static_cast<size_t>(lo)], hi);
        t.lastPartnerPos[static_cast<size_t>(hi)] =
            std::max(t.lastPartnerPos[static_cast<size_t>(hi)], lo);
        t.attrW[static_cast<size_t>(lo)] += p.weight;
        ++t.fwdDeg[static_cast<size_t>(lo)];
    }
    t.firstIsolated = n;
    while (t.firstIsolated > 0 &&
           t.lastPartnerPos[t.firstIsolated - 1] == -1)
        --t.firstIsolated;

    t.partnerScore.resize(static_cast<size_t>(mhw));
    for (HwQubit h = 0; h < mhw; ++h) {
        auto &row = t.partnerScore[static_cast<size_t>(h)];
        row.reserve(static_cast<size_t>(mhw - 1));
        for (HwQubit x = 0; x < mhw; ++x)
            if (x != h)
                row.push_back({ctx.sym(h, x), x});
        std::sort(row.begin(), row.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
    }

    t.suffixCap.assign(n + 1, 1.0);
    t.suffixCapE.assign(n + 1, 0.0);
    for (size_t k = n; k-- > 0;) {
        ProgQubit q = ctx.order[k];
        bool has_pair = t.lastPartnerPos[k] != -1;
        bool measured = ctx.scoresReadout(q);
        double cap_q = has_pair || measured ? 0.0 : 1.0;
        double cap_e = measured || t.attrW[k] > 0.0
                           ? -std::numeric_limits<double>::infinity()
                           : 0.0;
        for (HwQubit h = 0; h < mhw; ++h) {
            if (has_pair || measured) {
                double c = 1.0;
                if (t.fwdDeg[k] > 0)
                    c = std::min(c, t.kthBestAll(h, t.fwdDeg[k]));
                else if (has_pair)
                    c = std::min(c, t.rowMax[static_cast<size_t>(h)]);
                if (measured)
                    c = std::min(c, ctx.ro[static_cast<size_t>(h)]);
                cap_q = std::max(cap_q, c);
            }
            if (measured || t.attrW[k] > 0.0) {
                double e =
                    t.attrW[k] * t.logRowMax[static_cast<size_t>(h)];
                if (measured)
                    e += ctx.logRo[static_cast<size_t>(h)];
                cap_e = std::max(cap_e, e);
            }
        }
        t.suffixCap[k] = std::min(t.suffixCap[k + 1], cap_q);
        t.suffixCapE[k] = t.suffixCapE[k + 1] + cap_e;
    }

    t.hwClass = ctx.rel.equivalenceClasses();
    t.lowerPeers.resize(static_cast<size_t>(mhw));
    for (HwQubit h = 0; h < mhw; ++h) {
        const int c = t.hwClass[static_cast<size_t>(h)];
        t.numClasses = std::max(t.numClasses, c + 1);
        for (HwQubit x = 0; x < h; ++x)
            if (t.hwClass[static_cast<size_t>(x)] == c)
                t.lowerPeers[static_cast<size_t>(h)].push_back(x);
    }

    t.domGE.assign(static_cast<size_t>(mhw),
                   std::vector<uint8_t>(static_cast<size_t>(mhw), 0));
    for (HwQubit h2 = 0; h2 < mhw; ++h2)
        for (HwQubit h1 = 0; h1 < mhw; ++h1) {
            if (h1 == h2)
                continue;
            if (ctx.includeReadout &&
                ctx.ro[static_cast<size_t>(h2)] <
                    ctx.ro[static_cast<size_t>(h1)])
                continue;
            bool ge = true;
            for (HwQubit x = 0; x < mhw && ge; ++x) {
                if (x == h1 || x == h2)
                    continue;
                ge = ctx.sym(h2, x) >= ctx.sym(h1, x);
            }
            t.domGE[static_cast<size_t>(h2)][static_cast<size_t>(h1)] =
                ge ? 1 : 0;
        }
    return t;
}

/**
 * Fill `free_hw` with the free hardware qubits sorted best-readout-first
 * (ties by index): the assignment order used by the exact
 * isolated-suffix closure.
 */
void
freeByReadout(const SearchContext &ctx, const std::vector<bool> &used,
              std::vector<HwQubit> &free_hw)
{
    free_hw.clear();
    for (HwQubit h = 0; h < ctx.numHw; ++h)
        if (!used[static_cast<size_t>(h)])
            free_hw.push_back(h);
    std::sort(free_hw.begin(), free_hw.end(),
              [&](HwQubit a, HwQubit b) {
                  double ra = ctx.ro[static_cast<size_t>(a)];
                  double rb = ctx.ro[static_cast<size_t>(b)];
                  if (ra != rb)
                      return ra > rb;
                  return a < b;
              });
}

/**
 * Per-depth scratch of a B&B engine: the candidate list and the expanded
 * siblings. Each placement depth owns one frame that every node at that
 * depth reuses, so search nodes allocate nothing: a node only touches
 * deeper frames while its own is live, and its frame is dead once its
 * subtree is done.
 */
template <class Cand>
struct DepthFrame
{
    std::vector<Cand> cands;
    std::vector<HwQubit> expanded;
};

/** Exact max-min search with incumbent + admissible-bound pruning. */
struct BnbSearch
{
    struct Cand
    {
        double nm;  // objective prefix after this placement
        double ub;  // admissible bound on any completion below it
        double cap; // this site's own forward-degree cap
        HwQubit h;
    };

    const SearchContext &ctx;
    const PruneTables &tab;
    SearchCore core;
    double bestMin;
    std::vector<HwQubit> bestMap;
    std::vector<HwQubit> map;
    std::vector<bool> used;
    std::vector<DepthFrame<Cand>> frames;
    std::vector<HwQubit> freeHw;
    // Symmetry bookkeeping: free sites per class, and the number of
    // classes that still have one (= representatives at a node).
    std::vector<int> classFree;
    long freeClasses = 0;

    BnbSearch(const SearchContext &c, const PruneTables &t,
              long node_budget, const CompileBudget &clk,
              double incumbent, std::vector<HwQubit> incumbent_map)
        : ctx(c), tab(t), core(node_budget, clk), bestMin(incumbent),
          bestMap(std::move(incumbent_map)),
          map(static_cast<size_t>(c.info.numProgQubits), -1),
          used(static_cast<size_t>(c.numHw), false),
          frames(c.order.size()),
          classFree(static_cast<size_t>(t.numClasses), 0),
          freeClasses(t.numClasses)
    {
        for (int cls : tab.hwClass)
            ++classFree[static_cast<size_t>(cls)];
    }

    void
    place(ProgQubit q, HwQubit h)
    {
        map[static_cast<size_t>(q)] = h;
        used[static_cast<size_t>(h)] = true;
        if (--classFree[static_cast<size_t>(
                tab.hwClass[static_cast<size_t>(h)])] == 0)
            --freeClasses;
    }

    void
    unplace(ProgQubit q, HwQubit h)
    {
        map[static_cast<size_t>(q)] = -1;
        used[static_cast<size_t>(h)] = false;
        if (classFree[static_cast<size_t>(
                tab.hwClass[static_cast<size_t>(h)])]++ == 0)
            ++freeClasses;
    }

    /**
     * Exact closure for the trailing pair-free qubits: only their
     * readouts can score, so handing the r measured ones the r best
     * free readouts is optimal — one node instead of a factorial tail.
     */
    void
    closeIsolatedSuffix(size_t k, double cur_min)
    {
        freeByReadout(ctx, used, freeHw);
        size_t r = 0;
        for (size_t j = k; j < ctx.order.size(); ++j)
            if (ctx.scoresReadout(ctx.order[j]))
                ++r;
        double value = cur_min;
        if (r > 0)
            value = std::min(value,
                             ctx.ro[static_cast<size_t>(freeHw[r - 1])]);
        if (value <= bestMin + 1e-15)
            return;
        size_t mi = 0, oi = r;
        for (size_t j = k; j < ctx.order.size(); ++j) {
            ProgQubit q = ctx.order[j];
            map[static_cast<size_t>(q)] =
                freeHw[ctx.scoresReadout(q) ? mi++ : oi++];
        }
        bestMin = value;
        bestMap = map;
        for (size_t j = k; j < ctx.order.size(); ++j)
            map[static_cast<size_t>(ctx.order[j])] = -1;
    }

    /**
     * @param inherited Min over the placed prefix of each qubit's
     *        placement-time free-site degree cap — an admissible bound
     *        on the final objective that only tightens down the path
     *        (the free set shrinks, so caps taken earlier stay valid).
     */
    void
    dfs(size_t k, double cur_min, double inherited)
    {
        if (core.exhausted)
            return;
        if (k == ctx.order.size()) {
            if (cur_min > bestMin + 1e-15) {
                bestMin = cur_min;
                bestMap = map;
            }
            return;
        }
        if (!core.tick())
            return;
        if (k == tab.firstIsolated) {
            closeIsolatedSuffix(k, cur_min);
            return;
        }
        ProgQubit q = ctx.order[k];
        // Node-constant bound: the unplaced-suffix cap and the prefix's
        // inherited degree caps.
        const double static_cap = std::min(tab.suffixCap[k + 1], inherited);
        const double cutoff = bestMin + 1e-15;
        const int fdeg = tab.fwdDeg[k];
        const bool fwd = tab.hasForward(k);
        DepthFrame<Cand> &frame = frames[k];
        std::vector<Cand> &cands = frame.cands;
        cands.clear();
        // List site h when it is a free class representative whose bound
        // beats the incumbent. The free-site degree cap walks h's row,
        // so it is taken only when the cheaper terms leave h alive.
        auto consider = [&](HwQubit h) {
            if (used[static_cast<size_t>(h)] || !tab.representative(h, used))
                return;
            double s = ctx.placementScore(k, h, map);
            double nm = std::min(cur_min, s);
            double ub = std::min(nm, static_cap);
            if (ub <= cutoff)
                return;
            double cap = 1.0;
            if (fdeg > 0) {
                // q's fdeg forward partners need fdeg distinct free
                // sites, so the worst of those pairs cannot beat the
                // fdeg-th best free partner of h.
                cap = tab.kthBestFree(h, fdeg, used);
                ub = std::min(ub, cap);
            }
            if (ub > cutoff)
                cands.push_back({nm, ub, cap, h});
        };
        const auto &back = ctx.backPairs[k];
        if (back.empty()) {
            for (HwQubit h = 0; h < ctx.numHw; ++h)
                consider(h);
        } else {
            // Only the head of a placed partner's row can beat the
            // incumbent; walk the shortest such head.
            std::span<const std::pair<double, HwQubit>> head;
            for (size_t i = 0; i < back.size(); ++i) {
                const auto &p = back[i];
                auto h = tab.headAbove(
                    map[static_cast<size_t>(p.a == q ? p.b : p.a)], cutoff);
                if (i == 0 || h.size() < head.size())
                    head = h;
            }
            for (const auto &e : head)
                consider(e.second);
            // Back to ascending site order: the score sort below is not
            // stable, so it must see the sequence a full scan lists.
            std::sort(cands.begin(), cands.end(),
                      [](const Cand &a, const Cand &b) { return a.h < b.h; });
        }
        // Each free site is a class representative or a pruned class
        // member, and each representative is listed or bound-pruned.
        const long free_sites = ctx.numHw - static_cast<long>(k);
        core.symmetryPruned += free_sites - freeClasses;
        core.boundPruned += freeClasses - static_cast<long>(cands.size());
        // Order candidates by score so good branches are explored first.
        std::sort(cands.begin(), cands.end(),
                  [](const Cand &a, const Cand &b) {
                      return a.nm > b.nm;
                  });
        std::vector<HwQubit> &expanded = frame.expanded;
        expanded.clear();
        for (const auto &c : cands) {
            if (c.ub <= bestMin + 1e-15) {
                // Incumbent improved since candidate listing.
                ++core.boundPruned;
                continue;
            }
            if (!fwd) {
                bool dominated = false;
                for (HwQubit h1 : expanded)
                    if (tab.domGE[static_cast<size_t>(c.h)]
                                 [static_cast<size_t>(h1)]) {
                        dominated = true;
                        break;
                    }
                if (dominated) {
                    ++core.dominancePruned;
                    continue;
                }
            }
            place(q, c.h);
            dfs(k + 1, c.nm, std::min(inherited, c.cap));
            unplace(q, c.h);
            if (core.exhausted)
                return;
            if (!fwd)
                expanded.push_back(c.h);
        }
    }
};

/**
 * Exact product-objective search: the [46]-style whole-graph objective
 * the paper contrasts with max-min.
 */
struct BnbProductSearch
{
    struct Cand
    {
        double ns;  // objective prefix after this placement
        double ub;  // admissible bound on any completion below it
        double pot; // dyn_pot to carry into the child
        HwQubit h;
    };

    const SearchContext &ctx;
    const PruneTables &tab;
    SearchCore core;
    double bestSum;
    std::vector<HwQubit> bestMap;
    std::vector<HwQubit> map;
    std::vector<bool> used;
    std::vector<DepthFrame<Cand>> frames;
    std::vector<HwQubit> freeHw;

    BnbProductSearch(const SearchContext &c, const PruneTables &t,
                     long node_budget, const CompileBudget &clk,
                     double incumbent, std::vector<HwQubit> incumbent_map)
        : ctx(c), tab(t), core(node_budget, clk), bestSum(incumbent),
          bestMap(std::move(incumbent_map)),
          map(static_cast<size_t>(c.info.numProgQubits), -1),
          used(static_cast<size_t>(c.numHw), false),
          frames(c.order.size())
    {
    }

    /** Objective contribution of placing order[k] at h. */
    double
    contribution(size_t k, HwQubit h) const
    {
        double s = 0.0;
        ProgQubit q = ctx.order[k];
        for (const auto &p : ctx.backPairs[k]) {
            ProgQubit other = p.a == q ? p.b : p.a;
            HwQubit oh = map[static_cast<size_t>(other)];
            s += p.weight * ctx.logSym(oh, h);
        }
        if (ctx.scoresReadout(q))
            s += ctx.logRo[static_cast<size_t>(h)];
        return s;
    }

    /**
     * Row-relaxation charge released by scoring order[k]'s back pairs:
     * each was provisionally counted in dyn_pot at its earlier
     * endpoint's rowMax when that endpoint was placed.
     */
    double
    backAdjust(size_t k) const
    {
        double adj = 0.0;
        ProgQubit q = ctx.order[k];
        for (const auto &p : ctx.backPairs[k]) {
            ProgQubit other = p.a == q ? p.b : p.a;
            adj += p.weight *
                   tab.logRowMax[static_cast<size_t>(
                       map[static_cast<size_t>(other)])];
        }
        return adj;
    }

    /** Product-objective twin of BnbSearch::closeIsolatedSuffix. */
    void
    closeIsolatedSuffix(size_t k, double cur_sum)
    {
        freeByReadout(ctx, used, freeHw);
        size_t r = 0;
        for (size_t j = k; j < ctx.order.size(); ++j)
            if (ctx.scoresReadout(ctx.order[j]))
                ++r;
        double value = cur_sum;
        for (size_t i = 0; i < r; ++i)
            value += ctx.logRo[static_cast<size_t>(freeHw[i])];
        if (value <= bestSum + 1e-12)
            return;
        size_t mi = 0, oi = r;
        for (size_t j = k; j < ctx.order.size(); ++j) {
            ProgQubit q = ctx.order[j];
            map[static_cast<size_t>(q)] =
                freeHw[ctx.scoresReadout(q) ? mi++ : oi++];
        }
        bestSum = value;
        bestMap = map;
        for (size_t j = k; j < ctx.order.size(); ++j)
            map[static_cast<size_t>(ctx.order[j])] = -1;
    }

    /**
     * @param dyn_pot Row-relaxation potential of the placed prefix:
     *        sum over placed qubits' still-unscored pairs of
     *        weight * logRowMax at the qubit's actual hardware row.
     */
    void
    dfs(size_t k, double cur_sum, double dyn_pot)
    {
        if (core.exhausted)
            return;
        if (k == ctx.order.size()) {
            if (cur_sum > bestSum + 1e-12) {
                bestSum = cur_sum;
                bestMap = map;
            }
            return;
        }
        if (!core.tick())
            return;
        if (k == tab.firstIsolated) {
            closeIsolatedSuffix(k, cur_sum);
            return;
        }
        const double back_adj = backAdjust(k);
        const bool fwd = tab.hasForward(k);
        DepthFrame<Cand> &frame = frames[k];
        std::vector<Cand> &cands = frame.cands;
        cands.clear();
        for (HwQubit h = 0; h < ctx.numHw; ++h) {
            if (used[static_cast<size_t>(h)])
                continue;
            if (!tab.representative(h, used)) {
                ++core.symmetryPruned;
                continue;
            }
            double ns = cur_sum + contribution(k, h);
            double child_pot =
                dyn_pot - back_adj +
                tab.attrW[k] * tab.logRowMax[static_cast<size_t>(h)];
            double ub = ns + child_pot + tab.suffixCapE[k + 1];
            if (ub > bestSum + 1e-12)
                cands.push_back({ns, ub, child_pot, h});
            else
                ++core.boundPruned;
        }
        std::sort(cands.begin(), cands.end(),
                  [](const Cand &a, const Cand &b) {
                      return a.ns > b.ns;
                  });
        std::vector<HwQubit> &expanded = frame.expanded;
        expanded.clear();
        for (const auto &c : cands) {
            if (c.ub <= bestSum + 1e-12) {
                // Incumbent improved since candidate listing.
                ++core.boundPruned;
                continue;
            }
            if (!fwd) {
                bool dominated = false;
                for (HwQubit h1 : expanded)
                    if (tab.domGE[static_cast<size_t>(c.h)]
                                 [static_cast<size_t>(h1)]) {
                        dominated = true;
                        break;
                    }
                if (dominated) {
                    ++core.dominancePruned;
                    continue;
                }
            }
            map[static_cast<size_t>(ctx.order[k])] = c.h;
            used[static_cast<size_t>(c.h)] = true;
            dfs(k + 1, c.ns, c.pot);
            used[static_cast<size_t>(c.h)] = false;
            map[static_cast<size_t>(ctx.order[k])] = -1;
            if (core.exhausted)
                return;
            if (!fwd)
                expanded.push_back(c.h);
        }
    }
};

/** True when `map` is a complete injective placement for the program. */
bool
validPlacement(const std::vector<HwQubit> &map, int n_prog, int n_hw)
{
    if (static_cast<int>(map.size()) != n_prog)
        return false;
    std::vector<bool> used(static_cast<size_t>(n_hw), false);
    for (HwQubit h : map) {
        if (h < 0 || h >= n_hw || used[static_cast<size_t>(h)])
            return false;
        used[static_cast<size_t>(h)] = true;
    }
    return true;
}

/**
 * A warm start is a floor, not a ceiling: when yesterday's placement
 * polishes into a worse local optimum than today's constructive seed
 * would, keep the greedy seed instead. This is what makes the
 * warm-start contract ("never worse than a cold search") a theorem —
 * the warm incumbent is >= the cold incumbent, and a higher incumbent
 * with sound pruning dominates at every node budget. Replaces `seed`
 * when the greedy one scores higher; returns false when the deadline
 * fired during the extra polish.
 */
bool
keepBetterSeed(const SearchContext &ctx, const MappingOptions &opts,
               std::vector<HwQubit> &seed)
{
    std::vector<HwQubit> cold = greedyPlace(ctx);
    bool converged = localSearch(ctx, opts.objective, cold, opts.budget);
    auto value = [&](const std::vector<HwQubit> &m) {
        return opts.objective == MappingObjective::MaxMin
                   ? ctx.minReliability(m)
                   : ctx.logProduct(m);
    };
    if (value(cold) > value(seed))
        seed = std::move(cold);
    return converged;
}

} // namespace

Mapping
trivialMapping(const ProgramInfo &info, const ReliabilityMatrix &rel)
{
    if (info.numProgQubits > rel.numQubits())
        fatal("trivialMapping: program needs ", info.numProgQubits,
              " qubits, device has ", rel.numQubits());
    std::vector<HwQubit> map(static_cast<size_t>(info.numProgQubits));
    std::iota(map.begin(), map.end(), 0);
    return finishMapping(info, rel, std::move(map), true, false, 0,
                         "trivial");
}

Mapping
mapQubits(const ProgramInfo &info, const ReliabilityMatrix &rel,
          const MappingOptions &opts)
{
    if (info.numProgQubits > rel.numQubits())
        fatal("mapQubits: program needs ", info.numProgQubits,
              " qubits, device has only ", rel.numQubits());
    if (info.numProgQubits == 0)
        return finishMapping(info, rel, {}, opts.includeReadout, true, 0,
                             "trivial");

    // Warm-start handling is shared by the seeded engines: a valid
    // placement (typically a drift-stale mapping from the compile
    // cache) replaces the constructive greedy seed as the anytime
    // incumbent. Invalid warm starts degrade to greedy with a note.
    bool warm_requested = !opts.warmStart.empty();
    bool warm = warm_requested &&
                validPlacement(opts.warmStart, info.numProgQubits,
                               rel.numQubits());
    auto mark_warm = [&](Mapping &m) {
        m.warmStarted = warm;
        if (warm)
            m.warmStartOrigin = opts.warmStartOrigin;
        else if (warm_requested &&
                 !validPlacement(opts.warmStart, info.numProgQubits,
                                 rel.numQubits()))
            m.notes.push_back("invalid warm-start placement ignored; "
                              "seeded from greedy instead");
    };

    switch (opts.kind) {
      case MapperKind::Trivial:
        return trivialMapping(info, rel);
      case MapperKind::Greedy: {
        SearchContext ctx(info, rel, opts.includeReadout);
        auto map = warm ? opts.warmStart : greedyPlace(ctx);
        bool converged =
            localSearch(ctx, opts.objective, map, opts.budget);
        if (warm && converged)
            converged = keepBetterSeed(ctx, opts, map);
        Mapping m = finishMapping(info, rel, std::move(map),
                                  opts.includeReadout, false, 0,
                                  "greedy");
        mark_warm(m);
        if (!converged) {
            m.timedOut = true;
            m.notes.push_back("deadline fired during greedy local "
                              "search; returning best placement so far");
        }
        return m;
      }
      case MapperKind::BranchAndBound: {
        SearchContext ctx(info, rel, opts.includeReadout);
        auto seed = warm ? opts.warmStart : greedyPlace(ctx);
        bool converged =
            localSearch(ctx, opts.objective, seed, opts.budget);
        if (warm && converged)
            converged = keepBetterSeed(ctx, opts, seed);
        // The seed is the anytime floor: if the deadline already
        // fired, skip the exact search and return it.
        if (!converged || opts.budget.expired()) {
            Mapping m = finishMapping(info, rel, std::move(seed),
                                      opts.includeReadout, false, 0,
                                      warm ? "warm" : "greedy");
            m.timedOut = true;
            mark_warm(m);
            m.notes.push_back(
                "deadline fired before branch-and-bound could run; "
                "degraded to the seed incumbent");
            return m;
        }
        PruneTables tab = buildPruneTables(ctx);
        auto finish = [&](const SearchCore &core,
                          std::vector<HwQubit> best_map) {
            Mapping m = finishMapping(info, rel, std::move(best_map),
                                      opts.includeReadout,
                                      !core.exhausted, core.nodes,
                                      "bnb");
            m.timedOut = core.timedOut;
            m.boundPruned = core.boundPruned;
            m.symmetryPruned = core.symmetryPruned;
            m.dominancePruned = core.dominancePruned;
            mark_warm(m);
            if (core.timedOut)
                m.notes.push_back(
                    "deadline fired during branch-and-bound; returning "
                    "the best incumbent found");
            else if (core.exhausted)
                m.notes.push_back("branch-and-bound node budget "
                                  "exhausted; returning the incumbent");
            return m;
        };
        if (opts.objective == MappingObjective::Product) {
            double incumbent = ctx.logProduct(seed);
            BnbProductSearch search(ctx, tab, opts.nodeBudget,
                                    opts.budget, incumbent, seed);
            search.dfs(0, 0.0, 0.0);
            return finish(search.core, search.bestMap);
        }
        double incumbent = ctx.minReliability(seed);
        // Search strictly above the incumbent; the incumbent map is
        // returned when nothing better exists.
        BnbSearch search(ctx, tab, opts.nodeBudget, opts.budget,
                         incumbent, seed);
        search.dfs(0, 1.0, 1.0);
        return finish(search.core, search.bestMap);
      }
      case MapperKind::Smt:
        if (opts.objective == MappingObjective::Product) {
            warn("SMT mapper supports only the max-min objective; "
                 "using branch-and-bound for the product objective");
            MappingOptions fb = opts;
            fb.kind = MapperKind::BranchAndBound;
            Mapping m = mapQubits(info, rel, fb);
            m.notes.insert(m.notes.begin(),
                           "SMT engine cannot optimize the product "
                           "objective; degraded to branch-and-bound");
            return m;
        }
        return mapQubitsSmtOrFallback(info, rel, opts);
    }
    panic("mapQubits: unknown mapper kind");
}

} // namespace triq
