/**
 * @file
 * Z3-backed SMT mapping engine (enabled when built with TRIQ_HAVE_Z3).
 *
 * The max-min objective of Sec. 4.3 is solved as a sequence of SAT
 * checks: binary-search the achievable threshold theta over the sorted
 * distinct reliability values, asking at each step whether an injective
 * placement exists in which every interacting pair lands on a hardware
 * pair with end-to-end reliability >= theta (and every measured qubit
 * on a readout unit >= theta). This exploits exactly the property the
 * paper highlights: a max-min objective lets the solver discard bad
 * placements early, unlike a whole-graph product objective.
 */

#include "core/mapper_smt.hh"

#ifdef TRIQ_HAVE_Z3

#include <algorithm>
#include <vector>

#include <z3++.h>

namespace triq
{

bool
smtMapperAvailable()
{
    return true;
}

namespace
{

/** One SAT feasibility check at threshold theta. */
bool
feasibleAt(double theta, const ProgramInfo &info,
           const ReliabilityMatrix &rel, const MappingOptions &opts,
           std::vector<HwQubit> *model_out)
{
    const int n = info.numProgQubits;
    const int m = rel.numQubits();
    z3::context ctx;
    z3::solver solver(ctx);
    z3::params p(ctx);
    // A wall-clock budget tightens the per-check solver timeout so the
    // binary search cannot overshoot the deadline by a whole check.
    unsigned timeout_ms = opts.smtTimeoutMs;
    if (opts.budget.limited()) {
        double remaining = opts.budget.remainingMs();
        timeout_ms = remaining <= 1.0
                         ? 1u
                         : std::min<unsigned>(
                               timeout_ms,
                               static_cast<unsigned>(remaining));
    }
    p.set("timeout", timeout_ms);
    solver.set(p);

    std::vector<z3::expr> x;
    x.reserve(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q) {
        x.push_back(ctx.int_const(("x" + std::to_string(q)).c_str()));
        solver.add(x.back() >= 0 && x.back() < m);
    }
    if (n > 1) {
        z3::expr_vector xs(ctx);
        for (const auto &e : x)
            xs.push_back(e);
        solver.add(z3::distinct(xs));
    }
    for (const auto &pr : info.pairs) {
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < m; ++j) {
                if (i == j)
                    continue;
                double r = std::max(rel.pairReliability(i, j),
                                    rel.pairReliability(j, i));
                if (r < theta)
                    solver.add(!(x[static_cast<size_t>(pr.a)] == i &&
                                 x[static_cast<size_t>(pr.b)] == j));
            }
        }
    }
    if (opts.includeReadout)
        for (ProgQubit q : info.measured)
            for (int i = 0; i < m; ++i)
                if (rel.readoutReliability(i) < theta)
                    solver.add(x[static_cast<size_t>(q)] != i);

    z3::check_result res = solver.check();
    if (res != z3::sat)
        return false;
    if (model_out) {
        z3::model model = solver.get_model();
        model_out->resize(static_cast<size_t>(n));
        for (int q = 0; q < n; ++q)
            (*model_out)[static_cast<size_t>(q)] = static_cast<HwQubit>(
                model.eval(x[static_cast<size_t>(q)], true)
                    .get_numeral_int());
    }
    return true;
}

} // namespace

/** Degrade one rung down the ladder: Z3 -> branch-and-bound. */
Mapping
fallBackToBnb(const ProgramInfo &info, const ReliabilityMatrix &rel,
              const MappingOptions &opts, const std::string &why)
{
    MappingOptions fb = opts;
    fb.kind = MapperKind::BranchAndBound;
    Mapping m = mapQubits(info, rel, fb);
    m.notes.insert(m.notes.begin(), "SMT engine degraded: " + why);
    return m;
}

Mapping
mapQubitsSmtOrFallback(const ProgramInfo &info, const ReliabilityMatrix &rel,
                       const MappingOptions &opts)
{
    const int m = rel.numQubits();

    if (opts.budget.expired())
        return fallBackToBnb(info, rel, opts,
                             "deadline fired before the solver started");

    // Candidate thresholds: distinct reliabilities that can be the min.
    std::vector<double> cands;
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j)
            if (i != j)
                cands.push_back(rel.pairReliability(i, j));
    if (opts.includeReadout)
        for (int i = 0; i < m; ++i)
            cands.push_back(rel.readoutReliability(i));
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

    try {
        // Binary search the largest feasible threshold.
        std::vector<HwQubit> best_model;
        if (!feasibleAt(cands.front(), info, rel, opts, &best_model)) {
            return fallBackToBnb(info, rel, opts,
                                 "even the weakest threshold is "
                                 "infeasible (or the first check timed "
                                 "out)");
        }
        size_t lo = 0, hi = cands.size() - 1; // lo always feasible.
        bool timed_out = false;
        while (lo < hi) {
            if (opts.budget.expired()) {
                // Anytime: keep the best model proven so far.
                timed_out = true;
                break;
            }
            size_t mid = (lo + hi + 1) / 2;
            std::vector<HwQubit> model;
            if (feasibleAt(cands[mid], info, rel, opts, &model)) {
                lo = mid;
                best_model = std::move(model);
            } else {
                hi = mid - 1;
            }
        }
        Mapping out;
        out.progToHw = std::move(best_model);
        out.minReliability = mappingMinReliability(info, rel, out.progToHw,
                                                   opts.includeReadout);
        out.logProduct = mappingLogProduct(info, rel, out.progToHw,
                                           opts.includeReadout);
        out.optimal = !timed_out;
        out.engine = "smt";
        out.timedOut = timed_out;
        if (timed_out)
            out.notes.push_back(
                "deadline fired during the SMT threshold search; "
                "returning the best model proven so far");
        return out;
    } catch (const z3::exception &e) {
        return fallBackToBnb(info, rel, opts,
                             std::string("Z3 error '") + e.msg() + "'");
    }
}

} // namespace triq

#else // !TRIQ_HAVE_Z3

namespace triq
{

bool
smtMapperAvailable()
{
    return false;
}

Mapping
mapQubitsSmtOrFallback(const ProgramInfo &info, const ReliabilityMatrix &rel,
                       const MappingOptions &opts)
{
    MappingOptions fb = opts;
    fb.kind = MapperKind::BranchAndBound;
    Mapping m = mapQubits(info, rel, fb);
    m.notes.insert(m.notes.begin(),
                   "SMT engine degraded: this build has no Z3");
    return m;
}

} // namespace triq

#endif // TRIQ_HAVE_Z3
