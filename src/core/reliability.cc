#include "core/reliability.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace triq
{

namespace
{

/** Reliability contribution of the 4 H gates that reverse a CNOT. */
double
orientationFix(double e1_control, double e1_target)
{
    double rc = 1.0 - e1_control;
    double rt = 1.0 - e1_target;
    return rc * rc * rt * rt;
}

} // namespace

ReliabilityMatrix::ReliabilityMatrix(const Topology &topo,
                                     const Calibration &calib, Vendor vendor)
    : numQubits_(topo.numQubits()), vendor_(vendor), topo_(topo)
{
    if (calib.numQubits != numQubits_)
        fatal("ReliabilityMatrix: calibration covers ", calib.numQubits,
              " qubits, topology has ", numQubits_);
    if (static_cast<int>(calib.err2q.size()) != topo.numEdges())
        fatal("ReliabilityMatrix: calibration covers ", calib.err2q.size(),
              " edges, topology has ", topo.numEdges());

    const int n = numQubits_;
    gateRel_.assign(n, std::vector<double>(n, 0.0));
    swapRel_.assign(topo.numEdges(), 0.0);
    for (int e = 0; e < topo.numEdges(); ++e) {
        const Coupling &cp = topo.edge(e);
        double r2 = 1.0 - calib.err2q[static_cast<size_t>(e)];
        double fix = orientationFix(calib.err1q[static_cast<size_t>(cp.a)],
                                    calib.err1q[static_cast<size_t>(cp.b)]);
        // Native orientation needs no fix; the reverse does (IBM only).
        double fwd = r2;
        double rev = r2;
        if (vendor_ == Vendor::IBM && cp.directed)
            rev *= fix;
        gateRel_[static_cast<size_t>(cp.a)][static_cast<size_t>(cp.b)] = fwd;
        gateRel_[static_cast<size_t>(cp.b)][static_cast<size_t>(cp.a)] = rev;
        // A SWAP is three CNOTs; on a directed edge the middle one is
        // reversed and needs an orientation fix.
        double sw = r2 * r2 * r2;
        if (vendor_ == Vendor::IBM && cp.directed)
            sw *= fix;
        swapRel_[static_cast<size_t>(e)] = sw;
    }

    // All-pairs most-reliable swap paths: Floyd-Warshall over -log r.
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> dist(
        static_cast<size_t>(n), std::vector<double>(n, inf));
    next_.assign(n, std::vector<int>(n, -1));
    for (int i = 0; i < n; ++i) {
        dist[static_cast<size_t>(i)][static_cast<size_t>(i)] = 0.0;
        next_[static_cast<size_t>(i)][static_cast<size_t>(i)] = i;
    }
    for (int e = 0; e < topo.numEdges(); ++e) {
        const Coupling &cp = topo.edge(e);
        double w = -std::log(std::max(swapRel_[static_cast<size_t>(e)],
                                      1e-300));
        size_t a = static_cast<size_t>(cp.a), b = static_cast<size_t>(cp.b);
        dist[a][b] = dist[b][a] = w;
        next_[a][b] = cp.b;
        next_[b][a] = cp.a;
    }
    for (int k = 0; k < n; ++k)
        for (int i = 0; i < n; ++i) {
            if (dist[static_cast<size_t>(i)][static_cast<size_t>(k)] == inf)
                continue;
            for (int j = 0; j < n; ++j) {
                double alt =
                    dist[static_cast<size_t>(i)][static_cast<size_t>(k)] +
                    dist[static_cast<size_t>(k)][static_cast<size_t>(j)];
                if (alt <
                    dist[static_cast<size_t>(i)][static_cast<size_t>(j)] -
                        1e-15) {
                    dist[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                        alt;
                    next_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                        next_[static_cast<size_t>(i)]
                             [static_cast<size_t>(k)];
                }
            }
        }
    pathRel_.assign(n, std::vector<double>(n, 0.0));
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (dist[static_cast<size_t>(i)][static_cast<size_t>(j)] != inf)
                pathRel_[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                    std::exp(
                        -dist[static_cast<size_t>(i)]
                             [static_cast<size_t>(j)]);

    // End-to-end pair reliabilities: swap c next to some neighbor t' of
    // t, then run the direct gate t' -> t.
    pairRel_.assign(n, std::vector<double>(n, 0.0));
    via_.assign(n, std::vector<int>(n, -1));
    for (int c = 0; c < n; ++c) {
        for (int t = 0; t < n; ++t) {
            if (c == t)
                continue;
            double best = 0.0;
            int best_via = -1;
            for (HwQubit tp : topo.neighbors(t)) {
                double r =
                    pathRel_[static_cast<size_t>(c)]
                            [static_cast<size_t>(tp)] *
                    gateRel_[static_cast<size_t>(tp)]
                            [static_cast<size_t>(t)];
                if (r > best) {
                    best = r;
                    best_via = tp;
                }
            }
            pairRel_[static_cast<size_t>(c)][static_cast<size_t>(t)] = best;
            via_[static_cast<size_t>(c)][static_cast<size_t>(t)] = best_via;
        }
    }

    readoutRel_.resize(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q)
        readoutRel_[static_cast<size_t>(q)] =
            1.0 - calib.errRO[static_cast<size_t>(q)];
}

void
ReliabilityMatrix::checkQubit(HwQubit q) const
{
    if (q < 0 || q >= numQubits_)
        panic("ReliabilityMatrix: qubit ", q, " out of range");
}

double
ReliabilityMatrix::pairReliability(HwQubit c, HwQubit t) const
{
    checkQubit(c);
    checkQubit(t);
    if (c == t)
        panic("ReliabilityMatrix::pairReliability: identical qubits ", c);
    return pairRel_[static_cast<size_t>(c)][static_cast<size_t>(t)];
}

double
ReliabilityMatrix::gateReliability(HwQubit c, HwQubit t) const
{
    checkQubit(c);
    checkQubit(t);
    return gateRel_[static_cast<size_t>(c)][static_cast<size_t>(t)];
}

double
ReliabilityMatrix::swapReliability(HwQubit a, HwQubit b) const
{
    int e = topo_.edgeBetween(a, b);
    if (e == -1)
        panic("ReliabilityMatrix::swapReliability: (", a, ",", b,
              ") not adjacent");
    return swapRel_[static_cast<size_t>(e)];
}

double
ReliabilityMatrix::swapPathReliability(HwQubit c, HwQubit t) const
{
    checkQubit(c);
    checkQubit(t);
    return pathRel_[static_cast<size_t>(c)][static_cast<size_t>(t)];
}

std::vector<HwQubit>
ReliabilityMatrix::swapPath(HwQubit c, HwQubit t) const
{
    checkQubit(c);
    checkQubit(t);
    if (c == t)
        return {};
    if (next_[static_cast<size_t>(c)][static_cast<size_t>(t)] == -1)
        panic("ReliabilityMatrix::swapPath: ", c, " and ", t,
              " are disconnected");
    std::vector<HwQubit> path{c};
    HwQubit cur = c;
    while (cur != t) {
        cur = next_[static_cast<size_t>(cur)][static_cast<size_t>(t)];
        path.push_back(cur);
        if (static_cast<int>(path.size()) > numQubits_)
            panic("ReliabilityMatrix::swapPath: path reconstruction loop");
    }
    return path;
}

HwQubit
ReliabilityMatrix::bestNeighbor(HwQubit c, HwQubit t) const
{
    checkQubit(c);
    checkQubit(t);
    if (c == t)
        panic("ReliabilityMatrix::bestNeighbor: identical qubits");
    return via_[static_cast<size_t>(c)][static_cast<size_t>(t)];
}

double
ReliabilityMatrix::readoutReliability(HwQubit q) const
{
    checkQubit(q);
    return readoutRel_[static_cast<size_t>(q)];
}

std::vector<int>
ReliabilityMatrix::equivalenceClasses() const
{
    const int n = numQubits_;
    auto sym = [this](int a, int b) {
        return std::max(
            pairRel_[static_cast<size_t>(a)][static_cast<size_t>(b)],
            pairRel_[static_cast<size_t>(b)][static_cast<size_t>(a)]);
    };
    std::vector<int> cls(static_cast<size_t>(n), -1);
    std::vector<int> reps; // lowest qubit index of each class
    for (int h = 0; h < n; ++h) {
        for (size_t c = 0; c < reps.size() && cls[static_cast<size_t>(h)] < 0;
             ++c) {
            int r = reps[c];
            // Exact equality on purpose: the classes exist to prune
            // *provably* interchangeable qubits; near-equal rows are
            // the bound's and dominance's job.
            if (readoutRel_[static_cast<size_t>(h)] !=
                readoutRel_[static_cast<size_t>(r)])
                continue;
            bool eq = true;
            for (int x = 0; x < n && eq; ++x) {
                if (x == h || x == r)
                    continue;
                eq = sym(h, x) == sym(r, x);
            }
            if (eq)
                cls[static_cast<size_t>(h)] = static_cast<int>(c);
        }
        if (cls[static_cast<size_t>(h)] < 0) {
            cls[static_cast<size_t>(h)] = static_cast<int>(reps.size());
            reps.push_back(h);
        }
    }
    return cls;
}

} // namespace triq
