#include "sim/noise.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "core/esp.hh"
#include "core/schedule.hh"
#include "sim/compact.hh"

namespace triq
{

namespace
{

/** True when two 2Q gates are close enough to crosstalk: they share no
 * qubit (then they could not overlap anyway) but some endpoint of one
 * neighbors an endpoint of the other. */
bool
spatiallyAdjacent(const Topology &topo, const Gate &a, const Gate &b)
{
    for (int i = 0; i < a.arity(); ++i)
        for (int j = 0; j < b.arity(); ++j)
            if (topo.adjacent(a.qubit(i), b.qubit(j)))
                return true;
    return false;
}

} // namespace

std::vector<ErrorSite>
collectErrorSites(const Circuit &hw, const Topology &topo,
                  const Calibration &calib)
{
    std::vector<ErrorSite> sites;
    std::vector<int> twoq_sites; // Indices into `sites` for 2Q gates.
    for (int i = 0; i < hw.numGates(); ++i) {
        const Gate &g = hw.gate(i);
        if (g.kind == GateKind::Measure)
            continue; // Readout error is applied to the classical bits.
        double p = gateErrorProb(g, topo, calib);
        if (p <= 0.0)
            continue;
        int q1 = g.arity() >= 2 ? g.qubit(1) : -1;
        if (q1 != -1)
            twoq_sites.push_back(static_cast<int>(sites.size()));
        sites.push_back({i, g.qubit(0), q1, p, false});
    }
    ScheduleInfo sched = scheduleCircuit(hw, calib.durations);

    // Crosstalk extension: simultaneous 2Q gates on adjacent edges get
    // their error probability scaled by (1 + crosstalkFactor).
    if (calib.crosstalkFactor > 0.0) {
        for (size_t a = 0; a < twoq_sites.size(); ++a) {
            for (size_t b = a + 1; b < twoq_sites.size(); ++b) {
                ErrorSite &sa = sites[static_cast<size_t>(twoq_sites[a])];
                ErrorSite &sb = sites[static_cast<size_t>(twoq_sites[b])];
                const Gate &ga = hw.gate(sa.gateIdx);
                const Gate &gb = hw.gate(sb.gateIdx);
                double a0 = sched.startUs[static_cast<size_t>(sa.gateIdx)];
                double a1 = a0 + gateDurationUs(ga, calib.durations);
                double b0 = sched.startUs[static_cast<size_t>(sb.gateIdx)];
                double b1 = b0 + gateDurationUs(gb, calib.durations);
                bool overlap = a0 < b1 - 1e-12 && b0 < a1 - 1e-12;
                if (!overlap || !spatiallyAdjacent(topo, ga, gb))
                    continue;
                double f = 1.0 + calib.crosstalkFactor;
                sa.prob = std::min(1.0, sa.prob * f);
                sb.prob = std::min(1.0, sb.prob * f);
            }
        }
    }
    for (const auto &gap : sched.gaps) {
        double t2 = calib.t2Us[static_cast<size_t>(gap.qubit)];
        if (t2 <= 0.0)
            continue;
        double p = 1.0 - std::exp(-gap.us / t2);
        if (p > 1e-12)
            sites.push_back({gap.afterGate, gap.qubit, -1, p, true});
    }
    return sites;
}

double
noErrorProbability(const std::vector<ErrorSite> &sites)
{
    double p = 1.0;
    for (const auto &s : sites)
        p *= 1.0 - s.prob;
    return p;
}

NoisyCircuit
noisyCircuit(const Circuit &hw, const Topology &topo,
             const Calibration &calib)
{
    NoisyCircuit out;
    out.sites = collectErrorSites(hw, topo, calib);
    CompactCircuit cc = compactCircuit(hw);
    for (ErrorSite &s : out.sites) {
        s.q0 = cc.hwToCompact[static_cast<size_t>(s.q0)];
        if (s.q1 != -1)
            s.q1 = cc.hwToCompact[static_cast<size_t>(s.q1)];
    }
    out.measured = cc.circuit.measuredQubits();
    if (out.measured.empty())
        fatal("noisyCircuit: ", hw.name(), " measures no qubits");
    for (ProgQubit q : out.measured)
        out.roErr.push_back(calib.errRO[static_cast<size_t>(
            cc.compactToHw[static_cast<size_t>(q)])]);
    out.circuit = std::move(cc.circuit);
    return out;
}

} // namespace triq
