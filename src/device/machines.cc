#include "device/machines.hh"

#include "common/logging.hh"

namespace triq
{

namespace
{

/** Superconducting (IBM) gate durations, microseconds. */
constexpr GateDurations kIbmDurations{0.10, 0.40, 3.0};

/** Superconducting (Rigetti) gate durations, microseconds. */
constexpr GateDurations kRigettiDurations{0.06, 0.25, 2.0};

/** Trapped-ion gate durations, microseconds. */
constexpr GateDurations kUmdDurations{10.0, 250.0, 100.0};

/**
 * Spread parameters. IBM/Rigetti 2Q and readout errors vary up to ~9x
 * across qubits and calibration days (Sec. 3.3); the ion trap fluctuates
 * only 1-3% absolute due to motional mode drift.
 */
constexpr double kScSpatialSigma = 0.55;
constexpr double kScTemporalSigma = 0.35;
constexpr double kTiSpatialSigma = 0.60;
constexpr double kTiTemporalSigma = 0.15;

NoiseSpec
scNoise(double e1, double e2, double ro, double t2_us,
        const GateDurations &dur)
{
    return {e1, e2, ro, t2_us, kScSpatialSigma, kScTemporalSigma, dur};
}

} // namespace

Device
makeIbmQ5()
{
    // Bowtie: triangles (0,1,2) and (2,3,4); native control listed first.
    Topology t(5);
    t.addEdge(1, 0, true);
    t.addEdge(2, 0, true);
    t.addEdge(2, 1, true);
    t.addEdge(3, 2, true);
    t.addEdge(3, 4, true);
    t.addEdge(4, 2, true);
    return Device("IBMQ5", std::move(t), GateSet::ibm(),
                  scNoise(0.0020, 0.0476, 0.0621, 40.0, kIbmDurations));
}

Device
makeIbmQ14()
{
    // Melbourne 2x7 ladder, 18 directed CNOTs (published coupling map).
    Topology t(14);
    t.addEdge(1, 0, true);
    t.addEdge(1, 2, true);
    t.addEdge(2, 3, true);
    t.addEdge(4, 3, true);
    t.addEdge(4, 10, true);
    t.addEdge(5, 4, true);
    t.addEdge(5, 6, true);
    t.addEdge(5, 9, true);
    t.addEdge(6, 8, true);
    t.addEdge(7, 8, true);
    t.addEdge(9, 8, true);
    t.addEdge(9, 10, true);
    t.addEdge(11, 3, true);
    t.addEdge(11, 10, true);
    t.addEdge(11, 12, true);
    t.addEdge(12, 2, true);
    t.addEdge(13, 1, true);
    t.addEdge(13, 12, true);
    return Device("IBMQ14", std::move(t), GateSet::ibm(),
                  scNoise(0.0119, 0.0795, 0.0909, 30.0, kIbmDurations));
}

Device
makeIbmQ16()
{
    // Rueschlikon 2x8 ladder, 22 directed CNOTs (published coupling map).
    Topology t(16);
    t.addEdge(1, 0, true);
    t.addEdge(1, 2, true);
    t.addEdge(2, 3, true);
    t.addEdge(3, 4, true);
    t.addEdge(3, 14, true);
    t.addEdge(5, 4, true);
    t.addEdge(6, 5, true);
    t.addEdge(6, 7, true);
    t.addEdge(6, 11, true);
    t.addEdge(7, 10, true);
    t.addEdge(8, 7, true);
    t.addEdge(9, 8, true);
    t.addEdge(9, 10, true);
    t.addEdge(11, 10, true);
    t.addEdge(12, 5, true);
    t.addEdge(12, 11, true);
    t.addEdge(12, 13, true);
    t.addEdge(13, 4, true);
    t.addEdge(13, 14, true);
    t.addEdge(15, 0, true);
    t.addEdge(15, 2, true);
    t.addEdge(15, 14, true);
    return Device("IBMQ16", std::move(t), GateSet::ibm(),
                  scNoise(0.0022, 0.0714, 0.0415, 40.0, kIbmDurations));
}

Device
makeRigettiAgave()
{
    // 8-qubit ring, but only 4 qubits were usable during the study; the
    // available segment is a line.
    Topology t = Topology::line(4);
    return Device("Agave", std::move(t), GateSet::rigetti(),
                  scNoise(0.0368, 0.1080, 0.1637, 15.0, kRigettiDurations));
}

namespace
{

Topology
aspenTopology()
{
    // Two octagons 0..7 and 8..15 bridged by two links, 18 edges total.
    Topology t(16);
    for (int i = 0; i < 8; ++i)
        t.addEdge(i, (i + 1) % 8);
    for (int i = 0; i < 8; ++i)
        t.addEdge(8 + i, 8 + (i + 1) % 8);
    t.addEdge(1, 14);
    t.addEdge(2, 13);
    return t;
}

} // namespace

Device
makeRigettiAspen1()
{
    return Device("Aspen1", aspenTopology(), GateSet::rigetti(),
                  scNoise(0.0343, 0.0892, 0.0556, 20.0, kRigettiDurations));
}

Device
makeRigettiAspen3()
{
    return Device("Aspen3", aspenTopology(), GateSet::rigetti(),
                  scNoise(0.0379, 0.0537, 0.0665, 20.0, kRigettiDurations));
}

Device
makeUmdTi()
{
    NoiseSpec spec{0.0020, 0.0100, 0.0060, 1.5e6,
                   kTiSpatialSigma, kTiTemporalSigma, kUmdDurations};
    // Ion-trap error structure is drift-dominated: the good pairs
    // reshuffle between calibration cycles (Sec. 3.3).
    spec.chronicSpatial = false;
    return Device("UMDTI", Topology::full(5), GateSet::umd(), spec);
}

std::vector<Device>
allStudyDevices()
{
    std::vector<Device> out;
    out.push_back(makeIbmQ5());
    out.push_back(makeIbmQ14());
    out.push_back(makeIbmQ16());
    out.push_back(makeRigettiAgave());
    out.push_back(makeRigettiAspen1());
    out.push_back(makeRigettiAspen3());
    out.push_back(makeUmdTi());
    return out;
}

Device
makeExample8()
{
    // Fig. 6(a): qubits 0..3 on the top row, 4..7 on the bottom row.
    Topology t(8);
    t.addEdge(0, 1); // r = 0.9
    t.addEdge(1, 2); // r = 0.8
    t.addEdge(2, 3); // r = 0.9
    t.addEdge(4, 5); // r = 0.9
    t.addEdge(5, 6); // r = 0.8
    t.addEdge(6, 7); // r = 0.9
    t.addEdge(0, 4); // r = 0.9
    t.addEdge(1, 5); // r = 0.9
    t.addEdge(2, 6); // r = 0.7
    t.addEdge(3, 7); // r = 0.8
    // Mean 2Q error matching the figure's average reliability.
    NoiseSpec spec{0.001, 0.15, 0.02, 100.0, 0.0, 0.0, kIbmDurations};
    return Device("Example8", std::move(t),
                  {Vendor::IBM, TwoQKind::CNOT, OneQKind::IbmU, true}, spec);
}

std::vector<double>
fig6Reliabilities()
{
    return {0.9, 0.8, 0.9, 0.9, 0.8, 0.9, 0.9, 0.9, 0.7, 0.8};
}

Device
makeGoogle72()
{
    // Bristlecone-class 72-qubit grid. Error statistics sampled from
    // IBM-like distributions, as in the paper's scaling methodology.
    return Device("Google72", Topology::grid(6, 12), GateSet::ibm(),
                  scNoise(0.0020, 0.0500, 0.0500, 40.0, kIbmDurations));
}

const std::vector<Device> &
namedDevices()
{
    static const std::vector<Device> devices = [] {
        std::vector<Device> d = allStudyDevices();
        d.push_back(makeGoogle72());
        return d;
    }();
    return devices;
}

const Device &
deviceByName(const std::string &name)
{
    for (const Device &d : namedDevices())
        if (d.name() == name)
            return d;
    std::string known;
    for (const Device &d : namedDevices())
        known += (known.empty() ? "" : ", ") + d.name();
    fatal("unknown device '", name, "' (known: ", known, ")");
}

} // namespace triq
