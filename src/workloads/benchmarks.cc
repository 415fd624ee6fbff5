#include "workloads/benchmarks.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "sim/statevector.hh"
#include "workloads/supremacy.hh"

namespace triq
{

namespace
{

/** Measure every qubit of `c`, in ascending order. */
void
measureAll(Circuit &c)
{
    for (int q = 0; q < c.numQubits(); ++q)
        c.add(Gate::measure(q));
}

/** Reverse a unitary circuit: reversed gate order, inverted gates. */
Circuit
inverted(const Circuit &c)
{
    Circuit out(c.numQubits(), c.name() + "_inv");
    for (int i = c.numGates() - 1; i >= 0; --i) {
        Gate g = c.gate(i);
        switch (g.kind) {
          case GateKind::H:
          case GateKind::X:
          case GateKind::Y:
          case GateKind::Z:
          case GateKind::I:
          case GateKind::Cnot:
          case GateKind::Cz:
          case GateKind::Swap:
          case GateKind::Ccx:
          case GateKind::Ccz:
          case GateKind::Cswap:
            break; // Self-inverse.
          case GateKind::S:
            g.kind = GateKind::Sdg;
            break;
          case GateKind::Sdg:
            g.kind = GateKind::S;
            break;
          case GateKind::T:
            g.kind = GateKind::Tdg;
            break;
          case GateKind::Tdg:
            g.kind = GateKind::T;
            break;
          case GateKind::Rx:
          case GateKind::Ry:
          case GateKind::Rz:
          case GateKind::U1:
          case GateKind::Cphase:
          case GateKind::Xx:
            g.params[0] = -g.params[0];
            break;
          case GateKind::Rxy:
            g.params[0] = -g.params[0];
            break;
          default:
            fatal("inverted: cannot invert ", g.str());
        }
        out.add(g);
    }
    return out;
}

} // namespace

Circuit
makeBV(int n, uint64_t hidden)
{
    if (n < 2)
        fatal("makeBV: need at least 2 qubits, got ", n);
    hidden &= (uint64_t{1} << (n - 1)) - 1;
    Circuit c(n, "BV" + std::to_string(n));
    const ProgQubit anc = n - 1;
    c.add(Gate::x(anc));
    for (int q = 0; q < n; ++q)
        c.add(Gate::h(q));
    for (int q = 0; q < n - 1; ++q)
        if ((hidden >> q) & 1)
            c.add(Gate::cnot(q, anc));
    for (int q = 0; q < n - 1; ++q)
        c.add(Gate::h(q));
    for (int q = 0; q < n - 1; ++q)
        c.add(Gate::measure(q));
    return c;
}

Circuit
makeHiddenShift(int n, uint64_t shift)
{
    if (n < 2 || n % 2 != 0)
        fatal("makeHiddenShift: need an even qubit count, got ", n);
    shift &= (uint64_t{1} << n) - 1;
    Circuit c(n, "HS" + std::to_string(n));
    auto oracle = [&]() {
        // Maiorana-McFarland bent function f(x) = sum x_{2i} x_{2i+1};
        // its dual is itself, so both oracles are the same CZ layer.
        for (int i = 0; i + 1 < n; i += 2)
            c.add(Gate::cz(i, i + 1));
    };
    for (int q = 0; q < n; ++q)
        c.add(Gate::h(q));
    for (int q = 0; q < n; ++q)
        if ((shift >> q) & 1)
            c.add(Gate::x(q));
    oracle();
    for (int q = 0; q < n; ++q)
        if ((shift >> q) & 1)
            c.add(Gate::x(q));
    for (int q = 0; q < n; ++q)
        c.add(Gate::h(q));
    oracle();
    for (int q = 0; q < n; ++q)
        c.add(Gate::h(q));
    measureAll(c);
    return c;
}

Circuit
makeToffoli()
{
    Circuit c(3, "Toffoli");
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::ccx(0, 1, 2));
    measureAll(c);
    return c;
}

Circuit
makeFredkin()
{
    Circuit c(3, "Fredkin");
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::cswap(0, 1, 2));
    measureAll(c);
    return c;
}

Circuit
makeOr()
{
    // OR(a, b) -> t via De Morgan: t = NOT(AND(NOT a, NOT b)).
    Circuit c(3, "Or");
    c.add(Gate::x(0)); // Input a = 1 (b stays 0).
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::ccx(0, 1, 2));
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::x(2));
    measureAll(c);
    return c;
}

Circuit
makePeres()
{
    // Peres(a, b, c) = Toffoli(a,b,c) then CNOT(a,b), on inputs a=b=1.
    Circuit c(3, "Peres");
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::ccx(0, 1, 2));
    c.add(Gate::cnot(0, 1));
    measureAll(c);
    return c;
}

Circuit
qftCircuit(int n)
{
    if (n < 1)
        fatal("qftCircuit: need at least 1 qubit");
    Circuit c(n, "QFT" + std::to_string(n));
    for (int i = n - 1; i >= 0; --i) {
        c.add(Gate::h(i));
        for (int j = i - 1; j >= 0; --j)
            c.add(Gate::cphase(j, i, kPi / std::pow(2.0, i - j)));
    }
    return c;
}

Circuit
makeQft(int n, uint64_t x)
{
    x &= (uint64_t{1} << n) - 1;
    Circuit c(n, "QFT");
    for (int q = 0; q < n; ++q)
        if ((x >> q) & 1)
            c.add(Gate::x(q));
    Circuit fwd = qftCircuit(n);
    c.append(fwd);
    c.append(inverted(fwd));
    measureAll(c);
    return c;
}

Circuit
makeAdder()
{
    // One-bit Cuccaro ripple-carry adder: qubits (cin, b, a, cout),
    // inputs a = b = 1, cin = 0; leaves sum in b, carry in cout.
    Circuit c(4, "Adder");
    const ProgQubit cin = 0, b = 1, a = 2, cout = 3;
    c.add(Gate::x(a));
    c.add(Gate::x(b));
    // MAJ(cin, b, a)
    c.add(Gate::cnot(a, b));
    c.add(Gate::cnot(a, cin));
    c.add(Gate::ccx(cin, b, a));
    // Carry out
    c.add(Gate::cnot(a, cout));
    // UMA(cin, b, a)
    c.add(Gate::ccx(cin, b, a));
    c.add(Gate::cnot(a, cin));
    c.add(Gate::cnot(cin, b));
    measureAll(c);
    return c;
}

Circuit
makeToffoliChain(int k)
{
    if (k < 1)
        fatal("makeToffoliChain: need at least 1 iteration");
    Circuit c(3, "Toffoli_x" + std::to_string(k));
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    for (int i = 0; i < k; ++i)
        c.add(Gate::ccx(0, 1, 2));
    measureAll(c);
    return c;
}

Circuit
makeFredkinChain(int k)
{
    if (k < 1)
        fatal("makeFredkinChain: need at least 1 iteration");
    Circuit c(3, "Fredkin_x" + std::to_string(k));
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    for (int i = 0; i < k; ++i)
        c.add(Gate::cswap(0, 1, 2));
    measureAll(c);
    return c;
}

Circuit
makeGrover2(uint64_t marked)
{
    if (marked > 3)
        fatal("makeGrover2: marked item must be in [0, 3]");
    Circuit c(2, "Grover2");
    auto mask_x = [&](uint64_t pattern) {
        // Conjugate the CZ so it phase-flips |pattern>.
        for (int q = 0; q < 2; ++q)
            if (!((pattern >> q) & 1))
                c.add(Gate::x(q));
    };
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    // Oracle: phase-flip the marked state.
    mask_x(marked);
    c.add(Gate::cz(0, 1));
    mask_x(marked);
    // Diffusion about the mean.
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::cz(0, 1));
    c.add(Gate::x(0));
    c.add(Gate::x(1));
    c.add(Gate::h(0));
    c.add(Gate::h(1));
    measureAll(c);
    return c;
}

Circuit
makeGhzRoundTrip(int n)
{
    if (n < 2)
        fatal("makeGhzRoundTrip: need at least 2 qubits");
    Circuit c(n, "GHZ" + std::to_string(n));
    c.add(Gate::h(0));
    for (int q = 0; q + 1 < n; ++q)
        c.add(Gate::cnot(q, q + 1));
    c.add(Gate::barrier());
    for (int q = n - 2; q >= 0; --q)
        c.add(Gate::cnot(q, q + 1));
    c.add(Gate::h(0));
    c.add(Gate::x(0));
    measureAll(c);
    return c;
}

const std::vector<std::string> &
benchmarkNames()
{
    static const std::vector<std::string> names{
        "BV4", "BV6", "BV8", "HS2", "HS4", "HS6",
        "Toffoli", "Fredkin", "Or", "Peres", "QFT", "Adder"};
    return names;
}

Circuit
makeBenchmark(const std::string &name)
{
    if (name == "BV4")
        return makeBV(4);
    if (name == "BV6")
        return makeBV(6);
    if (name == "BV8")
        return makeBV(8);
    if (name == "HS2")
        return makeHiddenShift(2);
    if (name == "HS4")
        return makeHiddenShift(4);
    if (name == "HS6")
        return makeHiddenShift(6);
    if (name == "Toffoli")
        return makeToffoli();
    if (name == "Fredkin")
        return makeFredkin();
    if (name == "Or")
        return makeOr();
    if (name == "Peres")
        return makePeres();
    if (name == "QFT")
        return makeQft();
    if (name == "Adder")
        return makeAdder();
    // "Sup<rows>x<cols>d<depth>" — parameterized supremacy grids, the
    // Sec. 6.5 compile-time-scaling workloads (e.g. Sup6x12d8 is the
    // 72-qubit Bristlecone-class circuit). Deliberately not listed in
    // benchmarkNames(): "program all" sweeps must stay tractable. The
    // caps keep a name from asking for an unbounded circuit.
    int rows = 0, cols = 0, depth = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "Sup%dx%dd%d%c", &rows, &cols, &depth,
                    &tail) == 3 &&
        rows >= 1 && cols >= 1 && static_cast<long>(rows) * cols <= 72 &&
        depth >= 1 && depth <= 1024)
        return makeSupremacy(rows, cols, depth);
    fatal("unknown benchmark '", name,
          "' (a Sup<rows>x<cols>d<depth> grid takes at most 72 qubits ",
          "and depth 1024)");
}

uint64_t
idealOutcome(const Circuit &benchmark)
{
    std::vector<double> dist = idealMeasurementDistribution(benchmark);
    uint64_t best = 0;
    double bestp = -1.0;
    for (uint64_t i = 0; i < dist.size(); ++i) {
        if (dist[i] > bestp) {
            bestp = dist[i];
            best = i;
        }
    }
    if (bestp < 0.99)
        fatal("idealOutcome: benchmark ", benchmark.name(),
              " is not deterministic (max outcome probability ", bestp,
              ")");
    return best;
}

} // namespace triq
