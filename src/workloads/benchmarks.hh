/**
 * @file
 * The benchmark programs of the study (Fig. 7): Bernstein-Vazirani,
 * Hidden Shift, Quantum Fourier Transform, a ripple-carry adder and
 * multi-qubit gates (Toffoli, Fredkin, Or, Peres), plus the iterated
 * Toffoli/Fredkin sequences used for the UMDTI length study (Fig. 11e-f).
 *
 * Every benchmark is constructed so its ideal output is a single
 * deterministic bitstring; "success rate" is the fraction of noisy
 * trials that return it.
 */

#ifndef TRIQ_WORKLOADS_BENCHMARKS_HH
#define TRIQ_WORKLOADS_BENCHMARKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/circuit.hh"

namespace triq
{

/**
 * Bernstein-Vazirani on n qubits (n-1 data + 1 ancilla).
 * Recovers the hidden string in one query; ideal output = `hidden`
 * on the data qubits (bit i of `hidden` = data qubit i).
 * @param hidden Hidden bitstring; default all-ones (maximal CNOTs).
 */
Circuit makeBV(int n, uint64_t hidden = ~uint64_t{0});

/**
 * Hidden Shift for the Maiorana-McFarland bent function on n qubits
 * (n even): f(x) = sum x_{2i} x_{2i+1}. Ideal output = `shift`.
 */
Circuit makeHiddenShift(int n, uint64_t shift = ~uint64_t{0});

/** Toffoli gate with inputs |11>|0>; ideal output 111. */
Circuit makeToffoli();

/** Fredkin (controlled swap) with inputs |1>|10>; ideal output 101. */
Circuit makeFredkin();

/** Logical OR of inputs a=1, b=0 into a target; ideal output 101. */
Circuit makeOr();

/** Peres gate (Toffoli + CNOT) on |110>; ideal output 011. */
Circuit makePeres();

/**
 * QFT benchmark on n qubits: prepare |x>, apply QFT then its inverse;
 * ideal output = x. Default n = 4, x = 0b0101.
 */
Circuit makeQft(int n = 4, uint64_t x = 0b0101);

/**
 * One-bit Cuccaro ripple-carry adder over (cin, a, b, cout) computing
 * a + b + cin with a=1, b=1, cin=0; ideal output has sum=0, carry=1.
 */
Circuit makeAdder();

/** `k` back-to-back Toffolis on |110> (UMDTI length study). */
Circuit makeToffoliChain(int k);

/** `k` back-to-back Fredkins on |110> (UMDTI length study). */
Circuit makeFredkinChain(int k);

/** The plain n-qubit QFT circuit (building block; no measurement). */
Circuit qftCircuit(int n);

/**
 * Two-qubit Grover search for the `marked` item (0..3): a single
 * iteration finds it with certainty. Not part of the 12-benchmark
 * study set; the paper cites Grover as the application its iterated
 * Toffoli/Fredkin sequences model.
 */
Circuit makeGrover2(uint64_t marked = 0b11);

/**
 * GHZ prepare-and-uncompute on n qubits, ending in a deterministic
 * basis state (|0...01>) so hardware success is checkable.
 */
Circuit makeGhzRoundTrip(int n);

/** Names of the 12 study benchmarks in Fig. 7 order. */
const std::vector<std::string> &benchmarkNames();

/**
 * Construct a benchmark by name: a study benchmark ("BV4", "HS6",
 * "Toffoli", "QFT", ...) or a supremacy grid "Sup<rows>x<cols>d<depth>"
 * of at most 72 qubits (the largest device) and depth 1024.
 * @throws FatalError for any other name.
 */
Circuit makeBenchmark(const std::string &name);

/**
 * The deterministic correct output of a benchmark as a bitstring over
 * its *measured* qubits (bit i = i-th measured qubit, ascending), found
 * by ideal simulation. @throws FatalError when the benchmark's ideal
 * output is not (nearly) deterministic.
 */
uint64_t idealOutcome(const Circuit &benchmark);

} // namespace triq

#endif // TRIQ_WORKLOADS_BENCHMARKS_HH
