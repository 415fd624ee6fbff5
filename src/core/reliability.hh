/**
 * @file
 * The 2Q reliability matrix of Sec. 4.2.
 *
 * For every ordered hardware-qubit pair (c, t) the matrix holds the
 * end-to-end reliability of performing a 2Q gate from c to t, including
 * the SWAP chain needed to co-locate them. The computation:
 *
 *  1. each topology edge gets a direct-gate reliability from calibration
 *     (including, on IBM machines, the 1Q gates needed to orient a
 *     directed CNOT);
 *  2. a SWAP across an edge costs three 2Q gates, so its reliability is
 *     the cube of the edge reliability (times orientation fixes);
 *  3. an all-pairs most-reliable-path computation (Floyd-Warshall over
 *     -log reliabilities) yields the best swap chain between any pair;
 *  4. entry (c, t) maximizes, over neighbors t' of t, the product of the
 *     swap-path reliability c->t' and the direct gate t'->t.
 *
 * The same object records per-qubit readout reliabilities.
 */

#ifndef TRIQ_CORE_RELIABILITY_HH
#define TRIQ_CORE_RELIABILITY_HH

#include <vector>

#include "device/calibration.hh"
#include "device/gateset.hh"
#include "device/topology.hh"

namespace triq
{

/** End-to-end 2Q and readout reliability summary for one device. */
class ReliabilityMatrix
{
  public:
    /**
     * Build the matrix.
     *
     * @param topo Device connectivity.
     * @param calib Error rates (a daily snapshot, or the average
     *              calibration for noise-unaware compilation).
     * @param vendor Controls whether directed-CNOT orientation fixes
     *               contribute 1Q error terms (IBM only).
     */
    ReliabilityMatrix(const Topology &topo, const Calibration &calib,
                      Vendor vendor);

    int numQubits() const { return numQubits_; }

    /** End-to-end reliability of a 2Q gate from c to t (Fig. 6). */
    double pairReliability(HwQubit c, HwQubit t) const;

    /** Direct-gate reliability across an edge, oriented c -> t. */
    double gateReliability(HwQubit c, HwQubit t) const;

    /** Reliability of one SWAP across the edge between a and b. */
    double swapReliability(HwQubit a, HwQubit b) const;

    /** Product of swap reliabilities along the best path c -> t. */
    double swapPathReliability(HwQubit c, HwQubit t) const;

    /**
     * The best swap path from c to t as a qubit sequence (c first,
     * t last). Empty when c == t.
     */
    std::vector<HwQubit> swapPath(HwQubit c, HwQubit t) const;

    /**
     * The neighbor t' of t through which the (c, t) entry achieves its
     * maximum (returns c when c and t are already adjacent and the
     * direct gate is best).
     */
    HwQubit bestNeighbor(HwQubit c, HwQubit t) const;

    /** Readout reliability (1 - readout error) of qubit q. */
    double readoutReliability(HwQubit q) const;

    /**
     * Hardware-qubit equivalence classes with respect to the mapper's
     * scoring function: h1 and h2 share a class iff they have equal
     * readout reliability and, for every third qubit x, equal symmetric
     * pair scores max(pair(h1,x), pair(x,h1)) == max(pair(h2,x),
     * pair(x,h2)). Swapping two same-class qubits in any placement
     * leaves every mapped-operation score unchanged, so a search need
     * only expand one representative per class at each depth
     * (automorphism-lite: exact row/column signature equality, which is
     * what uniform calibrations — the noise-unaware levels and
     * synthetic DSE devices — actually produce).
     *
     * @return classOf[h] = class id in [0, numClasses), ids assigned in
     *         ascending order of each class's lowest qubit index.
     */
    std::vector<int> equivalenceClasses() const;

  private:
    int numQubits_;
    Vendor vendor_;
    const Topology &topo_;
    // Direct oriented gate reliability; index [c][t] (0 when not adjacent).
    std::vector<std::vector<double>> gateRel_;
    // Swap reliability per edge id.
    std::vector<double> swapRel_;
    // Most-reliable swap-path product between any pair.
    std::vector<std::vector<double>> pathRel_;
    // Floyd-Warshall successor matrix for path reconstruction:
    // next_[i][j] = first hop on the best path i -> j.
    std::vector<std::vector<int>> next_;
    // Final end-to-end matrix and argmax neighbor.
    std::vector<std::vector<double>> pairRel_;
    std::vector<std::vector<int>> via_;
    std::vector<double> readoutRel_;

    void checkQubit(HwQubit q) const;
};

} // namespace triq

#endif // TRIQ_CORE_RELIABILITY_HH
