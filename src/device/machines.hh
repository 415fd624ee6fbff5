/**
 * @file
 * The machines of the study (Fig. 1) plus auxiliary devices used by
 * specific experiments (the Fig. 6 example, the 72-qubit scaling target).
 *
 * Topologies follow the published coupling maps of the era; error means,
 * coherence times, qubit counts and 2Q-gate counts match Fig. 1 exactly.
 */

#ifndef TRIQ_DEVICE_MACHINES_HH
#define TRIQ_DEVICE_MACHINES_HH

#include <string>
#include <vector>

#include "device/device.hh"

namespace triq
{

/** IBM Q5 Tenerife: 5 qubits, 6 directed CNOTs, two triangles (bowtie). */
Device makeIbmQ5();

/** IBM Q14 Melbourne: 14 qubits, 18 directed CNOTs, 2x7 ladder. */
Device makeIbmQ14();

/** IBM Q16 Rueschlikon: 16 qubits, 22 directed CNOTs, 2x8 ladder. */
Device makeIbmQ16();

/**
 * Rigetti Agave: 8-qubit ring of which 4 qubits (a line) were available
 * during the study; modeled as the available 4-qubit line.
 */
Device makeRigettiAgave();

/** Rigetti Aspen1: 16 qubits, two octagons bridged by two links. */
Device makeRigettiAspen1();

/** Rigetti Aspen3: same topology as Aspen1, better 2Q error rates. */
Device makeRigettiAspen3();

/** UMD trapped-ion machine: 5 fully connected Yb+ ion qubits. */
Device makeUmdTi();

/** All seven study machines, in Fig. 1 order. */
std::vector<Device> allStudyDevices();

/**
 * The 8-qubit 2x4 example device of Fig. 6, with the figure's exact
 * per-edge 2Q reliabilities available via fig6Reliabilities().
 */
Device makeExample8();

/** Per-edge 2Q *reliabilities* (1 - error) of the Fig. 6 example. */
std::vector<double> fig6Reliabilities();

/**
 * A 72-qubit Bristlecone-class grid (6x12) used for the Sec. 6.5
 * compile-time scaling study. Error rates are sampled from IBM-like
 * statistics, mirroring the paper's methodology.
 */
Device makeGoogle72();

/**
 * Every machine a name selects: the seven study machines, then
 * Google72 (addressable by name, but kept out of allStudyDevices() so
 * "all" stays the paper's seven-machine grid).
 */
const std::vector<Device> &namedDevices();

/**
 * The machine of namedDevices() called `name`.
 * @throws FatalError naming the known machines for any other name.
 */
const Device &deviceByName(const std::string &name);

} // namespace triq

#endif // TRIQ_DEVICE_MACHINES_HH
