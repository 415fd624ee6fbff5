/**
 * @file
 * Render a SweepResult as the triq-sweep JSON results matrix: one
 * JsonWriter document on one line ({"cells": [...], "stats": {...},
 * "cache": {...}}), numbers at full %.17g precision.
 *
 * Lives in the service layer (rather than the tool) so the
 * journal-resume byte-identity contract is testable in-process: the
 * matrix a resumed run renders must equal, byte for byte, the matrix
 * the uninterrupted run would have rendered.
 *
 * `deterministic` drops every wall-clock-dependent field (per-cell
 * "ms", the stats' wall-clock and thread numbers, drift_recompiles,
 * restored_cells and the whole cache-counter block), leaving only
 * fields that are pure functions of the grid inputs. triq-sweep
 * switches to this mode whenever a journal is in play — timings can
 * never be byte-identical across a kill and a resume.
 */

#ifndef TRIQ_SERVICE_SWEEP_MATRIX_HH
#define TRIQ_SERVICE_SWEEP_MATRIX_HH

#include <ostream>

#include "service/sweep.hh"

namespace triq
{

/** "n" / "1q" / "c" / "cn" — the manifest's level tokens. */
const char *optLevelToken(OptLevel level);

/**
 * Write the results matrix. `cache_stats` may be null (the "cache"
 * block is omitted; it is always omitted when `deterministic`).
 */
void writeSweepMatrix(std::ostream &os, const SweepConfig &config,
                      const SweepResult &result,
                      const CompileCache::Stats *cache_stats,
                      bool deterministic);

} // namespace triq

#endif // TRIQ_SERVICE_SWEEP_MATRIX_HH
