/**
 * @file
 * Internal interface between the mapper dispatcher and the optional
 * Z3-backed SMT engine (Sec. 4.3 uses the Z3 C++ API, v4.8.3-era).
 * Not part of the public API; include core/mapper.hh instead.
 */

#ifndef TRIQ_CORE_MAPPER_SMT_HH
#define TRIQ_CORE_MAPPER_SMT_HH

#include "core/mapper.hh"

namespace triq
{

/**
 * Solve the max-min mapping problem with Z3 when compiled in; otherwise
 * delegate to the branch-and-bound engine. Either fallback prints
 * nothing: it is a Mapping::notes entry, which the compiler reports in
 * CompileReport::degradations.
 */
Mapping mapQubitsSmtOrFallback(const ProgramInfo &info,
                               const ReliabilityMatrix &rel,
                               const MappingOptions &opts);

} // namespace triq

#endif // TRIQ_CORE_MAPPER_SMT_HH
