/**
 * @file
 * Workload profile file I/O.
 *
 * Profiles are stored as plain "key = value" text so users can define
 * custom workloads for the CLI tools without recompiling. All keys are
 * optional; unset keys keep the default-constructed value. Unknown
 * keys are errors (they are always typos). The format round-trips:
 * saveProfile followed by tryLoadProfile reproduces the profile exactly.
 *
 *     name = mywork
 *     num_cpus = 4
 *     total_refs = 1000000
 *     instr_frac = 0.5
 *     data_levels = 1024:0.5, 8192:0.3, 262144:0.2
 *     ...
 *
 * The `try*` readers report malformed lines, unknown keys, and
 * unparsable values as a Result with line context; a CLI tool ends
 * on one with `.orDie()`.
 */

#ifndef VRC_TRACE_PROFILE_IO_HH
#define VRC_TRACE_PROFILE_IO_HH

#include <iosfwd>
#include <string>

#include "base/error.hh"
#include "trace/workload.hh"

namespace vrc
{

/** Serialize a profile (all fields, commented sections). */
void writeProfile(std::ostream &os, const WorkloadProfile &p);

/**
 * Parse a profile from a default-constructed WorkloadProfile.
 * Malformed lines, unknown keys, and bad values are Parse errors
 * carrying the 1-based line number and @p context; a num_cpus outside
 * 1..kMaxTraceCpus is a Bounds error.
 */
Result<WorkloadProfile>
tryReadProfile(std::istream &is,
               const std::string &context = "<stream>");

/** Write a profile file. fatal() when the file cannot be opened. */
void saveProfile(const std::string &path, const WorkloadProfile &p);

/**
 * Read and validate a profile file; a missing file is an Io error.
 * Under --inject-faults the loaded bytes pass through the fault
 * injector before parsing.
 */
Result<WorkloadProfile> tryLoadProfile(const std::string &path);

} // namespace vrc

#endif // VRC_TRACE_PROFILE_IO_HH
