/**
 * @file
 * Binary and text trace file I/O.
 *
 * Binary format: a fixed 16-byte header (magic, version, record count)
 * followed by packed TraceRecords. Text format: one record per line,
 * "cpu type pid vaddr" with the type as a letter (I/R/W/S), for
 * human inspection and for importing external traces.
 *
 * Every reader fully validates the input (magic, version, record
 * count against the stream size, type letters/bytes, field ranges)
 * and reports failures as a Result carrying file/line context. A CLI
 * tool ends on one with `.orDie()`; campaign code must not: a corrupt
 * input is a quarantined cell, not a dead process.
 */

#ifndef VRC_TRACE_TRACE_IO_HH
#define VRC_TRACE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/error.hh"
#include "trace/record.hh"

namespace vrc
{

/** Magic number identifying binary vrc traces ("VRCT"). */
inline constexpr std::uint32_t traceMagic = 0x54435256;

/** Current binary trace format version. */
inline constexpr std::uint32_t traceVersion = 1;

/**
 * Parse a reference-type letter (I/R/W/S). An unknown letter is a
 * Parse error naming the letter; the caller attaches line context.
 */
Result<RefType> refTypeFromLetter(char c);

/**
 * Write @p records to @p os in binary format.
 *
 * @return bytes written.
 */
std::uint64_t writeTraceBinary(std::ostream &os,
                               const std::vector<TraceRecord> &records);

/**
 * Read and fully validate a binary trace.
 *
 * Rejects, without allocating the record array first: a short or
 * bad-magic header, an unsupported version, and a record count
 * inconsistent with the remaining stream size. Record type bytes are
 * validated after the read. @p context names the source in errors.
 */
Result<std::vector<TraceRecord>>
tryReadTraceBinary(std::istream &is,
                   const std::string &context = "<stream>");

/** Write @p records in the line-oriented text format. */
void writeTraceText(std::ostream &os,
                    const std::vector<TraceRecord> &records);

/**
 * Read a text trace. Blank lines and lines starting with '#' are
 * skipped. Malformed lines, unknown type letters, and out-of-range
 * cpu/pid fields are Parse errors carrying the 1-based line number.
 */
Result<std::vector<TraceRecord>>
tryReadTraceText(std::istream &is,
                 const std::string &context = "<stream>");

/**
 * Import a classic dinero "din" trace: one "<label> <hex-addr>" pair
 * per line, label 0 = data read, 1 = data write, 2 = instruction
 * fetch. Dinero traces are uniprocessor with no process information;
 * all records are attributed to @p cpu and @p pid. Blank lines and
 * '#' comments are skipped.
 */
Result<std::vector<TraceRecord>>
tryReadTraceDinero(std::istream &is, CpuId cpu = 0, ProcessId pid = 0,
                   const std::string &context = "<stream>");

/** Write a binary trace file. fatal() if the file cannot be opened. */
void saveTrace(const std::string &path,
               const std::vector<TraceRecord> &records);

/**
 * Read and validate a binary trace file. Errors (including a missing
 * file) come back as a Result; under --inject-faults the loaded bytes
 * pass through the fault injector before parsing.
 */
Result<std::vector<TraceRecord>> tryLoadTrace(const std::string &path);

} // namespace vrc

#endif // VRC_TRACE_TRACE_IO_HH
