/**
 * @file
 * Incremental (streaming) trace generation.
 *
 * TraceStream produces the exact record sequence generateTrace() would
 * materialize, one record at a time, so a simulator can replay a
 * multi-million-reference workload without ever holding the trace in
 * memory. generateTrace() shares the per-CPU engines and the
 * context-switch schedule with the stream but runs one worker per CPU;
 * trace_stream_test and trace_digest_test hold the two equal, record
 * for record and in every GenStats field.
 */

#ifndef VRC_TRACE_TRACE_STREAM_HH
#define VRC_TRACE_TRACE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "trace/record.hh"
#include "trace/workload.hh"

namespace vrc
{

/** Pull-based generator of one profile's interleaved trace. */
class TraceStream
{
  public:
    explicit TraceStream(const WorkloadProfile &profile);
    ~TraceStream();

    TraceStream(TraceStream &&) noexcept;
    TraceStream &operator=(TraceStream &&) noexcept;

    /**
     * Produce the next record into @p out.
     *
     * @return false when the trace is exhausted (@p out untouched).
     */
    bool next(TraceRecord &out);

    /**
     * Decode up to @p cap records into @p out, in exactly the order
     * repeated next() calls would produce them. Batched decoding lets a
     * replay loop amortize the stream's indirection over thousands of
     * records instead of paying it per reference.
     *
     * @return the number of records produced; 0 means exhausted.
     */
    std::size_t nextBatch(TraceRecord *out, std::size_t cap);

    /** Records produced so far. */
    std::uint64_t produced() const;

    /**
     * Exact total record count: numCpus * floor(totalRefs / numCpus)
     * references plus the context switches actually emitted.
     */
    std::uint64_t expectedTotal() const;

    /** The profile driving the stream. */
    const WorkloadProfile &profile() const;

    /**
     * Generation-time ground truth accumulated so far; complete once
     * next() has returned false.
     */
    const GenStats &stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace vrc

#endif // VRC_TRACE_TRACE_STREAM_HH
