/**
 * @file
 * Memory-reference trace records.
 *
 * The simulator is trace-driven, like the paper's (which used ATUM VAX
 * multiprocessor traces). A trace is a time-interleaved sequence of
 * records; each record is either a memory reference (instruction fetch,
 * data read, data write) made by one CPU in one process's address space,
 * or a context-switch marker installing a new process on a CPU.
 */

#ifndef VRC_TRACE_RECORD_HH
#define VRC_TRACE_RECORD_HH

#include <cstdint>

#include "base/addr.hh"
#include "base/types.hh"

namespace vrc
{

/** Kind of a trace record. */
enum class RefType : std::uint8_t
{
    Instr = 0,        ///< instruction fetch
    Read = 1,         ///< data read
    Write = 2,        ///< data write
    ContextSwitch = 3 ///< process switch on this CPU (vaddr unused)
};

/** Printable name of a reference type. */
const char *refTypeName(RefType t);

/** Most CPUs a trace can name: TraceRecord::cpu is 8 bits. */
inline constexpr std::uint32_t kMaxTraceCpus = 256;

/** One trace record (8 bytes packed). */
struct TraceRecord
{
    std::uint32_t vaddr = 0;  ///< virtual byte address (or 0 for switches)
    std::uint16_t pid = 0;    ///< active process (new process for switches)
    std::uint8_t cpu = 0;     ///< issuing CPU
    RefType type = RefType::Instr;

    /** True for instruction/read/write records. */
    bool
    isMemRef() const
    {
        return type != RefType::ContextSwitch;
    }

    /** True for data reads and writes. */
    bool
    isData() const
    {
        return type == RefType::Read || type == RefType::Write;
    }

    /** The virtual address as a strong type. */
    VirtAddr va() const { return VirtAddr(vaddr); }

    bool operator==(const TraceRecord &) const = default;
};

static_assert(sizeof(TraceRecord) == 8, "TraceRecord should stay compact");

/** Convenience constructors. */
inline TraceRecord
makeRef(CpuId cpu, RefType type, ProcessId pid, VirtAddr va)
{
    return TraceRecord{va.value(), static_cast<std::uint16_t>(pid),
                       static_cast<std::uint8_t>(cpu), type};
}

inline TraceRecord
makeContextSwitch(CpuId cpu, ProcessId new_pid)
{
    return TraceRecord{0, static_cast<std::uint16_t>(new_pid),
                       static_cast<std::uint8_t>(cpu),
                       RefType::ContextSwitch};
}

} // namespace vrc

#endif // VRC_TRACE_RECORD_HH
