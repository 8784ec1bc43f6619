#include "sim/json_stats.hh"

#include <iomanip>
#include <sstream>
#include <string_view>

namespace vrc
{

namespace
{

void
field(std::ostringstream &os, std::string_view name, double v, bool &first)
{
    if (!first)
        os << ",";
    first = false;
    os << "\"" << name << "\":" << std::setprecision(10) << v;
}

void
field(std::ostringstream &os, std::string_view name, std::uint64_t v,
      bool &first)
{
    if (!first)
        os << ",";
    first = false;
    os << "\"" << name << "\":" << v;
}

void
field(std::ostringstream &os, std::string_view name, const std::string &v,
      bool &first)
{
    if (!first)
        os << ",";
    first = false;
    os << "\"" << name << "\":\"" << v << "\"";
}

} // namespace

std::string
toJson(const SimSummary &s)
{
    std::ostringstream os;
    bool first = true;
    os << "{";
    field(os, "kind", hierarchyKindName(s.kind), first);
    field(os, "l1_size", std::uint64_t{s.l1Size}, first);
    field(os, "l2_size", std::uint64_t{s.l2Size}, first);
    field(os, "split", std::uint64_t{s.split ? 1u : 0u}, first);
    field(os, "h1", s.h1, first);
    field(os, "h2", s.h2, first);
    field(os, "h1_instr", s.h1Instr, first);
    field(os, "h1_read", s.h1Read, first);
    field(os, "h1_write", s.h1Write, first);
    field(os, "refs", s.refs, first);
    field(os, "synonym_hits", s.synonymHits, first);
    field(os, "synonym_moves", s.synonymMoves, first);
    field(os, "writeback_cancels", s.writebackCancels, first);
    field(os, "swapped_writebacks", s.swappedWritebacks, first);
    field(os, "inclusion_invalidations", s.inclusionInvalidations,
          first);
    field(os, "bus_transactions", s.busTransactions, first);
    field(os, "memory_writes", s.memoryWrites, first);
    field(os, "timing_mode", timingModeName(s.timingMode), first);
    field(os, "avg_access_time", s.avgAccessTime, first);
    field(os, "avg_access_cycles", s.avgAccessCycles, first);
    field(os, "bus_utilization", s.busUtilization, first);
    field(os, "avg_bus_wait", s.avgBusWait, first);
    if (!first)
        os << ",";
    os << "\"l1_msgs_per_cpu\":[";
    for (std::size_t i = 0; i < s.l1MsgsPerCpu.size(); ++i) {
        if (i)
            os << ",";
        os << s.l1MsgsPerCpu[i];
    }
    os << "]}";
    return os.str();
}

std::string
toJson(const MpSimulator &sim)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    field(os, "kind", hierarchyKindName(sim.config().kind), first);
    field(os, "cpus", std::uint64_t{sim.cpuCount()}, first);
    field(os, "refs", sim.refsProcessed(), first);
    field(os, "h1", sim.h1(), first);
    field(os, "h2", sim.h2(), first);
    field(os, "bus_transactions", sim.bus().transactions(), first);
    field(os, "timing_mode", timingModeName(sim.timingMode()), first);
    field(os, "avg_access_time", sim.measuredAccessTime(), first);
    field(os, "avg_access_cycles", sim.avgAccessCycles(), first);
    field(os, "bus_utilization", sim.busUtilization(), first);
    field(os, "avg_bus_wait", sim.avgBusWait(), first);
    field(os, "bus_busy_ticks", sim.busBusyTime(), first);
    field(os, "bus_wait_ticks", sim.busWaitTime(), first);
    os << ",\"bus\":{";
    bool bfirst = true;
    for (const auto &[key, n] : sim.bus().stats().all())
        field(os, key, n, bfirst);
    os << "},\"per_cpu\":[";
    for (CpuId c = 0; c < sim.cpuCount(); ++c) {
        if (c)
            os << ",";
        os << "{";
        bool cfirst = true;
        for (const auto &[key, n] : sim.hierarchy(c).stats().all())
            field(os, key, n, cfirst);
        os << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace vrc
