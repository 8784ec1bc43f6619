#include "trace/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "base/fault.hh"
#include "base/log.hh"

namespace vrc
{

namespace
{

struct BinaryHeader
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t count;
};

char
typeLetter(RefType t)
{
    switch (t) {
      case RefType::Instr:
        return 'I';
      case RefType::Read:
        return 'R';
      case RefType::Write:
        return 'W';
      case RefType::ContextSwitch:
        return 'S';
    }
    return '?';
}

/** Validate the type byte of every record in a freshly read batch. */
Result<std::vector<TraceRecord>>
validateRecords(std::vector<TraceRecord> records,
                const std::string &context)
{
    for (std::size_t i = 0; i < records.size(); ++i) {
        auto raw = static_cast<std::uint8_t>(records[i].type);
        if (raw > static_cast<std::uint8_t>(RefType::ContextSwitch))
            return makeErrorAt(ErrorKind::Parse, context, i + 1,
                               "bad reference type byte ",
                               unsigned{raw}, " in record ", i);
    }
    return records;
}

} // namespace

const char *
refTypeName(RefType t)
{
    switch (t) {
      case RefType::Instr:
        return "instr";
      case RefType::Read:
        return "read";
      case RefType::Write:
        return "write";
      case RefType::ContextSwitch:
        return "context-switch";
    }
    return "unknown";
}

Result<RefType>
refTypeFromLetter(char c)
{
    switch (c) {
      case 'I':
        return RefType::Instr;
      case 'R':
        return RefType::Read;
      case 'W':
        return RefType::Write;
      case 'S':
        return RefType::ContextSwitch;
      default:
        return makeError(ErrorKind::Parse,
                         "bad reference type letter '", c, "'");
    }
}

std::uint64_t
writeTraceBinary(std::ostream &os, const std::vector<TraceRecord> &records)
{
    BinaryHeader hdr{traceMagic, traceVersion, records.size()};
    os.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    os.write(reinterpret_cast<const char *>(records.data()),
             static_cast<std::streamsize>(records.size() *
                                          sizeof(TraceRecord)));
    return sizeof(hdr) + records.size() * sizeof(TraceRecord);
}

Result<std::vector<TraceRecord>>
tryReadTraceBinary(std::istream &is, const std::string &context)
{
    BinaryHeader hdr{};
    is.read(reinterpret_cast<char *>(&hdr), sizeof(hdr));
    if (!is)
        return makeErrorAt(ErrorKind::Parse, context, 0,
                           "not a vrc binary trace (truncated header)");
    if (hdr.magic != traceMagic)
        return makeErrorAt(ErrorKind::Format, context, 0,
                           "not a vrc binary trace (bad magic)");
    if (hdr.version != traceVersion)
        return makeErrorAt(ErrorKind::Format, context, 0,
                           "unsupported trace version ", hdr.version,
                           " (expected ", traceVersion, ")");

    // Check the claimed record count against the stream size *before*
    // allocating: a corrupt header must drive neither a huge
    // allocation nor a short read discovered only at the end.
    std::streampos pos = is.tellg();
    if (pos != std::streampos(-1)) {
        is.seekg(0, std::ios::end);
        std::streampos end = is.tellg();
        is.seekg(pos);
        if (is && end != std::streampos(-1)) {
            auto avail = static_cast<std::uint64_t>(end - pos);
            if (hdr.count > avail / sizeof(TraceRecord))
                return makeErrorAt(
                    ErrorKind::Bounds, context, 0,
                    "truncated trace body: header claims ", hdr.count,
                    " records but only ", avail, " bytes remain");
        }
    }

    // Read in bounded chunks so that even on a non-seekable stream a
    // bogus count cannot allocate more than one chunk past the data
    // that actually exists.
    constexpr std::uint64_t chunk = std::uint64_t{1} << 16;
    std::vector<TraceRecord> records;
    records.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(hdr.count, chunk)));
    std::uint64_t got = 0;
    while (got < hdr.count) {
        std::uint64_t want = std::min<std::uint64_t>(
            hdr.count - got, chunk);
        std::size_t base = records.size();
        records.resize(base + static_cast<std::size_t>(want));
        is.read(reinterpret_cast<char *>(records.data() + base),
                static_cast<std::streamsize>(want *
                                             sizeof(TraceRecord)));
        auto bytes = static_cast<std::uint64_t>(is.gcount());
        std::uint64_t read = bytes / sizeof(TraceRecord);
        got += read;
        if (!is && read < want)
            return makeErrorAt(ErrorKind::Bounds, context, 0,
                               "truncated trace body: expected ",
                               hdr.count, " records, got ", got);
    }
    return validateRecords(std::move(records), context);
}

void
writeTraceText(std::ostream &os, const std::vector<TraceRecord> &records)
{
    for (const TraceRecord &r : records) {
        os << static_cast<unsigned>(r.cpu) << ' ' << typeLetter(r.type)
           << ' ' << r.pid << ' ' << std::hex << r.vaddr << std::dec
           << '\n';
    }
}

Result<std::vector<TraceRecord>>
tryReadTraceText(std::istream &is, const std::string &context)
{
    std::vector<TraceRecord> records;
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        unsigned cpu;
        char type;
        std::uint32_t pid;
        std::uint32_t vaddr;
        if (!(ls >> cpu >> type >> pid >> std::hex >> vaddr))
            return makeErrorAt(ErrorKind::Parse, context, lineno,
                               "malformed text trace record: '", line,
                               "'");
        if (cpu > 0xFF)
            return makeErrorAt(ErrorKind::Bounds, context, lineno,
                               "cpu ", cpu, " out of range (max 255)");
        if (pid > 0xFFFF)
            return makeErrorAt(ErrorKind::Bounds, context, lineno,
                               "pid ", pid,
                               " out of range (max 65535)");
        Result<RefType> t = refTypeFromLetter(type);
        if (!t) {
            Error e = t.error();
            e.message += " in text trace";
            e.context = context;
            e.line = lineno;
            return e;
        }
        TraceRecord r;
        r.cpu = static_cast<std::uint8_t>(cpu);
        r.type = t.value();
        r.pid = static_cast<std::uint16_t>(pid);
        r.vaddr = vaddr;
        records.push_back(r);
    }
    return records;
}

Result<std::vector<TraceRecord>>
tryReadTraceDinero(std::istream &is, CpuId cpu, ProcessId pid,
                   const std::string &context)
{
    std::vector<TraceRecord> records;
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        unsigned label;
        std::uint32_t addr;
        if (!(ls >> label >> std::hex >> addr))
            return makeErrorAt(ErrorKind::Parse, context, lineno,
                               "malformed dinero record: '", line,
                               "'");
        RefType type;
        switch (label) {
          case 0:
            type = RefType::Read;
            break;
          case 1:
            type = RefType::Write;
            break;
          case 2:
            type = RefType::Instr;
            break;
          default:
            return makeErrorAt(ErrorKind::Parse, context, lineno,
                               "unknown dinero label ", label);
        }
        records.push_back(makeRef(cpu, type, pid, VirtAddr(addr)));
    }
    return records;
}

void
saveTrace(const std::string &path, const std::vector<TraceRecord> &records)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open trace file for writing: ", path);
    writeTraceBinary(os, records);
}

Result<std::vector<TraceRecord>>
tryLoadTrace(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return makeError(ErrorKind::Io,
                         "cannot open trace file: ", path);
    if (faultsArmed()) {
        // Route the raw bytes through the injector, then parse the
        // (possibly corrupted) copy.
        std::ostringstream buf;
        buf << is.rdbuf();
        std::string bytes = buf.str();
        injectInputFaults("trace", path, bytes);
        std::istringstream in(bytes);
        return tryReadTraceBinary(in, path);
    }
    return tryReadTraceBinary(is, path);
}

} // namespace vrc
