#include "trace/profile_io.hh"

#include <fstream>
#include <functional>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "base/fault.hh"
#include "base/log.hh"
#include "trace/record.hh"

namespace vrc
{

namespace
{

std::string
levelsToString(const std::vector<WorkingSetLevel> &levels)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (i)
            os << ", ";
        os << levels[i].bytes << ":" << levels[i].weight;
    }
    return os.str();
}

std::vector<WorkingSetLevel>
levelsFromString(const std::string &text)
{
    std::vector<WorkingSetLevel> levels;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ',')) {
        std::size_t colon = item.find(':');
        if (colon == std::string::npos)
            throw ErrorException(makeError(
                ErrorKind::Parse, "bad data_levels entry '", item,
                "' (expected bytes:weight)"));
        WorkingSetLevel l;
        try {
            l.bytes = static_cast<std::uint32_t>(
                std::stoul(item.substr(0, colon)));
            l.weight = std::stod(item.substr(colon + 1));
        } catch (const std::exception &) {
            throw ErrorException(makeError(
                ErrorKind::Parse, "bad data_levels entry '", item,
                "' (expected bytes:weight)"));
        }
        levels.push_back(l);
    }
    if (levels.empty())
        throw ErrorException(makeError(
            ErrorKind::Parse, "data_levels must name at least one level"));
    return levels;
}

std::string
trim(const std::string &s)
{
    std::size_t a = s.find_first_not_of(" \t\r");
    std::size_t b = s.find_last_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    return s.substr(a, b - a + 1);
}

/** Bind profile fields to their file keys, for both directions. */
struct Binder
{
    using Setter = std::function<void(WorkloadProfile &,
                                      const std::string &)>;
    using Getter = std::function<std::string(const WorkloadProfile &)>;

    std::map<std::string, Setter> setters;
    std::vector<std::pair<std::string, Getter>> getters;

    template <typename T>
    void
    number(const std::string &key, T WorkloadProfile::*member)
    {
        setters[key] = [member](WorkloadProfile &p,
                                const std::string &v) {
            if constexpr (std::is_floating_point_v<T>)
                p.*member = static_cast<T>(std::stod(v));
            else
                p.*member = static_cast<T>(std::stoull(v));
        };
        getters.emplace_back(key, [member](const WorkloadProfile &p) {
            std::ostringstream os;
            os << std::setprecision(12) << p.*member;
            return os.str();
        });
    }
};

const Binder &
binder()
{
    static const Binder b = [] {
        Binder b;
        b.setters["name"] = [](WorkloadProfile &p,
                               const std::string &v) { p.name = v; };
        b.getters.emplace_back(
            "name",
            [](const WorkloadProfile &p) { return p.name; });
        b.setters["data_levels"] = [](WorkloadProfile &p,
                                      const std::string &v) {
            p.dataLevels = levelsFromString(v);
        };
        b.getters.emplace_back("data_levels",
                               [](const WorkloadProfile &p) {
                                   return levelsToString(p.dataLevels);
                               });

        b.number("num_cpus", &WorkloadProfile::numCpus);
        b.number("total_refs", &WorkloadProfile::totalRefs);
        b.number("instr_frac", &WorkloadProfile::instrFrac);
        b.number("read_frac", &WorkloadProfile::readFrac);
        b.number("write_frac", &WorkloadProfile::writeFrac);
        b.number("context_switches", &WorkloadProfile::contextSwitches);
        b.number("processes_per_cpu", &WorkloadProfile::processesPerCpu);
        b.number("page_size", &WorkloadProfile::pageSize);
        b.number("proc_count", &WorkloadProfile::procCount);
        b.number("proc_stride", &WorkloadProfile::procStride);
        b.number("proc_zipf_theta", &WorkloadProfile::procZipfTheta);
        b.number("call_prob", &WorkloadProfile::callProb);
        b.number("return_prob", &WorkloadProfile::returnProb);
        b.number("loop_back_prob", &WorkloadProfile::loopBackProb);
        b.number("loop_span_bytes", &WorkloadProfile::loopSpanBytes);
        b.number("max_call_depth", &WorkloadProfile::maxCallDepth);
        b.number("call_writes_min", &WorkloadProfile::callWritesMin);
        b.number("call_writes_max", &WorkloadProfile::callWritesMax);
        b.number("data_block_bytes", &WorkloadProfile::dataBlockBytes);
        b.number("stack_read_frac", &WorkloadProfile::stackReadFrac);
        b.number("repeat_frac", &WorkloadProfile::repeatFrac);
        b.number("seq_frac", &WorkloadProfile::seqFrac);
        b.number("shared_pages", &WorkloadProfile::sharedPages);
        b.number("shared_frac", &WorkloadProfile::sharedFrac);
        b.number("shared_write_frac", &WorkloadProfile::sharedWriteFrac);
        b.number("alias_frac", &WorkloadProfile::aliasFrac);
        b.number("shared_repeat_frac",
                 &WorkloadProfile::sharedRepeatFrac);
        b.number("hotspot_frac", &WorkloadProfile::hotspotFrac);
        b.number("hotspot_blocks", &WorkloadProfile::hotspotBlocks);
        b.number("seed", &WorkloadProfile::seed);
        return b;
    }();
    return b;
}

} // namespace

void
writeProfile(std::ostream &os, const WorkloadProfile &p)
{
    os << "# vrc workload profile\n";
    for (const auto &[key, getter] : binder().getters)
        os << key << " = " << getter(p) << "\n";
}

Result<WorkloadProfile>
tryReadProfile(std::istream &is, const std::string &context)
{
    WorkloadProfile p;
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::size_t eq = t.find('=');
        if (eq == std::string::npos)
            return makeErrorAt(ErrorKind::Parse, context, lineno,
                               "profile line has no '=': '", t, "'");
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        auto it = binder().setters.find(key);
        if (it == binder().setters.end())
            return makeErrorAt(ErrorKind::Parse, context, lineno,
                               "unknown profile key '", key, "'");
        try {
            it->second(p, value);
        } catch (const ErrorException &e) {
            Error err = e.err();
            err.context = context;
            err.line = lineno;
            return err;
        } catch (const std::exception &) {
            return makeErrorAt(ErrorKind::Parse, context, lineno,
                               "bad value '", value,
                               "' for profile key '", key, "'");
        }
    }
    // The machine needs a CPU, and a record names its CPU in 8 bits.
    if (p.numCpus < 1 || p.numCpus > kMaxTraceCpus)
        return makeErrorAt(ErrorKind::Bounds, context, 0, "num_cpus ",
                           p.numCpus, " is outside 1..", kMaxTraceCpus);
    return p;
}

void
saveProfile(const std::string &path, const WorkloadProfile &p)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open profile file for writing: ", path);
    writeProfile(os, p);
}

Result<WorkloadProfile>
tryLoadProfile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return makeError(ErrorKind::Io,
                         "cannot open profile file: ", path);
    if (faultsArmed()) {
        std::ostringstream buf;
        buf << is.rdbuf();
        std::string bytes = buf.str();
        injectInputFaults("profile", path, bytes);
        std::istringstream in(bytes);
        return tryReadProfile(in, path);
    }
    return tryReadProfile(is, path);
}

} // namespace vrc
