/**
 * @file
 * Whole-machine equivalence of the SoA tag store with the original
 * array-of-structures store, held by a frozen record.
 *
 * Randomized machine configurations -- geometry, associativity,
 * replacement policy, organization, coherence protocol, split level-1,
 * timing engine, soft-error arming -- are replayed over a small trace
 * and every architectural observable is diffed against
 * tests/golden/soa_equivalence.golden: the reference count, the
 * derived hit ratios and timing figures down to the last mantissa
 * bit, the machine-check message, and digests of the full per-CPU and
 * bus counter map and of each CPU's event stream. The record was made
 * while both stores were still selectable at run time, and both
 * reproduced it; the store-level differential against the legacy
 * store lives in tag_store_param_test.cc.
 *
 * After an intentional behaviour change, regenerate the record with
 *
 *     VRC_UPDATE_GOLDEN=1 ./soa_equivalence_test
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "base/fault.hh"
#include "core/events.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"

namespace vrc
{
namespace
{

/** One randomized machine configuration. */
struct EquivConfig
{
    std::string trace;
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1Size = 16 * 1024;
    std::uint32_t l2Size = 256 * 1024;
    std::uint32_t l1Assoc = 1;
    std::uint32_t l2Assoc = 1;
    ReplPolicy policy = ReplPolicy::LRU;
    bool split = false;
    CoherencePolicy protocol = CoherencePolicy::WriteInvalidate;
    TimingMode timingMode = TimingMode::Analytic;
    std::uint64_t softErrorSeed = 0; ///< 0 = disarmed

    std::string
    describe() const
    {
        return trace + " kind=" +
               std::to_string(static_cast<int>(kind)) + " l1=" +
               std::to_string(l1Size) + "/" + std::to_string(l1Assoc) +
               " l2=" + std::to_string(l2Size) + "/" +
               std::to_string(l2Assoc) + " policy=" +
               std::to_string(static_cast<int>(policy)) +
               (split ? " split" : "") + " proto=" +
               std::to_string(static_cast<int>(protocol)) + " timing=" +
               std::to_string(static_cast<int>(timingMode)) +
               " soft=" + std::to_string(softErrorSeed);
    }
};

/** Everything one run exposes architecturally. */
struct RunResult
{
    std::map<std::string, std::uint64_t> counters;
    std::vector<std::vector<HierarchyEvent>> events; ///< per CPU
    std::uint64_t h1Bits = 0, h2Bits = 0;
    std::uint64_t accessTimeBits = 0, accessCyclesBits = 0;
    std::uint64_t refs = 0;

    /** Machine-check message when the run aborted (soft errors). */
    std::string machineCheck;
};

std::uint64_t
bits(double v)
{
    std::uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

const TraceBundle &
equivTrace(const std::string &name)
{
    static std::map<std::string, TraceBundle> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        WorkloadProfile p = scaled(profileByName(name), 0.004);
        it = cache.emplace(name, generateTrace(p)).first;
    }
    return it->second;
}

RunResult
runOnce(const EquivConfig &cfg)
{
    const TraceBundle &bundle = equivTrace(cfg.trace);
    MachineConfig mc =
        makeMachineConfig(cfg.kind, cfg.l1Size, cfg.l2Size,
                          bundle.profile.pageSize, cfg.split);
    mc.hierarchy.l1.assoc = cfg.l1Assoc;
    mc.hierarchy.l2.assoc = cfg.l2Assoc;
    mc.hierarchy.l1.policy = cfg.policy;
    mc.hierarchy.l2.policy = cfg.policy;
    mc.hierarchy.protocol = cfg.protocol;
    if (cfg.softErrorSeed != 0) {
        mc.hierarchy.softErrors =
            parseSoftErrors(std::to_string(cfg.softErrorSeed)).take();
    }
    mc.timingMode = cfg.timingMode;
    mc.invariantPeriod = 4096;

    MpSimulator sim(mc, bundle.profile);
    std::vector<RecordingObserver> observers(sim.cpuCount());
    for (CpuId c = 0; c < sim.cpuCount(); ++c)
        sim.hierarchy(c).setObserver(&observers[c]);

    RunResult r;
    // An armed soft-error model may legitimately machine-check
    // mid-replay (uncorrectable strike on dirty data). That abort is
    // itself an architectural observable: the run must fail at the
    // recorded point with the recorded message, and the counters and
    // events accumulated up to the abort must still match.
    try {
        sim.run(bundle.records);
        sim.checkInvariants();
    } catch (const std::exception &e) {
        r.machineCheck = e.what();
    }
    for (CpuId c = 0; c < sim.cpuCount(); ++c) {
        std::string prefix = "cpu" + std::to_string(c) + ".";
        for (const auto &[key, n] : sim.hierarchy(c).stats().all())
            r.counters[prefix + std::string(key)] = n;
        r.events.push_back(observers[c].events());
    }
    for (const auto &[key, n] : sim.bus().stats().all())
        r.counters["bus." + std::string(key)] = n;
    r.h1Bits = bits(sim.h1());
    r.h2Bits = bits(sim.h2());
    r.accessTimeBits = bits(sim.measuredAccessTime());
    r.accessCyclesBits = bits(sim.avgAccessCycles());
    r.refs = sim.refsProcessed();
    return r;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** FNV-1a over the little-endian bytes of @p v. */
void
fnv1a(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
}

/** FNV-1a over @p s and a terminating NUL ("ab","c" != "a","bc"). */
void
fnv1a(std::uint64_t &h, const std::string &s)
{
    for (unsigned char ch : s)
        h = (h ^ ch) * 0x100000001b3ull;
    h *= 0x100000001b3ull;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/**
 * The golden record of one run: the configuration and reference
 * count, the four derived figures as raw IEEE-754 bits, the
 * machine-check message, and digests of the full counter map and of
 * each CPU's event stream.
 */
std::vector<std::string>
record(const std::string &tag, const EquivConfig &cfg,
       const RunResult &r)
{
    std::vector<std::string> out;
    out.push_back(tag + " config " + cfg.describe() + " refs " +
                  std::to_string(r.refs));
    out.push_back(tag + " h1 " + hex(r.h1Bits) + " h2 " +
                  hex(r.h2Bits) + " access_time " +
                  hex(r.accessTimeBits) + " access_cycles " +
                  hex(r.accessCyclesBits));
    out.push_back(tag + " machine_check " +
                  (r.machineCheck.empty() ? "-" : r.machineCheck));
    std::uint64_t h = kFnvBasis;
    for (const auto &[key, value] : r.counters) {
        fnv1a(h, key);
        fnv1a(h, value);
    }
    out.push_back(tag + " counters " + std::to_string(r.counters.size()) +
                  " fnv " + hex(h));
    for (std::size_t c = 0; c < r.events.size(); ++c) {
        h = kFnvBasis;
        for (const HierarchyEvent &ev : r.events[c]) {
            fnv1a(h, static_cast<std::uint64_t>(ev.kind));
            fnv1a(h, ev.cpu);
            fnv1a(h, ev.refIndex);
            fnv1a(h, ev.vaddr);
            fnv1a(h, ev.paddr);
        }
        out.push_back(tag + " events cpu" + std::to_string(c) + " " +
                      std::to_string(r.events[c].size()) + " fnv " +
                      hex(h));
    }
    return out;
}

/**
 * Diff @p lines against the @p section lines of the golden record, or
 * -- when VRC_UPDATE_GOLDEN is set -- rewrite that section in place,
 * keeping the others. Every line of a section starts with its name.
 */
void
compareGolden(const std::string &section,
              const std::vector<std::string> &lines)
{
    const std::string path =
        std::string(VRC_GOLDEN_DIR) + "/soa_equivalence.golden";
    const std::string prefix = section + " ";
    auto inSection = [&](const std::string &l) {
        return l.compare(0, prefix.size(), prefix) == 0;
    };
    std::vector<std::string> all;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            all.push_back(line);
    }

    const char *update = std::getenv("VRC_UPDATE_GOLDEN");
    if (update && update[0]) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const std::string &l : all) {
            if (!inSection(l))
                out << l << "\n";
        }
        for (const std::string &l : lines)
            out << l << "\n";
        GTEST_SKIP() << "regenerated " << section << " in " << path;
    }

    std::vector<std::string> want;
    for (const std::string &l : all) {
        if (inSection(l))
            want.push_back(l);
    }
    ASSERT_FALSE(want.empty())
        << "no " << section << " record in " << path
        << " (run with VRC_UPDATE_GOLDEN=1 to create it)";
    ASSERT_EQ(lines.size(), want.size())
        << section << " record line count drifted";
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i], want[i]) << section << " record drifted";
}

/** Replay every config and diff the runs against the golden record. */
void
checkAgainstGolden(const std::string &section,
                   const std::vector<EquivConfig> &configs)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        for (std::string &l : record(section + " " + std::to_string(i),
                                     configs[i], runOnce(configs[i])))
            lines.push_back(std::move(l));
    }
    compareGolden(section, lines);
}

/** Deterministic random configuration stream. */
std::vector<EquivConfig>
randomConfigs(std::size_t n)
{
    std::mt19937_64 rng(0xC0FFEE5EEDull);
    const char *traces[] = {"thor", "pops", "abaqus"};
    const HierarchyKind kinds[] = {HierarchyKind::VirtualReal,
                                   HierarchyKind::RealRealIncl,
                                   HierarchyKind::RealRealNoIncl};
    const std::uint32_t l1s[] = {2048, 4096, 8192, 16384};
    const std::uint32_t ratios[] = {8, 16, 32};
    std::vector<EquivConfig> out;
    for (std::size_t i = 0; i < n; ++i) {
        EquivConfig c;
        c.trace = traces[rng() % 3];
        c.kind = kinds[rng() % 3];
        c.l1Size = l1s[rng() % 4];
        c.l2Size = c.l1Size * ratios[rng() % 3];
        if (c.l2Size < 65536)
            c.l2Size = 65536; // keep the R-pointer span nonempty
        c.l1Assoc = 1u << (rng() % 3);
        c.l2Assoc = 1u << (rng() % 2);
        c.policy = rng() % 4 == 0 ? ReplPolicy::Random : ReplPolicy::LRU;
        c.split = c.kind == HierarchyKind::VirtualReal && rng() % 2 == 0;
        c.protocol = rng() % 2 == 0 ? CoherencePolicy::WriteInvalidate
                                    : CoherencePolicy::WriteUpdate;
        c.timingMode =
            rng() % 3 == 0 ? TimingMode::Cycle : TimingMode::Analytic;
        if (rng() % 3 == 0)
            c.softErrorSeed = rng() % 100000 + 1;
        out.push_back(c);
    }
    return out;
}

TEST(SoaEquivalence, RandomizedConfigs)
{
    checkAgainstGolden("RandomizedConfigs", randomConfigs(12));
}

/** The paper's canonical configuration, all three organizations. */
TEST(SoaEquivalence, PaperConfigs)
{
    std::vector<EquivConfig> configs;
    for (auto kind :
         {HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl,
          HierarchyKind::RealRealNoIncl}) {
        EquivConfig c;
        c.trace = "pops";
        c.kind = kind;
        c.l1Size = 16 * 1024;
        c.l2Size = 256 * 1024;
        configs.push_back(c);
    }
    checkAgainstGolden("PaperConfigs", configs);
}

/** Cycle timing engine with a split V-cache (the layered-cost path). */
TEST(SoaEquivalence, CycleSplit)
{
    EquivConfig c;
    c.trace = "abaqus";
    c.kind = HierarchyKind::VirtualReal;
    c.l1Size = 8 * 1024;
    c.l2Size = 128 * 1024;
    c.split = true;
    c.timingMode = TimingMode::Cycle;
    checkAgainstGolden("CycleSplit", {c});
}

} // namespace
} // namespace vrc
