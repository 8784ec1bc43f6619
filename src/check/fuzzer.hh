/**
 * @file
 * Differential coherence fuzzer.
 *
 * Drives a randomized multiprocessor workload -- synonym-heavy memory
 * references, context-switch storms, DMA interference, and OS page
 * remaps -- against a machine wired to the coherence oracle. The run is
 * fully determined by FuzzOptions (one seeded Rng, no wall clock), so a
 * failure reproduces from its options alone; replayToJson()/
 * replayFromJson() serialize them as the replay file CI uploads, and
 * minimizeFailure() shrinks a failing run for humans.
 *
 * RNG-stream discipline: every op draws its kind and all its parameters
 * whether or not it is applied; `opMask` gates only the application.
 * Masking op categories out therefore never perturbs the sequence of
 * the remaining ops -- which is what makes greedy mask minimization
 * meaningful.
 */

#ifndef VRC_CHECK_FUZZER_HH
#define VRC_CHECK_FUZZER_HH

#include <cstdint>
#include <string>

#include "base/error.hh"
#include "coherence/protocol.hh"
#include "core/config.hh"

namespace vrc
{

/** Categories of fuzz operations (bits in FuzzOptions::opMask). */
enum class FuzzOpKind : std::uint8_t
{
    MemRef,        ///< one CPU memory reference
    ContextSwitch, ///< rotate a CPU to its next process
    DmaRead,       ///< DMA read burst (device <- memory)
    DmaWrite,      ///< DMA write burst (device -> memory)
    PageRemap,     ///< OS remaps a (pid, vpn) to a new frame
    Count
};

/** Printable op-kind name. */
const char *fuzzOpKindName(FuzzOpKind k);

/** Mask with every op category enabled. */
inline constexpr std::uint32_t opMaskAll =
    (1u << static_cast<unsigned>(FuzzOpKind::Count)) - 1;

/** Everything that determines one fuzz run. */
struct FuzzOptions
{
    std::uint64_t seed = 1;
    std::uint64_t ops = 4096;        ///< fuzz operations to apply
    std::uint64_t minTransactions = 0; ///< keep going until the bus saw
                                       ///< at least this many broadcasts

    std::uint32_t cpus = 4;
    HierarchyKind kind = HierarchyKind::VirtualReal;
    CoherencePolicy protocol = CoherencePolicy::WriteInvalidate;
    bool splitL1 = false;

    // Deliberately tiny geometry: high eviction/conflict rates reach
    // the interesting corners orders of magnitude faster.
    std::uint32_t l1Bytes = 4096;
    std::uint32_t l2Bytes = 16384;
    std::uint32_t l1Block = 16;
    std::uint32_t l2Block = 32;
    std::uint32_t pageSize = 4096;

    /**
     * Reverse-lookup-table geometry for HierarchyKind::VirtualRealRlt
     * episodes. Deliberately small so directory conflicts (and the
     * forced back-invalidations they trigger) happen constantly.
     */
    std::uint32_t rltEntries = 64;
    std::uint32_t rltAssoc = 2;

    /** Physical frames in the fuzz pool (small => heavy aliasing). */
    std::uint32_t frames = 24;
    /** Virtual pages each process maps onto the pool. */
    std::uint32_t vpnsPerProcess = 6;
    std::uint32_t processesPerCpu = 2;

    std::uint32_t opMask = opMaskAll;

    /** Run an oracle sweep every N ops (0 disables). */
    std::uint64_t sweepPeriod = 256;
    /** Run per-hierarchy checkInvariants() every N ops (0 disables). */
    std::uint64_t invariantPeriod = 0;

    /**
     * Mutation smoke mode: enable the deliberate inclusion-bit bug
     * (core/mutation.hh) so the run proves the oracle detects it.
     */
    bool mutateInclusion = false;
    SoftErrorConfig softErrors; ///< the machine's strikes (off)

    std::size_t ringCapacity = 64;
};

/** Outcome of one fuzz run. */
struct FuzzResult
{
    bool ok = true;
    std::uint64_t opsRun = 0;
    std::uint64_t refs = 0;            ///< memory references replayed
    std::uint64_t busTransactions = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t failingOp = 0;       ///< op index of the violation
    std::string violation;             ///< first violation message
    std::string ringJson;              ///< oracle dump (JSON), on failure

    /**
     * The run hit a simulated machine check (uncorrectable soft error
     * under --soft-errors). Terminal but not a coherence violation:
     * the episode halts like the hardware would, with ok still true.
     */
    bool machineCheck = false;
    std::string machineCheckReason;
};

/**
 * Check @p opt before a run builds its machine: 1 to kMaxTraceCpus
 * processors, non-empty pools, and checkMachineConfig(). A Bounds
 * error's context names the vrc-fuzz flag that sets the value.
 */
Status checkFuzzOptions(const FuzzOptions &opt);

/** Run one deterministic fuzz episode. @pre checkFuzzOptions(opt) */
FuzzResult runFuzz(const FuzzOptions &opt);

/** Serialize options as a one-object JSON replay file. */
std::string replayToJson(const FuzzOptions &opt);

/**
 * Parse a replay file produced by replayToJson().
 *
 * @return false if the text is not a recognizable replay.
 */
bool replayFromJson(const std::string &json, FuzzOptions &out);

/**
 * Load and validate a replay file. A missing file is an Io error,
 * unrecognizable content a Parse error and options
 * checkFuzzOptions() refuses a Bounds error, so a corrupt replay
 * quarantines that run instead of killing a batch. Under
 * --inject-faults the loaded bytes pass through the fault injector.
 */
Result<FuzzOptions> tryLoadReplay(const std::string &path);

/**
 * Shrink a failing run: truncate to the failing op, then greedily
 * disable op categories that are not needed to reproduce. Returns
 * options that still fail (at worst the input).
 */
FuzzOptions minimizeFailure(const FuzzOptions &failing);

} // namespace vrc

#endif // VRC_CHECK_FUZZER_HH
