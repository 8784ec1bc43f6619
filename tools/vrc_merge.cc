/**
 * @file
 * Merge partial campaign checkpoint journals.
 *
 * Distributed sweeps leave partial journals behind -- a coordinator
 * killed mid-run, independent per-machine runs over hand-split cell
 * ranges, or salvage from a dead disk. vrc-merge validates each input
 * with the same loader the resume path uses (torn tail lines are
 * skipped, foreign campaign keys rejected) and emits one canonical
 * journal: header plus cell lines in index order, byte-identical to
 * what an uninterrupted single-process sweep would have written for
 * the same completed set.
 *
 * Duplicate cells across inputs are fine when the lines agree byte for
 * byte; two inputs DISAGREEING about a cell is a hard error naming
 * both file/line locations (exit 6), never last-writer-wins -- a
 * disagreement means somebody computed a wrong answer, and merging
 * must not pick one silently.
 *
 * Usage:
 *   vrc-merge --out=<journal> [--manifest=<json>] <journal>...
 *
 * Exit codes: 0 merged and complete, 1 load/write failure, 2 usage,
 * 3 merged but cells missing, 6 conflicting cell summaries.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "base/cli.hh"
#include "sim/campaign.hh"
#include "sim/shard.hh"

using namespace vrc;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: vrc-merge --out=<journal> [--manifest=<json>] "
        "<journal>...\n"
        "  Validate and merge partial campaign checkpoint journals\n"
        "  into one canonical journal. All inputs must share one\n"
        "  campaign key and cell count; torn tail lines are skipped;\n"
        "  byte-identical duplicate cells collapse; disagreeing\n"
        "  duplicates are a hard error naming both sources.\n"
        "exit codes:\n"
        "  0 merged, all cells present   1 load or write failure\n"
        "  2 usage error                 3 merged, cells missing\n"
        "  6 conflicting cell summaries\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path, manifest_path;
    std::vector<std::string> inputs;
    cli::parse({"vrc-merge", usage}, argc, argv,
               {{"--out", out_path}, {"--manifest", manifest_path}},
               &inputs);
    if (out_path.empty() || inputs.empty())
        usage();

    Result<ShardMerge> merged = mergeJournalFiles(inputs);
    if (!merged) {
        std::cerr << "vrc-merge: " << merged.error().describe()
                  << "\n";
        return isConflictError(merged.error()) ? 6 : 1;
    }
    ShardMerge m = merged.take();

    Status wrote =
        writeFileAtomic(out_path, canonicalJournalText(m.merged));
    if (!wrote) {
        std::cerr << "vrc-merge: cannot write " << out_path << ": "
                  << wrote.error().message << "\n";
        return 1;
    }
    if (!manifest_path.empty()) {
        Status wroteManifest = writeFileAtomic(
            manifest_path, mergeManifestJson(m) + "\n");
        if (!wroteManifest) {
            std::cerr << "vrc-merge: cannot write " << manifest_path
                      << ": " << wroteManifest.error().message
                      << "\n";
            return 1;
        }
    }
    std::cerr << "vrc-merge: " << m.inputs << " journals, "
              << m.merged.completedCells() << "/" << m.merged.cells
              << " cells (" << m.duplicates << " duplicates collapsed, "
              << m.torn << " torn lines skipped, " << m.missing.size()
              << " missing)\n";
    return m.missing.empty() ? 0 : 3;
}
