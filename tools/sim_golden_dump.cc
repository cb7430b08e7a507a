/**
 * @file
 * sim_golden_dump — print the content hash of every catalog cell's
 * canonical serialized SimResult.
 *
 * Usage:
 *   sim_golden_dump [--depths 2,7,14,25] [--length N] [--warmup N]
 *                   [--workload NAME]
 *
 * One line per (workload, depth) cell:
 *
 *   <workload> <depth> <fnv1a-hex-of-serializeSimResult-bytes>
 *                      <fnv1a-hex-of-ledger-buckets>
 *
 * The serialized cache payload is the canonical byte form of a
 * simulation result, so the first hash pins simulator behaviour bit
 * for bit; the second (uarch/sim_result.hh ledgerHash) pins the
 * per-depth stall-cycle decomposition separately, so a drift in
 * stall *attribution* is named as such.
 *
 * Each workload's requested depths are walked in one
 * simulateMultiDepth() call, the lane counts a sweep runs, and every
 * cell is also walked alone by simulate(), the 1-lane walk. The hashes
 * printed are the multi-lane results; a cell whose two results differ
 * by a single byte is named on stderr, and the exit status is then 1.
 * Two uses:
 *
 *  - regenerating the golden table consumed by
 *    tests/sweep/test_engine_determinism.cc after an *intentional*
 *    semantics change (see docs/PERFORMANCE.md);
 *  - auditing that a performance-only change left every result
 *    byte-identical: dump before, dump after, diff.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sweep/result_cache.hh"
#include "sweep/sweep_engine.hh"
#include "trace/replay_buffer.hh"
#include "uarch/multi_depth_walk.hh"
#include "uarch/replay_annotations.hh"
#include "uarch/simulator.hh"
#include "workloads/catalog.hh"

using namespace pipedepth;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--depths LIST] [--length N] [--warmup N]\n"
                 "          [--workload NAME]\n"
                 "  LIST is comma-separated depths or LO..HI ranges\n",
                 argv0);
    return 2;
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : bytes)
        h = (h ^ b) * 1099511628211ull;
    return h;
}

bool
parseDepths(const std::string &list, std::vector<int> *out)
{
    std::size_t pos = 0;
    while (pos < list.size()) {
        char *end = nullptr;
        const long lo = std::strtol(list.c_str() + pos, &end, 10);
        std::size_t next = static_cast<std::size_t>(end - list.c_str());
        long hi = lo;
        if (list.compare(next, 2, "..") == 0) {
            hi = std::strtol(list.c_str() + next + 2, &end, 10);
            next = static_cast<std::size_t>(end - list.c_str());
        }
        if (end == list.c_str() + pos || lo < 2 || hi < lo)
            return false;
        for (long p = lo; p <= hi; ++p)
            out->push_back(static_cast<int>(p));
        if (next < list.size() && list[next] == ',')
            ++next;
        pos = next;
    }
    return !out->empty();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int> depths;
    std::size_t length = 30000;
    std::size_t warmup = 10000;
    std::string only;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--depths" && i + 1 < argc) {
            if (!parseDepths(argv[++i], &depths))
                return usage(argv[0]);
        } else if (arg == "--length" && i + 1 < argc) {
            length = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--warmup" && i + 1 < argc) {
            warmup = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--workload" && i + 1 < argc) {
            only = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (depths.empty())
        depths = {2, 7, 14, 25};

    SweepOptions opt;
    opt.trace_length = length;
    opt.warmup_instructions = warmup;
    std::vector<PipelineConfig> configs;
    for (int p : depths)
        configs.push_back(opt.configAtDepth(p));

    bool identical = true;
    for (const WorkloadSpec &spec : workloadCatalog()) {
        if (!only.empty() && spec.name != only)
            continue;
        const ReplayBuffer replay = spec.makeReplay(length);
        const ReplayAnnotations ann = annotateReplay(replay, configs.front());
        const std::vector<SimResult> lanes =
            simulateMultiDepth(replay, ann, configs);
        for (std::size_t k = 0; k < configs.size(); ++k) {
            const std::vector<std::uint8_t> bytes =
                serializeSimResult(lanes[k]);
            if (bytes !=
                serializeSimResult(simulate(replay, ann, configs[k]))) {
                std::fprintf(stderr,
                             "%s %d: the %zu-lane walk differs from the "
                             "1-lane walk\n",
                             spec.name.c_str(), depths[k], configs.size());
                identical = false;
            }
            std::printf("%s %d %016llx %016llx\n", spec.name.c_str(),
                        depths[k],
                        static_cast<unsigned long long>(fnv1a(bytes)),
                        static_cast<unsigned long long>(ledgerHash(lanes[k])));
        }
    }
    return identical ? 0 : 1;
}
