// Experiment TAB-STREAM — streamed ingestion at a flat RSS plateau
// (docs/STREAMING.md).
//
// Drives a procedurally generated complete(16) trace through
// IncrementalPrecedenceIndex — no materialized SyncComputation, so the
// only resident state is the streaming stack itself — and exits 1 if
// memory grows past the warmed-up plateau or over the budget.
//
// Usage: bench_analysis [stream_msgs] [budget_mb]
//   stream_msgs  streamed messages (default 2000000; the 10M-trace
//                acceptance run passes 10000000)
//   budget_mb    absolute peak-RSS budget on top of the always-on
//                plateau gate (0 = plateau gate only, the default —
//                sanitized builds inflate RSS)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.hpp"
#include "core/streaming_index.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"

using namespace syncts;

namespace {

// Current resident set in MB, read from /proc/self/status (Linux).
// Returns 0.0 where the file is absent so the gate degrades to a no-op
// rather than a false failure on exotic hosts.
double read_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double mb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmRSS:", 6) == 0) {
            mb = std::strtod(line + 6, nullptr) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

// The flat-RSS streamed-ingestion row. Events are generated
// procedurally — nothing O(stream_msgs) is ever materialized, so any
// RSS growth is the streaming stack leaking residency. The gate:
// after a warm-up tenth of the run the window is full and RSS must
// plateau; peak RSS past that point may exceed the plateau only by an
// allocator-jitter allowance (10% + 48MB — a leak at 10M messages is
// ~1.3GB, two orders of magnitude above it). A nonzero budget_mb adds
// an absolute ceiling on top.
bool streaming_row(const Graph& g, std::size_t stream_msgs,
                   std::size_t budget_mb) {
    const SyncSystem system{Graph(g)};
    StreamingIndexOptions options;
    const std::size_t width = g.num_vertices();
    if (budget_mb > 0) {
        // Spend at most half the budget on resident stamps.
        const std::size_t stamp_bytes = width * 8;
        const std::size_t slots = budget_mb * 1024 * 1024 / 2 / stamp_bytes;
        options.window = std::max<std::size_t>(1024, slots);
    }
    IncrementalPrecedenceIndex index(system, options);

    const std::size_t num_procs = g.num_vertices();
    Rng rng(0x5757EA11);
    const std::size_t warmup = stream_msgs / 10 + 1;
    const std::size_t sample_every = stream_msgs / 64 + 1;
    double plateau_mb = 0.0;
    double peak_mb = 0.0;
    std::uint64_t probe_hits = 0;

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < stream_msgs; ++i) {
        const auto sender = static_cast<ProcessId>(rng.below(num_procs));
        const auto receiver = static_cast<ProcessId>(
            (sender + 1 + rng.below(num_procs - 1)) % num_procs);
        const MessageId id = index.ingest_message(sender, receiver);
        if ((i & 4095u) == 0 && i > 0) {
            // Keep the query path hot: probe two resident pairs.
            const std::uint64_t lo = index.resident_frontier();
            const auto a = static_cast<MessageId>(
                lo + rng.below(static_cast<std::uint64_t>(id) - lo + 1));
            probe_hits += index.precedes(a, id) ? 1u : 0u;
            probe_hits += index.precedes(id, a) ? 1u : 0u;
        }
        if (i == warmup) plateau_mb = read_rss_mb();
        if (i > warmup && i % sample_every == 0) {
            peak_mb = std::max(peak_mb, read_rss_mb());
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    peak_mb = std::max(peak_mb, read_rss_mb());

    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    const double ns_per_msg =
        seconds * 1e9 / static_cast<double>(stream_msgs);
    const double msgs_per_sec =
        static_cast<double>(stream_msgs) / (seconds > 0 ? seconds : 1e-9);

    const double allowance = plateau_mb * 0.10 + 48.0;
    const bool flat = plateau_mb == 0.0 || peak_mb <= plateau_mb + allowance;
    const bool under_budget =
        budget_mb == 0 || peak_mb <= static_cast<double>(budget_mb);

    std::printf("\n== TAB-STREAM: streamed ingestion (window %zu stamps) "
                "==\n\n",
                options.window);
    std::printf("streamed: %zu msgs  %0.1f ns/msg  %0.2f Mmsg/s  "
                "(%llu probes precede)\n",
                stream_msgs, ns_per_msg, msgs_per_sec / 1e6,
                static_cast<unsigned long long>(probe_hits));
    std::printf("rss: plateau %.1f MB  peak %.1f MB  %s%s\n", plateau_mb,
                peak_mb, flat ? "flat" : "GREW",
                budget_mb == 0 ? ""
                               : (under_budget ? " (under budget)"
                                               : " (OVER BUDGET)"));
    return flat && under_budget;
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t stream_msgs = 2000000;
    std::size_t budget_mb = 0;
    if (argc > 1) stream_msgs = std::strtoull(argv[1], nullptr, 10);
    if (argc > 2) budget_mb = std::strtoull(argv[2], nullptr, 10);
    if (stream_msgs == 0) {
        std::fprintf(stderr, "usage: bench_analysis [stream_msgs] "
                             "[budget_mb]\n");
        return 2;
    }
    return streaming_row(topology::complete(16), stream_msgs, budget_mb)
               ? 0
               : 1;
}
