// Experiment TAB-WIRE — actual wire bytes per message across the
// Section 6 design space.
//
// Four piggyback schemes over identical workloads:
//   paper    — Fig. 5 vectors of width d, varint-encoded (message + ack)
//   fm-full  — FM-sync vectors of width N, varint-encoded (message + ack)
//   fm-diff  — Singhal–Kshemkalyani differential updates (message + ack)
//   direct   — Fowler–Zwaenepoel: nothing on the wire beyond the message
//              itself (dependencies recorded locally; queries pay instead)
// The paper's scheme is the only one that is simultaneously small,
// constant-size, query-cheap and exact.

#include <cstdio>

#include "clocks/direct_dependency.hpp"
#include "clocks/fm_differential.hpp"
#include "clocks/fm_sync_clock.hpp"
#include "clocks/wire.hpp"
#include "common/rng.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "trace/generator.hpp"

using namespace syncts;

namespace {

void study(const char* family, const Graph& g, std::uint64_t seed) {
    Rng rng(seed);
    WorkloadOptions options;
    options.num_messages = 500;
    const SyncComputation c = random_computation(g, options, rng);
    const SyncSystem system{Graph(g)};

    auto paper = system.make_timestamper();
    FmSyncTimestamper fm(c.num_processes());
    FmDifferentialTimestamper diff(c.num_processes());
    std::size_t paper_bytes = 0;
    std::size_t fm_bytes = 0;
    for (const SyncMessage& m : c.messages()) {
        paper_bytes +=
            2 * encoded_size(paper.timestamp_message(m.sender, m.receiver));
        fm_bytes +=
            2 * encoded_size(fm.timestamp_message(m.sender, m.receiver));
    }
    diff.timestamp_computation(c);

    const double messages = static_cast<double>(c.num_messages());
    std::printf("%-20s %5zu %5zu %10.1f %10.1f %10.1f %10s\n", family,
                g.num_vertices(), system.width(),
                static_cast<double>(paper_bytes) / messages,
                static_cast<double>(fm_bytes) / messages,
                diff.stats().mean_bytes_per_message(), "0.0");
}

}  // namespace

int main() {
    std::printf("== TAB-WIRE: piggyback bytes per message ==\n\n");
    std::printf("%-20s %5s %5s %10s %10s %10s %10s\n", "family", "N", "d",
                "paper", "fm-full", "fm-diff", "direct");
    Rng seeds(8008);
    study("star", topology::star(32), seeds());
    study("star", topology::star(128), seeds());
    study("client-server k=3", topology::client_server(3, 13), seeds());
    study("client-server k=3", topology::client_server(3, 61), seeds());
    study("client-server k=8", topology::client_server(8, 120), seeds());
    study("kary-tree k=4", topology::kary_tree(64, 4), seeds());
    study("ring", topology::ring(32), seeds());
    study("complete (worst)", topology::complete(16), seeds());
    std::printf(
        "\nshape check: paper bytes track d (constant for star /\n"
        "client-server as N grows); fm-full tracks N; fm-diff sits between\n"
        "(helps only when channels repeat back-to-back); direct ships\n"
        "nothing but gives up O(d) queries (see bench_precedence).\n");
    return 0;
}
