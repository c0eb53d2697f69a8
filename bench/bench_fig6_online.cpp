// Experiment FIG6 — sample execution of the online algorithm (Fig. 6).
//
// Reproduces the paper's worked example on a fully-connected 5-process
// system with decomposition E1 = star@P1, E2 = star@P2, E3 = triangle
// (P3,P4,P5): the message from P2 to P3 must be stamped (1,1,1) from local
// vectors (1,0,0) and (0,0,1). Prints every message's timestamp, the
// concurrency structure, and the offline width (the paper notes 2
// dimensions suffice offline for this computation).

#include <cstdio>
#include <memory>

#include "clocks/offline_timestamper.hpp"
#include "clocks/online_clock.hpp"
#include "core/causality.hpp"
#include "decomp/cover_decomposer.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

using namespace syncts;

int main() {
    std::printf("== FIG6: online algorithm sample run ==\n\n");

    auto decomposition = std::make_shared<const EdgeDecomposition>(
        trivial_complete_decomposition(paper_fig6_topology()));
    std::printf("decomposition (d = %zu): %s\n\n", decomposition->size(),
                decomposition->to_string().c_str());

    const SyncComputation c = paper_fig6_computation();
    OnlineTimestamper timestamper(decomposition);
    const auto stamps = timestamper.timestamp_computation(c);

    for (MessageId m = 0; m < c.num_messages(); ++m) {
        const SyncMessage& msg = c.message(m);
        std::printf("  m%u: P%u -> P%u  group E%u  v = %s\n", m + 1,
                    msg.sender + 1, msg.receiver + 1,
                    decomposition->group_of(msg.sender, msg.receiver) + 1,
                    stamps[m].to_string().c_str());
    }

    const bool headline =
        stamps[2] == VectorTimestamp(std::vector<std::uint64_t>{1, 1, 1});
    std::printf("\npaper's worked value: v(P2->P3) = (1,1,1): %s\n",
                headline ? "ok" : "FAIL");

    const Poset truth = message_poset(c);
    std::printf("timestamps encode poset exactly: %s\n",
                encoding_mismatches(truth, stamps) == 0 ? "ok" : "FAIL");

    const OfflineResult offline = offline_timestamps(c);
    std::printf(
        "offline width for this computation: %zu (paper: 2-dimensional "
        "vectors suffice): %s\n",
        offline.width, offline.width == 2 ? "ok" : "FAIL");
    std::printf("offline stamps:");
    for (const auto& v : offline.timestamps) {
        std::printf(" %s", v.to_string().c_str());
    }
    std::printf("\n");
    return 0;
}
