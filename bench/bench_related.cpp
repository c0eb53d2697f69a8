// Experiment TAB-REL — the Section 6 related-work trade-off, quantified.
//
// Plausible clocks (Torres-Rojas & Ahamad) achieve fixed-size vectors by
// folding processes onto components, at the price of falsely ordering some
// concurrent pairs. The paper's clocks are the same size as a well-chosen
// fold (d components) but remain exact. This bench sweeps the fold width R
// and reports concurrency accuracy vs the paper's d-width exact clocks.

#include <cstdio>

#include "clocks/online_clock.hpp"
#include "clocks/plausible_clock.hpp"
#include "common/rng.hpp"
#include "core/causality.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

using namespace syncts;

namespace {

void study(const char* family, const Graph& g, std::uint64_t seed) {
    Rng rng(seed);
    WorkloadOptions options;
    options.num_messages = 250;
    const SyncComputation c = random_computation(g, options, rng);
    const Poset truth = message_poset(c);
    const SyncSystem system{Graph(g)};
    const std::size_t n = g.num_vertices();
    const std::size_t d = system.width();

    auto exact = system.make_timestamper();
    const auto exact_stamps = exact.timestamp_computation(c);

    std::printf("%-20s N=%-4zu d=%-3zu | paper(d)=%.3f", family, n, d,
                concurrency_accuracy(truth, exact_stamps));
    for (const std::size_t width : {1ul, 2ul, d, 2 * d, n}) {
        PlausibleTimestamper plausible(n, width);
        const auto stamps = plausible.timestamp_computation(c);
        std::printf("  R%zu=%.3f", width,
                    concurrency_accuracy(truth, stamps));
    }
    std::printf("\n");
}

}  // namespace

int main() {
    std::printf(
        "== TAB-REL: plausible clocks vs the paper's exact clocks ==\n"
        "(concurrency accuracy: fraction of truly concurrent pairs the\n"
        " stamps recognize; the paper's d-component clock is always 1.0)\n\n");
    Rng seeds(7007);
    study("client-server k=3", topology::client_server(3, 13), seeds());
    study("client-server k=3", topology::client_server(3, 29), seeds());
    study("kary-tree k=4", topology::kary_tree(32, 4), seeds());
    study("ring", topology::ring(16), seeds());
    study("complete", topology::complete(12), seeds());
    Rng rng(7117);
    study("gnp(16,0.3)", topology::random_gnp(16, 0.3, rng), seeds());

    std::printf(
        "\nshape check: plausible accuracy climbs toward 1.0 only as R "
        "approaches N; the paper's clock is exact already at width d.\n");
    return 0;
}
