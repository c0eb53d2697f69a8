// Experiment TAB-EVT — Section 5 internal-event timestamps vs the FM
// event-clock baseline.
//
// Storage: the paper's tuple costs 2d+2 words per internal event
// (prev + succ vectors of width d, counter, process id); FM event clocks
// cost N words. With d << N the tuple wins despite holding two vectors.
// Correctness: both characterize happened-before exactly (verified).

#include <cstdio>

#include "clocks/event_timestamp.hpp"
#include "clocks/fm_event_clock.hpp"
#include "clocks/online_clock.hpp"
#include "common/rng.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

using namespace syncts;

namespace {

void study(const char* family, const Graph& g, std::uint64_t seed,
           bool verify) {
    Rng rng(seed);
    WorkloadOptions options;
    options.num_messages = 120;
    options.internal_rate = 1.0;
    const SyncComputation c = random_computation(g, options, rng);

    const SyncSystem system{Graph(g)};
    auto timestamper = system.make_timestamper();
    const auto message_stamps = timestamper.timestamp_computation(c);
    const auto tuples =
        timestamp_internal_events(c, message_stamps, system.width());
    const FmEventTimestamps fm = fm_event_timestamps(c);

    const std::size_t n = g.num_vertices();
    const std::size_t d = system.width();
    const std::size_t tuple_words = 2 * d + 2;
    const std::size_t fm_words = n;

    std::size_t tuple_errors = 0;
    if (verify) {
        const Poset truth = event_poset(c);
        for (InternalId e = 0; e < c.num_internal_events(); ++e) {
            for (InternalId f = 0; f < c.num_internal_events(); ++f) {
                if (e == f) continue;
                const bool expected = truth.less(internal_element(c, e),
                                                 internal_element(c, f));
                if (happened_before(tuples[e], tuples[f]) != expected) {
                    ++tuple_errors;
                }
                if (fm.internal_stamps[e].less(fm.internal_stamps[f]) !=
                    expected) {
                    ++tuple_errors;
                }
            }
        }
    }
    std::printf("%-20s %6zu %6zu %7zu %11zu %10zu %7.2fx %9s\n", family, n, d,
                c.num_internal_events(), tuple_words, fm_words,
                static_cast<double>(fm_words) /
                    static_cast<double>(tuple_words),
                verify ? (tuple_errors == 0 ? "exact" : "FAIL") : "-");
}

}  // namespace

int main() {
    std::printf(
        "== TAB-EVT: Section 5 event tuples vs FM event clocks ==\n\n");
    std::printf("%-20s %6s %6s %7s %11s %10s %7s %9s\n", "family", "N", "d",
                "events", "tuple words", "FM words", "FM/tup", "encoding");

    Rng seeds(6006);
    study("star", topology::star(32), seeds(), true);
    study("star", topology::star(256), seeds(), false);
    study("client-server k=3", topology::client_server(3, 29), seeds(), true);
    study("client-server k=3", topology::client_server(3, 125), seeds(),
          false);
    study("kary-tree k=4", topology::kary_tree(64, 4), seeds(), true);
    study("ring", topology::ring(24), seeds(), true);
    study("complete (worst)", topology::complete(12), seeds(), true);

    std::printf(
        "\nshape check: both schemes are exact; the tuple's 2d+2 words "
        "beat FM's N whenever d < (N-2)/2 — all families above except the "
        "complete-graph worst case.\n");
    return 0;
}
