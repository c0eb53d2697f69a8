// syncts_topo — inspect a communication topology: decomposition sizes by
// strategy, vertex-cover bounds, and optional Graphviz output.
//
// It prints what the library's selection (default_decomposition) saw: the
// Fig. 7 greedy size, the cover candidate (the matching-cover stars, or the
// König minimum-cover stars on a 2-colourable graph when fewer; the
// trivial N−2 construction on complete graphs), the chosen d, and the
// lower bound on d with the gap to it — a gap of 0 proves d optimal.
//
// Usage:
//   syncts_topo <spec> [--dot] [--export] [--exact] [--reconfig <schedule>]
//
// Any other flag, --reconfig without a schedule, or a malformed <spec> is
// a usage error: exit 2.
//
// <spec> is one of:
//   star:<n> | ring:<n> | path:<n> | complete:<n> | tree:<n>:<arity> |
//   cs:<servers>:<clients> | grid:<w>:<h> | triangles:<t> |
//   gnp:<n>:<p%>:<seed> | fig2b | fig4
//
// --dot       also print the default decomposition as Graphviz
// --export    also print the default decomposition in the decomp_io text
//             format (ship it to every process at startup); with
//             --reconfig the final epoch is exported, tagged with its id
// --exact     also run the exponential exact decomposition / vertex cover
//             (small graphs only)
// --reconfig  replay a reconfiguration schedule (docs/TOPOLOGY.md:
//             addc:<a>:<b> | delc:<a>:<b> | addp[:<a>] | rand:<k>:<seed>)
//             and print the per-epoch decomposition ledger

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "topo_spec.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/decomp_io.hpp"
#include "decomp/dot_export.hpp"
#include "decomp/exact_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "graph/generators.hpp"
#include "graph/vertex_cover.hpp"
#include "obs/metrics.hpp"
#include "topo/reconfig.hpp"
#include "topo/topology_manager.hpp"

using namespace syncts;


namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: syncts_topo <spec> [--dot] [--export] [--exact] "
                 "[--reconfig <schedule>]\n"
                 "specs: %s\n",
                 tools::spec_help());
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    bool want_dot = false;
    bool want_exact = false;
    bool want_export = false;
    std::string reconfig;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--dot") {
            want_dot = true;
        } else if (flag == "--exact") {
            want_exact = true;
        } else if (flag == "--export") {
            want_export = true;
        } else if (flag == "--reconfig" && i + 1 < argc) {
            reconfig = argv[++i];
        } else {
            std::fprintf(stderr, "syncts_topo: %s '%s'\n",
                         flag == "--reconfig" ? "missing value for"
                                              : "unknown flag",
                         flag.c_str());
            return usage();
        }
    }

    const Graph g = tools::build_topology(argv[1]);
    std::printf("topology: %s  (connected=%s, acyclic=%s)\n",
                g.to_string().c_str(), g.is_connected() ? "yes" : "no",
                g.is_acyclic() ? "yes" : "no");

    // The selection's own view: both candidates, the choice, and the
    // lower bound that proves it optimal when the gap is 0.
    obs::MetricsRegistry selection;
    const auto fallback = default_decomposition(g, &selection);
    const auto seen = [&](const char* name) {
        return selection.gauge(name).value();
    };
    const auto greedy = greedy_edge_decomposition(g);
    std::printf("greedy (Fig. 7):      d = %zu (%zu stars, %zu triangles)\n",
                greedy.size(), greedy.star_count(), greedy.triangle_count());
    std::printf("cover candidate:      d = %lld\n",
                static_cast<long long>(seen("decomp_cover_groups")));
    std::printf("library default:      d = %zu\n", fallback.size());
    std::printf("lower bound:          d >= %lld (gap %lld)\n",
                static_cast<long long>(seen("decomp_lower_bound")),
                static_cast<long long>(seen("decomp_gap")));
    std::printf("FM baseline width:    N = %zu\n", g.num_vertices());

    if (want_exact) {
        const std::size_t beta = exact_vertex_cover(g).size();
        std::printf("exact vertex cover:   beta = %zu  (Thm 5 bound "
                    "min(beta, N-2) = %zu)\n",
                    beta,
                    std::min(beta, g.num_vertices() > 2
                                       ? g.num_vertices() - 2
                                       : beta));
        if (const auto exact = exact_edge_decomposition(g)) {
            std::printf("exact decomposition:  alpha = %zu  (greedy ratio "
                        "%.3f)\n",
                        exact->size(),
                        exact->size() == 0
                            ? 1.0
                            : static_cast<double>(greedy.size()) /
                                  static_cast<double>(exact->size()));
        } else {
            std::printf("exact decomposition:  (node budget exhausted)\n");
        }
    }

    TopologyManager manager{EdgeDecomposition(fallback)};
    if (!reconfig.empty()) {
        std::vector<ReconfigOp> schedule;
        try {
            schedule = parse_reconfig_schedule(reconfig, g);
        } catch (const std::exception& error) {
            std::fprintf(stderr, "syncts_topo: bad --reconfig schedule: %s\n",
                         error.what());
            return 2;
        }
        std::printf("\nreconfig: %zu op(s) -> %zu epochs\n", schedule.size(),
                    schedule.size() + 1);
        std::printf("epoch 0: N=%zu channels=%zu d=%zu\n",
                    manager.current().num_processes(),
                    manager.current().graph().num_edges(),
                    manager.current().width());
        for (const ReconfigOp& op : schedule) {
            const EpochTransition& t = apply(manager, op);
            const Epoch& epoch = manager.current();
            std::printf(
                "epoch %u (%s): N=%zu channels=%zu d=%zu  preserved=%zu "
                "rebuilt=%zu%s\n",
                epoch.id, op.to_string().c_str(), epoch.num_processes(),
                epoch.graph().num_edges(), epoch.width(), t.preserved_groups,
                epoch.width() - t.preserved_groups,
                t.full_rebuild ? "  [full rebuild]" : "");
        }
    }

    if (want_dot) {
        std::printf("\n%s", to_dot(fallback).c_str());
    }
    if (want_export) {
        // With a schedule, export the topology the system ends up on —
        // tagged with its epoch so consumers can reject stale artifacts.
        std::printf("\n%s",
                    serialize_decomposition(*manager.current_decomposition(),
                                            manager.current_epoch_id())
                        .c_str());
    }
    return 0;
}
