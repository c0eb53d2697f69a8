#include "decomp/cover_decomposer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "decomp/exact_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "graph/vertex_cover.hpp"

namespace syncts {

EdgeDecomposition decomposition_from_cover(
    const Graph& g, const std::vector<ProcessId>& cover) {
    SYNCTS_REQUIRE(is_vertex_cover(g, cover),
                   "provided vertex set is not a vertex cover");
    std::vector<char> in_cover(g.num_vertices(), 0);
    for (const ProcessId v : cover) in_cover[v] = 1;

    std::vector<std::vector<Edge>> star_edges(g.num_vertices());
    for (const Edge& e : g.edges()) {
        // Lowest-numbered cover endpoint owns the edge.
        const ProcessId owner = in_cover[e.u] ? e.u : e.v;
        star_edges[owner].push_back(e);
    }

    EdgeDecomposition decomposition(g);
    for (ProcessId v = 0; v < g.num_vertices(); ++v) {
        if (!star_edges[v].empty()) decomposition.add_star(v, star_edges[v]);
    }
    SYNCTS_ENSURE(decomposition.complete(),
                  "cover decomposition left edges unassigned");
    return decomposition;
}

EdgeDecomposition approx_cover_decomposition(const Graph& g) {
    return decomposition_from_cover(g, approx_vertex_cover(g));
}

EdgeDecomposition exact_cover_decomposition(const Graph& g) {
    return decomposition_from_cover(g, exact_vertex_cover(g));
}

EdgeDecomposition trivial_complete_decomposition(const Graph& g) {
    const std::size_t n = g.num_vertices();
    const std::size_t expected_edges = n * (n - 1) / 2;
    SYNCTS_REQUIRE(g.num_edges() == expected_edges,
                   "graph is not a complete graph");

    EdgeDecomposition decomposition(g);
    if (n < 2) return decomposition;
    if (n == 2) {
        const Edge e = Edge::make(0, 1);
        decomposition.add_star(0, std::vector<Edge>{e});
        return decomposition;
    }
    // Stars at 0..n-4 peel off each vertex's edges to higher vertices; the
    // last three vertices form the single triangle of Fig. 3(a).
    for (ProcessId v = 0; v + 3 < n; ++v) {
        std::vector<Edge> edges;
        for (ProcessId w = v + 1; w < n; ++w) edges.push_back(Edge::make(v, w));
        decomposition.add_star(v, edges);
    }
    decomposition.add_triangle(Triangle::make(static_cast<ProcessId>(n - 3),
                                              static_cast<ProcessId>(n - 2),
                                              static_cast<ProcessId>(n - 1)));
    SYNCTS_ENSURE(decomposition.complete(),
                  "complete-graph decomposition left edges unassigned");
    return decomposition;
}

EdgeDecomposition default_decomposition(const Graph& g) {
    return default_decomposition(g, nullptr);
}

EdgeDecomposition default_decomposition(const Graph& g,
                                        obs::MetricsRegistry* registry) {
    const auto publish = [&](std::size_t greedy_groups,
                             std::size_t cover_groups, std::size_t chosen) {
        if (registry == nullptr) return;
        const std::size_t bound = decomposition_lower_bound(g);
        registry->gauge("decomp_greedy_groups")
            .set(static_cast<std::int64_t>(greedy_groups));
        registry->gauge("decomp_cover_groups")
            .set(static_cast<std::int64_t>(cover_groups));
        registry->gauge("decomp_groups")
            .set(static_cast<std::int64_t>(chosen));
        registry->gauge("decomp_lower_bound")
            .set(static_cast<std::int64_t>(bound));
        registry->gauge("decomp_gap")
            .set(static_cast<std::int64_t>(chosen) -
                 static_cast<std::int64_t>(bound));
    };

    const std::size_t n = g.num_vertices();
    if (n >= 3 && g.num_edges() == n * (n - 1) / 2) {
        // Complete graphs: N−2 groups, the best any method achieves here.
        EdgeDecomposition trivial = trivial_complete_decomposition(g);
        publish(trivial.size(), trivial.size(), trivial.size());
        return trivial;
    }
    EdgeDecomposition greedy = greedy_edge_decomposition(g);
    if (g.num_edges() == 0) {
        publish(greedy.size(), greedy.size(), greedy.size());
        return greedy;
    }
    // The matching-based cover often wins on hub-shaped topologies
    // because cover vertices that own no edges drop out; greedy wins when
    // triangles matter. On a 2-colourable graph the König cover is a
    // minimum one (client–server: min(#servers, #clients) stars),
    // and with no triangles its stars are optimal: α(G) = β(G). A later
    // candidate replaces an earlier one only when strictly smaller; ties
    // keep the earlier, so a topology's stamps move only when d shrinks.
    EdgeDecomposition covered = approx_cover_decomposition(g);
    if (const auto cover = bipartite_vertex_cover(g)) {
        EdgeDecomposition konig = decomposition_from_cover(g, *cover);
        if (konig.size() < covered.size()) covered = std::move(konig);
    }
    const bool cover_wins = covered.size() < greedy.size();
    publish(greedy.size(), covered.size(),
            cover_wins ? covered.size() : greedy.size());
    return cover_wins ? covered : greedy;
}

}  // namespace syncts
