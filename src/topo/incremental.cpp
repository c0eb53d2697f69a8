#include "topo/incremental.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/vertex_cover.hpp"

namespace syncts {

namespace {

/// Re-adds `group` (taken from another decomposition over the same vertex
/// space) into `out`. Every edge must exist in out.graph().
void replay_group(EdgeDecomposition& out, const EdgeGroup& group) {
    if (group.kind == GroupKind::star) {
        out.add_star(group.root, group.edges);
    } else {
        out.add_triangle(group.triangle);
    }
}

bool touches_any(const EdgeGroup& group, const std::vector<char>& affected) {
    for (const Edge& e : group.edges) {
        if ((e.u < affected.size() && affected[e.u]) ||
            (e.v < affected.size() && affected[e.v])) {
            return true;
        }
    }
    return false;
}

IncrementalResult full_rebuild(const Graph& next) {
    return IncrementalResult{default_decomposition(next), true};
}

}  // namespace

IncrementalResult incremental_redecompose(const EdgeDecomposition& previous,
                                          const Graph& next,
                                          std::span<const Edge> changed) {
    SYNCTS_REQUIRE(previous.complete(),
                   "incremental redecomposition needs a complete input");
    SYNCTS_REQUIRE(next.num_vertices() >= previous.graph().num_vertices(),
                   "processes are never removed across epochs");

    // Theorem 7: Fig. 7 is *optimal* on acyclic graphs, and a full run is
    // cheap there — no reason to settle for an approximate patch.
    if (next.is_acyclic()) return full_rebuild(next);

    std::vector<char> affected(next.num_vertices(), 0);
    for (const Edge& e : changed) {
        SYNCTS_REQUIRE(e.u < next.num_vertices() && e.v < next.num_vertices(),
                       "changed edge endpoint out of range");
        affected[e.u] = 1;
        affected[e.v] = 1;
    }

    // Preserve every group with no endpoint in the affected neighborhood;
    // everything else (plus the added edges, which belong to no old group)
    // forms the residual subgraph handed back to default_decomposition.
    EdgeDecomposition candidate(next);
    Graph residual(next.num_vertices());
    for (const EdgeGroup& group : previous.groups()) {
        if (!touches_any(group, affected)) {
            replay_group(candidate, group);
            continue;
        }
        for (const Edge& e : group.edges) {
            if (next.has_edge(e.u, e.v)) residual.add_edge(e.u, e.v);
        }
    }
    for (const Edge& e : changed) {
        if (next.has_edge(e.u, e.v) && !previous.graph().has_edge(e.u, e.v)) {
            residual.add_edge(e.u, e.v);
        }
    }

    // Materialized, not inlined into the range-for: groups() views into
    // the decomposition, which would be destroyed before the loop runs.
    const EdgeDecomposition patch = default_decomposition(residual);
    for (const EdgeGroup& group : patch.groups()) {
        replay_group(candidate, group);
    }
    SYNCTS_ENSURE(candidate.complete(),
                  "incremental candidate does not cover the new edge set");

    // Quality guard: accept only within 2·min(µ, N−2), where µ (maximal
    // matching size) lower-bounds β(G). An accepted candidate is then
    // ≤ 2·min(β, N−2); a rejected one falls back to a full rebuild, never
    // wider than Fig. 7 and so ≤ 2·min(β, N−2) by Theorems 5 and 6 — the
    // published bound survives incrementality either way. (The N−2 cap of
    // Theorem 5 assumes N ≥ 3.)
    if (next.num_edges() > 0) {
        const std::size_t matching = approx_vertex_cover(next).size() / 2;
        std::size_t bound = 2 * matching;
        if (next.num_vertices() >= 3) {
            bound = std::min(bound, 2 * (next.num_vertices() - 2));
        }
        if (candidate.size() > bound) return full_rebuild(next);
    }

    return IncrementalResult{std::move(candidate), false};
}

EdgeDecomposition carry_decomposition(const EdgeDecomposition& previous,
                                      const Graph& next) {
    EdgeDecomposition out(next);
    for (const EdgeGroup& group : previous.groups()) replay_group(out, group);
    SYNCTS_ENSURE(out.complete(), "carried decomposition must stay complete");
    return out;
}

}  // namespace syncts
