#pragma once

#include <span>

#include "decomp/edge_decomposition.hpp"
#include "graph/graph.hpp"

/// \file incremental.hpp
/// Incremental re-decomposition for one topology change.
///
/// Re-decomposing from scratch on every reconfiguration would retire
/// every vector component even when a single channel changed in a corner
/// of the graph. Instead we keep every star/triangle that is untouched by
/// the change and re-decompose only the *affected neighborhood*: the edges
/// of groups incident to an endpoint of a changed edge, plus the added
/// edges themselves. Both that residual patch and the full rebuild use the
/// library's one selection, default_decomposition (decomp/
/// cover_decomposer.hpp): Fig. 7 greedy unless a cover is strictly
/// smaller, optimal on 2-colourable graphs.
///
/// The result is still a valid decomposition (Definition 2) — preserved
/// groups and the residual patch partition the new edge set — but
/// incrementality alone does not preserve the 2-approximation of
/// Theorem 6. A quality guard restores it: the candidate is accepted only
/// if its size is within 2·min(µ, N−2), where µ is the maximal-matching
/// lower bound on the vertex cover number β(G) (µ ≤ β ≤ optimal bound of
/// Theorem 5); otherwise we fall back to a full rebuild, which is never
/// wider than Fig. 7 and so ≤ 2·min(β, N−2) by Theorems 5 and 6. Either
/// way the published bound holds. On acyclic graphs the full rebuild is
/// optimal (Theorem 7) and cheap, so the incremental path is skipped
/// outright.

namespace syncts {

struct IncrementalResult {
    EdgeDecomposition decomposition;
    /// True when the acyclic fast path or the quality guard replaced the
    /// incremental candidate with a full default_decomposition run.
    bool full_rebuild = false;
};

/// Re-decomposes `next` starting from `previous` (a complete decomposition
/// of the previous epoch's graph). `changed` lists the edges added or
/// removed between the two graphs; an edge present in `next` but not in
/// previous.graph() was added, one present only in the old graph was
/// removed. Vertices may have been appended (never removed).
IncrementalResult incremental_redecompose(const EdgeDecomposition& previous,
                                          const Graph& next,
                                          std::span<const Edge> changed);

/// Rebuilds `previous`'s groups verbatim over `next` (same edge set,
/// possibly more vertices) — the pure add_process path, where no
/// component retires.
EdgeDecomposition carry_decomposition(const EdgeDecomposition& previous,
                                      const Graph& next);

}  // namespace syncts
