#pragma once

#include <vector>

#include "decomp/edge_decomposition.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

/// \file cover_decomposer.hpp
/// Decompositions derived from vertex covers (Theorem 5) and the trivial
/// complete-graph decomposition (N−3 stars + 1 triangle, Fig. 3(a)).
///
/// From a vertex cover V' every edge is incident to some cover vertex, so
/// assigning each edge to one cover endpoint partitions E into |V'| stars.
/// Theorem 5: timestamps of size min(β(G), N−2) therefore suffice.

namespace syncts {

/// Builds the star-per-cover-vertex decomposition. Requires `cover` to be a
/// vertex cover of `g`. Each edge goes to its lowest-numbered cover
/// endpoint; cover vertices with no assigned edges contribute no group, so
/// the result can be smaller than |cover|.
EdgeDecomposition decomposition_from_cover(const Graph& g,
                                           const std::vector<ProcessId>& cover);

/// Star-only decomposition via the maximal-matching 2-approximate cover.
EdgeDecomposition approx_cover_decomposition(const Graph& g);

/// Star-only decomposition via the exact minimum vertex cover β(G)
/// (exponential in β; for small graphs / experiments).
EdgeDecomposition exact_cover_decomposition(const Graph& g);

/// The trivial decomposition of the complete graph K_n for n >= 3: stars
/// rooted at vertices 0..n−4 (star i holds edges (i, j) for j > i) plus the
/// triangle on the last three vertices — N−2 groups total (Fig. 3(a)).
/// For n <= 2 returns the at-most-one-star decomposition.
EdgeDecomposition trivial_complete_decomposition(const Graph& g);

/// The decomposition the library uses by default: the trivial N−2
/// decomposition on complete graphs (Theorem 5's N−2 term), otherwise the
/// Fig. 7 greedy result unless a cover candidate is strictly smaller. The
/// cover candidate is the matching-cover stars, replaced on 2-colourable
/// graphs by the König cover's stars when those are strictly smaller. The
/// result is optimal, d = α(G) = β(G), on every 2-colourable graph: on
/// client–server topologies d = min(#servers, #clients), one star per
/// server or per client, whichever side is smaller.
EdgeDecomposition default_decomposition(const Graph& g);

/// As default_decomposition, but also publishes what the selection saw
/// into `registry` (ignored when null): gauges `decomp_greedy_groups` and
/// `decomp_cover_groups` (the two candidates; equal to `decomp_groups` on
/// complete graphs where the trivial N−2 construction wins outright),
/// `decomp_groups` (the chosen size d — the timestamp width),
/// `decomp_lower_bound` (decomposition_lower_bound: the maximum matching
/// on 2-colourable graphs, N − 2 on complete ones, a greedy maximal
/// matching otherwise), and
/// `decomp_gap` (chosen − lower bound: how far the choice might be from
/// optimal; 0 proves it optimal, as on every 2-colourable or complete
/// graph).
EdgeDecomposition default_decomposition(const Graph& g,
                                        obs::MetricsRegistry* registry);

}  // namespace syncts
