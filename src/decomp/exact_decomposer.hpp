#pragma once

#include <cstddef>
#include <optional>

#include "decomp/edge_decomposition.hpp"
#include "graph/graph.hpp"

/// \file exact_decomposer.hpp
/// Exact optimal edge decomposition α(G) by branch-and-bound.
///
/// Observation (used implicitly by the paper's Section 3.3 discussion): an
/// edge decomposition of size k exists iff k "objects" — vertices acting as
/// star roots, or triangles of G — cover every edge. Given a cover, assign
/// each edge to one covering object; an object holding 1–2 edges of its
/// triangle still forms a star (any two triangle edges share a corner), so
/// the partition property of Definition 2 is preserved. Conversely every
/// decomposition is such a cover. We therefore search over root/triangle
/// covers, branching on the first uncovered edge, with a matching lower
/// bound (pairwise-disjoint edges always need distinct groups).
///
/// Exponential in α(G); intended for the approximation-ratio experiments on
/// small graphs, not production topologies.

namespace syncts {

/// Computes an optimal (minimum-size) edge decomposition. `node_budget`
/// caps the number of search-tree nodes; returns nullopt if exceeded.
std::optional<EdgeDecomposition> exact_edge_decomposition(
    const Graph& g, std::size_t node_budget = 50'000'000);

/// Lower bound on α(G): the size of a matching. Edges of a matching
/// pairwise share no vertex, so no two fit in one star/triangle. On a
/// 2-colourable graph it is the maximum matching ν(G), and there the bound
/// is exact: α(G) = β(G) = ν(G) (no triangles, then König). A complete
/// graph K_n with n >= 3 gets n − 2, which is exact too (the stars of
/// n − 3 processes plus one triangle reach it). Other graphs get a greedy
/// maximal matching.
std::size_t decomposition_lower_bound(const Graph& g);

}  // namespace syncts
