#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"

/// \file vertex_cover.hpp
/// Vertex covers of the communication topology.
///
/// Theorem 5 of the paper bounds the timestamp size by min(β(G), N−2) where
/// β(G) is the optimal vertex-cover size: assigning each edge to one cover
/// vertex partitions E into stars. Minimum vertex cover is NP-hard in
/// general, so we provide the classic maximal-matching 2-approximation for
/// production use and an exact branch-and-bound solver for the
/// benchmark/ratio studies. On 2-colourable graphs it is polynomial:
/// König's theorem turns a maximum matching into a minimum cover.

namespace syncts {

/// 2-approximate vertex cover via maximal matching: repeatedly take an
/// uncovered edge and add both endpoints. Deterministic (scans edges in
/// insertion order). Size ≤ 2·β(G).
std::vector<ProcessId> approx_vertex_cover(const Graph& g);

/// Minimum vertex cover of a bipartite graph (König): 2-colours every
/// component by BFS, matches colour 0 against colour 1 with Hopcroft–Karp
/// and returns the matching's König cover, sorted. Its size is β(G) and
/// equals the maximum matching ν(G). nullopt when `g` has an odd cycle.
std::optional<std::vector<ProcessId>> bipartite_vertex_cover(const Graph& g);

/// Exact minimum vertex cover via branch-and-bound with degree-1 reduction
/// and a matching lower bound. Intended for graphs small enough for the
/// ratio experiments (tens of vertices); cost is exponential in β(G).
std::vector<ProcessId> exact_vertex_cover(const Graph& g);

/// True when `cover` touches every edge of `g`.
bool is_vertex_cover(const Graph& g, const std::vector<ProcessId>& cover);

}  // namespace syncts
