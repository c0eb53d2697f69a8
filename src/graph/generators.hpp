#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "graph/graph.hpp"

/// \file generators.hpp
/// Topology families used throughout the paper and the benchmark harness.
///
/// The paper's motivating topologies: complete graphs (worst case, Fig. 3),
/// trees (Fig. 4), stars/triangles (Lemma 1), client–server systems
/// (Section 3.3), plus the concrete graphs of Fig. 2(b)/Fig. 8 and the
/// disjoint-triangle family that makes the β(G) ≤ 2α(G) bound tight.

namespace syncts::topology {

/// Complete graph K_n.
Graph complete(std::size_t n);

/// Star on n vertices rooted at vertex 0 (n >= 1).
Graph star(std::size_t n);

/// Simple path P_n: 0-1-2-..-(n-1).
Graph path(std::size_t n);

/// Cycle C_n (n >= 3).
Graph ring(std::size_t n);

/// Single triangle on 3 vertices.
Graph triangle();

/// `count` vertex-disjoint triangles (3*count vertices). This family makes
/// the vertex-cover-vs-decomposition bound β(G) = 2α(G) tight (Section 3.3).
Graph disjoint_triangles(std::size_t count);

/// Uniform random labelled tree on n vertices (Prüfer-style attachment:
/// vertex i attaches to a uniformly random earlier vertex).
Graph random_tree(std::size_t n, Rng& rng);

/// Complete k-ary tree on n vertices: vertex i's parent is (i-1)/k.
Graph kary_tree(std::size_t n, std::size_t arity);

/// Client–server topology: vertices [0, servers) are servers, the rest are
/// clients. Every client is connected to every server; servers are also
/// connected to each other when `connect_servers` is set. This models the
/// synchronous-RPC systems of Section 3.3: a decomposition of one star per
/// server always exists, so d <= servers regardless of client count (the
/// default decomposition reaches min(servers, clients)).
Graph client_server(std::size_t servers, std::size_t clients,
                    bool connect_servers = false);

/// 2-D grid of width x height vertices.
Graph grid(std::size_t width, std::size_t height);

/// Hypercube Q_d on 2^dimension vertices.
Graph hypercube(std::size_t dimension);

/// Erdős–Rényi G(n, p): each possible edge present independently with
/// probability p.
Graph random_gnp(std::size_t n, double p, Rng& rng);

/// Random graph with exactly m distinct edges, uniform over edge sets.
Graph random_gnm(std::size_t n, std::size_t m, Rng& rng);

/// Random connected graph: a random tree plus `extra_edges` additional
/// distinct random edges.
Graph random_connected(std::size_t n, std::size_t extra_edges, Rng& rng);

/// The 11-vertex topology of the paper's Fig. 2(b), whose greedy
/// decomposition run is traced in Fig. 8. Vertices map to the paper's
/// labels a..k as 0..10.
Graph paper_fig2b();

/// The 20-process tree of the paper's Fig. 4, which decomposes into three
/// stars E1, E2, E3.
Graph paper_fig4_tree();

}  // namespace syncts::topology
