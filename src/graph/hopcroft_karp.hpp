#pragma once

#include <cstddef>
#include <vector>

/// \file hopcroft_karp.hpp
/// Maximum bipartite matching in O(E·sqrt(V)) — the engine behind the
/// König vertex cover that sizes timestamps on 2-colourable topologies
/// (Theorem 5, graph/vertex_cover.hpp) and behind the Dilworth chain
/// partition used by the offline algorithm (Fig. 9) and by the width
/// computation of Theorem 8.

namespace syncts {

/// Bipartite graph with `lefts` left vertices and `rights` right vertices;
/// adjacency is given per left vertex.
class BipartiteMatcher {
public:
    BipartiteMatcher(std::size_t lefts, std::size_t rights);

    /// Adds an edge from left vertex l to right vertex r.
    void add_edge(std::size_t l, std::size_t r);

    /// Computes a maximum matching; returns its size. Idempotent.
    std::size_t solve();

    /// Right partner of left vertex l, or npos when unmatched.
    std::size_t match_of_left(std::size_t l) const;

    /// Left partner of right vertex r, or npos when unmatched.
    std::size_t match_of_right(std::size_t r) const;

    /// A minimum vertex cover (König): pair of (left-vertex flags,
    /// right-vertex flags). Only valid after solve().
    std::pair<std::vector<char>, std::vector<char>> minimum_vertex_cover();

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

private:
    bool bfs_layers();
    bool dfs_augment(std::size_t l);

    std::size_t lefts_;
    std::size_t rights_;
    std::vector<std::vector<std::size_t>> adjacency_;
    std::vector<std::size_t> match_left_;
    std::vector<std::size_t> match_right_;
    std::vector<std::size_t> layer_;
    bool solved_ = false;
    std::size_t matching_size_ = 0;
};

}  // namespace syncts
