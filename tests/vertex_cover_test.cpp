#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/vertex_cover.hpp"

namespace syncts {
namespace {

/// Exhaustive minimum vertex cover by subset enumeration (n <= ~16).
std::size_t brute_force_cover_size(const Graph& g) {
    const std::size_t n = g.num_vertices();
    std::size_t best = n;
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
        const auto size =
            static_cast<std::size_t>(__builtin_popcountll(mask));
        if (size >= best) continue;
        const bool covers = std::ranges::all_of(g.edges(), [&](const Edge& e) {
            return ((mask >> e.u) & 1) || ((mask >> e.v) & 1);
        });
        if (covers) best = size;
    }
    return best;
}

TEST(IsVertexCover, Basics) {
    const Graph g = topology::path(4);  // edges 01, 12, 23
    EXPECT_TRUE(is_vertex_cover(g, {1, 2}));
    EXPECT_TRUE(is_vertex_cover(g, {0, 1, 2, 3}));
    EXPECT_FALSE(is_vertex_cover(g, {0, 3}));
    EXPECT_FALSE(is_vertex_cover(g, {}));
    EXPECT_TRUE(is_vertex_cover(Graph(3), {}));
    EXPECT_FALSE(is_vertex_cover(g, {9}));  // out of range
}

TEST(ApproxCover, IsAlwaysACover) {
    Rng rng(42);
    for (int trial = 0; trial < 25; ++trial) {
        const Graph g = topology::random_gnp(20, 0.25, rng);
        EXPECT_TRUE(is_vertex_cover(g, approx_vertex_cover(g)));
    }
}

TEST(ApproxCover, WithinTwiceOptimal) {
    Rng rng(43);
    for (int trial = 0; trial < 15; ++trial) {
        const Graph g = topology::random_gnp(12, 0.3, rng);
        const std::size_t optimal = brute_force_cover_size(g);
        EXPECT_LE(approx_vertex_cover(g).size(), 2 * optimal);
    }
}

TEST(ExactCover, KnownSizes) {
    EXPECT_EQ(exact_vertex_cover(topology::star(10)).size(), 1u);
    EXPECT_EQ(exact_vertex_cover(topology::path(2)).size(), 1u);
    EXPECT_EQ(exact_vertex_cover(topology::path(5)).size(), 2u);
    EXPECT_EQ(exact_vertex_cover(topology::triangle()).size(), 2u);
    // β(K_n) = n−1; β(C_n) = ⌈n/2⌉.
    EXPECT_EQ(exact_vertex_cover(topology::complete(6)).size(), 5u);
    EXPECT_EQ(exact_vertex_cover(topology::ring(6)).size(), 3u);
    EXPECT_EQ(exact_vertex_cover(topology::ring(7)).size(), 4u);
    // Client-server: the servers cover everything.
    EXPECT_EQ(exact_vertex_cover(topology::client_server(3, 20)).size(), 3u);
    // Disjoint triangles: 2 per triangle.
    EXPECT_EQ(exact_vertex_cover(topology::disjoint_triangles(4)).size(), 8u);
    EXPECT_TRUE(exact_vertex_cover(Graph(5)).empty());
}

TEST(ExactCover, MatchesBruteForceOnRandomGraphs) {
    Rng rng(44);
    for (int trial = 0; trial < 20; ++trial) {
        const Graph g = topology::random_gnp(13, 0.35, rng);
        const auto cover = exact_vertex_cover(g);
        EXPECT_TRUE(is_vertex_cover(g, cover));
        EXPECT_EQ(cover.size(), brute_force_cover_size(g))
            << "trial " << trial;
    }
}

TEST(ExactCover, TreeCoversAreSmall) {
    Rng rng(45);
    const Graph tree = topology::random_tree(18, rng);
    const auto cover = exact_vertex_cover(tree);
    EXPECT_TRUE(is_vertex_cover(tree, cover));
    EXPECT_EQ(cover.size(), brute_force_cover_size(tree));
}

TEST(ExactCover, PaperFig4TreeNeedsThreeHubs) {
    const auto cover = exact_vertex_cover(topology::paper_fig4_tree());
    EXPECT_EQ(cover.size(), 3u);
    EXPECT_EQ(cover, (std::vector<ProcessId>{0, 1, 2}));
}

/// Random bipartite graph: `lefts` vertices 0.. on one side, the rest on
/// the other, each cross pair an edge with probability `p`.
Graph random_bipartite(std::size_t lefts, std::size_t rights, double p,
                       Rng& rng) {
    Graph g(lefts + rights);
    for (std::size_t l = 0; l < lefts; ++l) {
        for (std::size_t r = lefts; r < lefts + rights; ++r) {
            if (rng.uniform01() < p) {
                g.add_edge(static_cast<ProcessId>(l), static_cast<ProcessId>(r));
            }
        }
    }
    return g;
}

TEST(BipartiteCover, RejectsOddCycles) {
    EXPECT_FALSE(bipartite_vertex_cover(topology::triangle()).has_value());
    EXPECT_FALSE(bipartite_vertex_cover(topology::ring(7)).has_value());
    EXPECT_FALSE(bipartite_vertex_cover(topology::paper_fig2b()).has_value());
    // One odd component spoils an otherwise bipartite graph.
    Graph g = topology::path(4);
    const ProcessId a = g.add_vertex();
    const ProcessId b = g.add_vertex();
    const ProcessId c = g.add_vertex();
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.add_edge(a, c);
    EXPECT_FALSE(bipartite_vertex_cover(g).has_value());
}

TEST(BipartiteCover, KnownSizes) {
    EXPECT_EQ(bipartite_vertex_cover(Graph(4)), std::vector<ProcessId>{});
    EXPECT_EQ(bipartite_vertex_cover(topology::star(10))->size(), 1u);
    EXPECT_EQ(bipartite_vertex_cover(topology::ring(8))->size(), 4u);
    EXPECT_EQ(bipartite_vertex_cover(topology::grid(16, 16))->size(), 128u);
    EXPECT_EQ(bipartite_vertex_cover(topology::hypercube(6))->size(), 32u);
    EXPECT_EQ(bipartite_vertex_cover(topology::client_server(4, 64))->size(),
              4u);
    EXPECT_EQ(bipartite_vertex_cover(topology::paper_fig4_tree())->size(),
              3u);
}

TEST(BipartiteCover, MinimumOnRandomBipartiteGraphsAndForests) {
    Rng rng(46);
    for (int trial = 0; trial < 20; ++trial) {
        // Disjoint union of a random bipartite graph and a random tree, so
        // the colouring runs over several components.
        Graph g = random_bipartite(4 + rng.below(2), 3 + rng.below(2), 0.4,
                                   rng);
        const Graph tree = topology::random_tree(5, rng);
        const auto base = static_cast<ProcessId>(g.num_vertices());
        for (std::size_t v = 0; v < tree.num_vertices(); ++v) g.add_vertex();
        for (const Edge& e : tree.edges()) g.add_edge(base + e.u, base + e.v);

        const auto cover = bipartite_vertex_cover(g);
        ASSERT_TRUE(cover.has_value()) << "trial " << trial;
        EXPECT_TRUE(is_vertex_cover(g, *cover));
        EXPECT_TRUE(std::ranges::is_sorted(*cover));
        EXPECT_EQ(cover->size(), brute_force_cover_size(g))
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace syncts
