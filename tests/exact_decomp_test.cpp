#include <gtest/gtest.h>

#include "decomp/cover_decomposer.hpp"
#include "decomp/exact_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "graph/generators.hpp"
#include "graph/vertex_cover.hpp"
#include "test_util.hpp"

namespace syncts {
namespace {

TEST(ExactDecomposition, KnownOptima) {
    ASSERT_TRUE(exact_edge_decomposition(Graph(4)).has_value());
    EXPECT_EQ(exact_edge_decomposition(Graph(4))->size(), 0u);
    EXPECT_EQ(exact_edge_decomposition(topology::path(2))->size(), 1u);
    EXPECT_EQ(exact_edge_decomposition(topology::triangle())->size(), 1u);
    EXPECT_EQ(exact_edge_decomposition(topology::star(12))->size(), 1u);
    // K4: one star + one triangle beats any pure-star decomposition.
    EXPECT_EQ(exact_edge_decomposition(topology::complete(4))->size(), 2u);
    EXPECT_EQ(exact_edge_decomposition(topology::complete(5))->size(), 3u);
    EXPECT_EQ(exact_edge_decomposition(topology::complete(6))->size(), 4u);
    EXPECT_EQ(exact_edge_decomposition(topology::path(7))->size(), 3u);
    EXPECT_EQ(exact_edge_decomposition(topology::ring(6))->size(), 3u);
}

TEST(ExactDecomposition, DisjointTrianglesShowTightBound) {
    // α(G) = t but β(G) = 2t: the family that makes β ≤ 2α tight
    // (Section 3.3).
    for (std::size_t t : {2u, 3u, 4u}) {
        const Graph g = topology::disjoint_triangles(t);
        const auto alpha = exact_edge_decomposition(g);
        ASSERT_TRUE(alpha.has_value());
        EXPECT_EQ(alpha->size(), t);
        EXPECT_EQ(exact_vertex_cover(g).size(), 2 * t);
    }
}

TEST(ExactDecomposition, PaperFig2bOptimumIsFiveGroups) {
    // Fig. 8(f): the optimal decomposition is 4 stars + 1 triangle.
    const auto d = exact_edge_decomposition(topology::paper_fig2b());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->size(), 5u);
    // And greedy achieves it on this instance.
    EXPECT_EQ(greedy_edge_decomposition(topology::paper_fig2b()).size(), 5u);
}

TEST(ExactDecomposition, NeverWorseThanGreedyOrCover) {
    for (const auto& [name, graph] : testing::small_graph_suite(21)) {
        const auto exact = exact_edge_decomposition(graph);
        ASSERT_TRUE(exact.has_value()) << name;
        EXPECT_TRUE(exact->complete()) << name;
        EXPECT_LE(exact->size(), greedy_edge_decomposition(graph).size())
            << name;
        if (graph.num_edges() > 0) {
            EXPECT_LE(exact->size(), exact_vertex_cover(graph).size())
                << name;
        }
    }
}

TEST(ExactDecomposition, MatchingLowerBoundHolds) {
    for (const auto& [name, graph] : testing::small_graph_suite(22)) {
        const auto exact = exact_edge_decomposition(graph);
        ASSERT_TRUE(exact.has_value()) << name;
        EXPECT_GE(exact->size(), decomposition_lower_bound(graph)) << name;
    }
}

TEST(ExactDecomposition, CliqueLowerBoundIsTight) {
    // On K_n the bound is n − 2, and the library default reaches it, so
    // every complete topology reads gap 0.
    for (std::size_t n = 3; n <= 16; ++n) {
        const Graph g = topology::complete(n);
        EXPECT_EQ(decomposition_lower_bound(g), n - 2) << "K" << n;
        EXPECT_EQ(default_decomposition(g).size(), n - 2) << "K" << n;
    }
}

TEST(ExactDecomposition, GreedyRatioWithinTwo) {
    // Theorem 6 on a batch of random instances.
    Rng rng(77);
    for (int trial = 0; trial < 12; ++trial) {
        const Graph g = topology::random_gnp(11, 0.35, rng);
        const auto exact = exact_edge_decomposition(g);
        ASSERT_TRUE(exact.has_value());
        const auto greedy = greedy_edge_decomposition(g);
        if (exact->size() > 0) {
            EXPECT_LE(greedy.size(), 2 * exact->size()) << "trial " << trial;
        }
    }
}

TEST(ExactDecomposition, GreedyOptimalOnForests) {
    Rng rng(78);
    for (int trial = 0; trial < 10; ++trial) {
        const Graph tree = topology::random_tree(14, rng);
        const auto exact = exact_edge_decomposition(tree);
        ASSERT_TRUE(exact.has_value());
        EXPECT_EQ(greedy_edge_decomposition(tree).size(), exact->size())
            << "trial " << trial;
    }
}

TEST(ExactDecomposition, BudgetExhaustionReturnsNullopt) {
    const auto result =
        exact_edge_decomposition(topology::complete(9), /*node_budget=*/5);
    EXPECT_FALSE(result.has_value());
}

}  // namespace
}  // namespace syncts
