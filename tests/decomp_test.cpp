#include <gtest/gtest.h>

#include <algorithm>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/edge_decomposition.hpp"
#include "decomp/exact_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "graph/generators.hpp"
#include "graph/vertex_cover.hpp"
#include "test_util.hpp"
#include "topo/topology_manager.hpp"

namespace syncts {
namespace {

/// Structural validity per Definition 2: all groups disjoint (enforced by
/// construction), every group a star or triangle, every edge assigned.
void expect_valid_decomposition(const EdgeDecomposition& d) {
    EXPECT_TRUE(d.complete());
    std::size_t total_edges = 0;
    for (const EdgeGroup& g : d.groups()) {
        total_edges += g.edges.size();
        if (g.kind == GroupKind::star) {
            EXPECT_FALSE(g.edges.empty());
            for (const Edge& e : g.edges) EXPECT_TRUE(e.touches(g.root));
        } else {
            ASSERT_EQ(g.edges.size(), 3u);
            const auto [x, y, z] = g.triangle.corners;
            EXPECT_TRUE(d.graph().has_edge(x, y));
            EXPECT_TRUE(d.graph().has_edge(y, z));
            EXPECT_TRUE(d.graph().has_edge(x, z));
        }
    }
    EXPECT_EQ(total_edges, d.graph().num_edges());
    // Every edge maps to the group that owns it.
    for (const Edge& e : d.graph().edges()) {
        const GroupId gid = d.group_of(e.u, e.v);
        const EdgeGroup& group = d.group(gid);
        EXPECT_NE(std::ranges::find(group.edges, e), group.edges.end());
    }
}

TEST(EdgeDecomposition, ManualStarBuild) {
    EdgeDecomposition d(topology::star(4));
    EXPECT_EQ(d.size(), 0u);
    EXPECT_FALSE(d.complete());
    const std::vector<Edge> edges{Edge::make(0, 1), Edge::make(0, 2),
                                  Edge::make(0, 3)};
    const GroupId id = d.add_star(0, edges);
    EXPECT_EQ(id, 0u);
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.star_count(), 1u);
    EXPECT_EQ(d.triangle_count(), 0u);
    EXPECT_EQ(d.group_of(0, 2), 0u);
    EXPECT_EQ(d.group_of(2, 0), 0u);
}

TEST(EdgeDecomposition, ManualTriangleBuild) {
    EdgeDecomposition d(topology::triangle());
    d.add_triangle(Triangle::make(0, 1, 2));
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.triangle_count(), 1u);
    expect_valid_decomposition(d);
}

TEST(EdgeDecomposition, RejectsDoubleAssignment) {
    EdgeDecomposition d(topology::triangle());
    d.add_star(0, std::vector<Edge>{Edge::make(0, 1)});
    EXPECT_THROW(d.add_star(1, std::vector<Edge>{Edge::make(1, 0)}),
                 std::invalid_argument);
    EXPECT_THROW(d.add_triangle(Triangle::make(0, 1, 2)),
                 std::invalid_argument);
}

TEST(EdgeDecomposition, RejectsNonIncidentStarEdge) {
    EdgeDecomposition d(topology::path(3));
    EXPECT_THROW(d.add_star(0, std::vector<Edge>{Edge::make(1, 2)}),
                 std::invalid_argument);
}

TEST(EdgeDecomposition, RejectsAbsentEdges) {
    EdgeDecomposition d(topology::path(3));
    EXPECT_THROW(d.add_star(0, std::vector<Edge>{Edge::make(0, 2)}),
                 std::invalid_argument);
    EXPECT_THROW(d.add_triangle(Triangle::make(0, 1, 2)),
                 std::invalid_argument);
    EXPECT_THROW(d.add_star(1, std::vector<Edge>{}), std::invalid_argument);
}

TEST(EdgeDecomposition, GroupOfUnassignedThrows) {
    EdgeDecomposition d(topology::path(3));
    EXPECT_THROW(d.group_of(0, 1), std::invalid_argument);
    EXPECT_THROW(d.group_of(0, 2), std::invalid_argument);  // not an edge
    EXPECT_EQ(d.group_of_edge_index(0), kNoGroup);
}

TEST(EdgeDecomposition, ToStringMentionsGroups) {
    EdgeDecomposition d(topology::triangle());
    d.add_triangle(Triangle::make(0, 1, 2));
    const std::string s = d.to_string();
    EXPECT_NE(s.find("triangle(0,1,2)"), std::string::npos);
}

TEST(CoverDecomposition, FromExplicitCover) {
    const Graph g = topology::path(4);
    const EdgeDecomposition d =
        decomposition_from_cover(g, std::vector<ProcessId>{1, 2});
    expect_valid_decomposition(d);
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.star_count(), 2u);
}

TEST(CoverDecomposition, RejectsNonCover) {
    const Graph g = topology::path(4);
    EXPECT_THROW(
        decomposition_from_cover(g, std::vector<ProcessId>{0, 3}),
        std::invalid_argument);
}

TEST(CoverDecomposition, UnusedCoverVerticesDropOut) {
    // Cover {0,1} of a single edge 0-1: edge goes to vertex 0, vertex 1
    // contributes no group.
    const Graph g = topology::path(2);
    const EdgeDecomposition d =
        decomposition_from_cover(g, std::vector<ProcessId>{0, 1});
    EXPECT_EQ(d.size(), 1u);
}

TEST(CoverDecomposition, ExactCoverMeetsTheorem5) {
    for (const auto& [name, graph] : testing::small_graph_suite(7)) {
        if (graph.num_edges() == 0) continue;
        const std::size_t beta = exact_vertex_cover(graph).size();
        const EdgeDecomposition d = exact_cover_decomposition(graph);
        expect_valid_decomposition(d);
        EXPECT_LE(d.size(), beta) << name;
    }
}

TEST(CoverDecomposition, ClientServerUsesOneStarPerServer) {
    const Graph g = topology::client_server(4, 40);
    const EdgeDecomposition d = exact_cover_decomposition(g);
    expect_valid_decomposition(d);
    EXPECT_EQ(d.size(), 4u);
}

TEST(TrivialComplete, SizesAreNMinus2) {
    for (std::size_t n : {3u, 4u, 5u, 8u, 12u}) {
        const EdgeDecomposition d =
            trivial_complete_decomposition(topology::complete(n));
        expect_valid_decomposition(d);
        EXPECT_EQ(d.size(), n - 2) << "K" << n;
        EXPECT_EQ(d.triangle_count(), 1u);
        EXPECT_EQ(d.star_count(), n - 3);
    }
}

TEST(TrivialComplete, SmallCases) {
    EXPECT_EQ(trivial_complete_decomposition(topology::complete(2)).size(),
              1u);
    EXPECT_EQ(trivial_complete_decomposition(topology::complete(1)).size(),
              0u);
    EXPECT_THROW(trivial_complete_decomposition(topology::path(4)),
                 std::invalid_argument);
}

TEST(DefaultDecomposition, PicksTrivialOnCompleteGraphs) {
    const EdgeDecomposition d = default_decomposition(topology::complete(6));
    EXPECT_EQ(d.size(), 4u);  // N−2, beats greedy's N−1 on even N
    expect_valid_decomposition(d);
}

/// The selection before König covers joined it: trivial N−2 on complete
/// graphs, otherwise Fig. 7 greedy unless the matching-cover stars are
/// strictly smaller.
EdgeDecomposition matching_cover_rule(const Graph& g) {
    const std::size_t n = g.num_vertices();
    if (n >= 3 && g.num_edges() == n * (n - 1) / 2) {
        return trivial_complete_decomposition(g);
    }
    EdgeDecomposition greedy = greedy_edge_decomposition(g);
    if (g.num_edges() == 0) return greedy;
    EdgeDecomposition covered = approx_cover_decomposition(g);
    return covered.size() < greedy.size() ? covered : greedy;
}

TEST(DefaultDecomposition, ValidAcrossSuite) {
    auto cases = testing::small_graph_suite(11);
    Rng rng(12);
    cases.push_back({"tree100", topology::random_tree(100, rng)});
    cases.push_back({"cs_4x64", topology::client_server(4, 64)});
    cases.push_back({"k16", topology::complete(16)});
    cases.push_back({"grid16x16", topology::grid(16, 16)});
    cases.push_back({"gnp40", topology::random_gnp(40, 0.1, rng)});
    for (const auto& [name, graph] : cases) {
        const EdgeDecomposition d = default_decomposition(graph);
        expect_valid_decomposition(d);
        // Stamps change only where d shrinks: never wider than the old
        // rule, and identical, group for group, wherever equally wide.
        const EdgeDecomposition before = matching_cover_rule(graph);
        EXPECT_LE(d.size(), before.size()) << name;
        if (d.size() == before.size()) {
            EXPECT_EQ(d.to_string(), before.to_string()) << name;
        }
    }
}

TEST(DefaultDecomposition, OptimalOnBipartiteTopologies) {
    const auto expect_optimal = [](const std::string& name, const Graph& g,
                                   std::size_t width) {
        const EdgeDecomposition d = default_decomposition(g);
        expect_valid_decomposition(d);
        EXPECT_EQ(d.size(), width) << name;
        EXPECT_EQ(decomposition_lower_bound(g), width) << name;
    };
    expect_optimal("grid16x16", topology::grid(16, 16), 128);
    expect_optimal("grid8x8", topology::grid(8, 8), 32);
    expect_optimal("hypercube6", topology::hypercube(6), 32);
    expect_optimal("hypercube8", topology::hypercube(8), 128);
    expect_optimal("ring32", topology::ring(32), 16);
    expect_optimal("path20", topology::path(20), 10);

    Rng rng(17);
    for (int trial = 0; trial < 8; ++trial) {
        const Graph tree = topology::random_tree(30 + 10 * trial, rng);
        expect_optimal("tree" + std::to_string(trial), tree,
                       exact_vertex_cover(tree).size());
    }
    for (int trial = 0; trial < 12; ++trial) {
        // Random bipartite graph: sides {0..5} and {6..11}.
        Graph g(12);
        for (ProcessId l = 0; l < 6; ++l) {
            for (ProcessId r = 6; r < 12; ++r) {
                if (rng.uniform01() < 0.3) g.add_edge(l, r);
            }
        }
        const auto alpha = exact_edge_decomposition(g);
        ASSERT_TRUE(alpha.has_value());
        expect_optimal("bipartite" + std::to_string(trial), g, alpha->size());
    }

    // Epoch 0 of a reconfigurable run uses the same selection.
    EXPECT_EQ(TopologyManager(topology::grid(8, 8)).current().width(), 32u);
}

}  // namespace
}  // namespace syncts
