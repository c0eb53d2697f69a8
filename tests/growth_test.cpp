#include <gtest/gtest.h>

#include <vector>

#include "core/causality.hpp"
#include "core/sync_system.hpp"
#include "core/timestamped_trace.hpp"
#include "decomp/cover_decomposer.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {
namespace {

TEST(GraphGrowth, AddVertexExtendsTheGraph) {
    Graph g = topology::path(3);
    const ProcessId v = g.add_vertex();
    EXPECT_EQ(v, 3u);
    EXPECT_EQ(g.num_vertices(), 4u);
    EXPECT_EQ(g.degree(v), 0u);
    g.add_edge(2, v);
    EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(DecompositionGrowth, LeafJoinKeepsWidth) {
    const SyncSystem base(topology::client_server(2, 3));
    ASSERT_EQ(base.width(), 2u);
    // The two groups are the server stars.
    const std::vector<GroupId> all_groups{0, 1};
    const auto [grown, newcomer] = base.with_leaf_process(all_groups);
    EXPECT_EQ(newcomer, 5u);
    EXPECT_EQ(grown.num_processes(), 6u);
    EXPECT_EQ(grown.width(), 2u);  // unchanged — the Section 3.3 claim
    EXPECT_TRUE(grown.decomposition().complete());
    // The new channels belong to the server stars.
    const EdgeGroup& g0 = grown.decomposition().group(0);
    EXPECT_EQ(grown.decomposition().group_of(g0.root, newcomer), 0u);
}

TEST(DecompositionGrowth, RepeatedGrowthStaysConstantWidth) {
    // The default on client_server(3, 2) is the König cover's two client
    // stars (d = 2, optimal); the Section 3.3 claim is about the server
    // stars, so build those explicitly.
    EXPECT_EQ(SyncSystem(topology::client_server(3, 2)).width(), 2u);
    SyncSystem system(
        decomposition_from_cover(topology::client_server(3, 2), {0, 1, 2}));
    ASSERT_EQ(system.width(), 3u);
    for (int i = 0; i < 20; ++i) {
        const std::vector<GroupId> groups{0, 1, 2};
        auto [grown, newcomer] = system.with_leaf_process(groups);
        EXPECT_EQ(grown.width(), 3u);
        EXPECT_EQ(newcomer, system.num_processes());
        system = std::move(grown);
    }
    EXPECT_EQ(system.num_processes(), 25u);
    EXPECT_EQ(system.width(), 3u);
}

TEST(DecompositionGrowth, TimestampsStayExactAfterGrowth) {
    SyncSystem system(topology::client_server(2, 2));
    const std::vector<GroupId> groups{0, 1};
    for (int round = 0; round < 3; ++round) {
        system = system.with_leaf_process(groups).first;
    }
    const SyncComputation c = testing::random_workload(
        system.topology(), 120, 0.0, 555 );
    const TimestampedTrace trace = system.analyze(c);
    EXPECT_EQ(trace.verify_against_ground_truth(), 0u);
    EXPECT_EQ(trace.timestamp(0).width(), 2u);
}

TEST(DecompositionGrowth, PreGrowthTimestampsRemainComparable) {
    // Stamps minted before the growth use the same components as stamps
    // minted after, so cross-era precedence tests stay meaningful.
    const SyncSystem before(topology::client_server(2, 2));
    auto timestamper = before.make_timestamper();
    const VectorTimestamp old_stamp = timestamper.timestamp_message(2, 0);

    const auto [after, newcomer] =
        before.with_leaf_process(std::vector<GroupId>{0, 1});
    auto grown_timestamper = after.make_timestamper();
    grown_timestamper.timestamp_message(2, 0);  // replay history
    const VectorTimestamp new_stamp =
        grown_timestamper.timestamp_message(newcomer, 0);
    EXPECT_EQ(old_stamp.width(), new_stamp.width());
    EXPECT_TRUE(old_stamp.less(new_stamp));
}

TEST(DecompositionGrowth, RejectsBadGroups) {
    const SyncSystem system(topology::client_server(2, 2));
    EXPECT_THROW(system.with_leaf_process(std::vector<GroupId>{7}),
                 std::invalid_argument);
    EXPECT_THROW(system.with_leaf_process(std::vector<GroupId>{0, 0}),
                 std::invalid_argument);
    // Triangle groups cannot absorb a new leaf.
    SyncSystem triangle(topology::triangle(), DecompositionStrategy::greedy);
    EXPECT_THROW(triangle.with_leaf_process(std::vector<GroupId>{0}),
                 std::invalid_argument);
}

TEST(DecompositionGrowth, GrowthIsValueSemantics) {
    const SyncSystem base(topology::client_server(2, 2));
    const auto [grown, newcomer] =
        base.with_leaf_process(std::vector<GroupId>{0});
    (void)newcomer;
    // The base system is untouched.
    EXPECT_EQ(base.num_processes(), 4u);
    EXPECT_EQ(grown.num_processes(), 5u);
    EXPECT_EQ(base.topology().num_edges(), 4u);
    EXPECT_EQ(grown.topology().num_edges(), 5u);
}

}  // namespace
}  // namespace syncts
