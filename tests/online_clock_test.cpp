#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "clocks/online_clock.hpp"
#include "core/causality.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {
namespace {

TEST(VectorTimestampTest, VectorOrderBasics) {
    const VectorTimestamp a(std::vector<std::uint64_t>{1, 0, 0});
    const VectorTimestamp b(std::vector<std::uint64_t>{1, 1, 1});
    const VectorTimestamp c(std::vector<std::uint64_t>{0, 0, 2});
    EXPECT_TRUE(a.less(b));
    EXPECT_FALSE(b.less(a));
    EXPECT_TRUE(a.leq(a));
    EXPECT_FALSE(a.less(a));
    EXPECT_TRUE(a.concurrent_with(c));
    EXPECT_FALSE(a.concurrent_with(b));
    EXPECT_EQ(b.total(), 3u);
    EXPECT_EQ(b.to_string(), "(1,1,1)");
}

TEST(VectorTimestampTest, JoinAndIncrement) {
    VectorTimestamp a(std::vector<std::uint64_t>{1, 0, 5});
    const VectorTimestamp b(std::vector<std::uint64_t>{0, 3, 2});
    a.join(b);
    EXPECT_EQ(a, VectorTimestamp(std::vector<std::uint64_t>{1, 3, 5}));
    a.increment(1);
    EXPECT_EQ(a[1], 4u);
    EXPECT_THROW(a.increment(9), std::invalid_argument);
    VectorTimestamp narrow(2);
    EXPECT_THROW(a.join(narrow), std::invalid_argument);
    EXPECT_THROW(a.leq(narrow), std::invalid_argument);
}

TEST(OnlineClock, PaperFig6SampleRun) {
    // Reproduces the worked example: with E1 = star@P1, E2 = star@P2,
    // E3 = triangle(P3,P4,P5), the message P2 -> P3 is stamped (1,1,1)
    // from local vectors (1,0,0) and (0,0,1).
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        trivial_complete_decomposition(paper_fig6_topology()));
    ASSERT_EQ(decomposition->size(), 3u);
    OnlineTimestamper timestamper(decomposition);
    const auto stamps =
        timestamper.timestamp_computation(paper_fig6_computation());
    ASSERT_EQ(stamps.size(), 5u);
    EXPECT_EQ(stamps[0], VectorTimestamp(std::vector<std::uint64_t>{1, 0, 0}));
    EXPECT_EQ(stamps[1], VectorTimestamp(std::vector<std::uint64_t>{0, 0, 1}));
    EXPECT_EQ(stamps[2], VectorTimestamp(std::vector<std::uint64_t>{1, 1, 1}));
    EXPECT_EQ(stamps[3], VectorTimestamp(std::vector<std::uint64_t>{0, 0, 2}));
    EXPECT_EQ(stamps[4], VectorTimestamp(std::vector<std::uint64_t>{2, 0, 2}));
}

TEST(OnlineClock, SenderAndReceiverAgree) {
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology::path(3)));
    OnlineProcessClock p0(0, decomposition);
    OnlineProcessClock p1(1, decomposition);
    const std::size_t d = p0.width();
    std::vector<std::uint64_t> piggyback(d);
    std::vector<std::uint64_t> ack(d);
    VectorTimestamp receiver_stamp(d);
    VectorTimestamp sender_stamp(d);
    p0.prepare_send_into(piggyback);
    p1.on_receive_into(0, piggyback, ack, receiver_stamp.mutable_components());
    p0.on_ack_into(1, ack, sender_stamp.mutable_components());
    EXPECT_EQ(sender_stamp, receiver_stamp);
    EXPECT_EQ(p0.current(), p1.current());
}

TEST(OnlineClock, RejectedHookLeavesClockAndOutputsUntouched) {
    const Graph graph = topology::grid(4, 4);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    const ProcessId neighbour = graph.neighbors(0)[0];
    ProcessId stranger = 1;
    while (graph.has_edge(0, stranger)) ++stranger;
    OnlineProcessClock p0(0, decomposition);
    OnlineProcessClock peer(neighbour, decomposition);
    const std::size_t d = p0.width();
    ASSERT_GT(d, 1u);
    // One rendezvous first, so the clock holds a nonzero vector.
    std::vector<std::uint64_t> piggyback(d);
    std::vector<std::uint64_t> ack(d);
    std::vector<std::uint64_t> stamp(d);
    peer.prepare_send_into(piggyback);
    p0.on_receive_into(neighbour, piggyback, ack, stamp);
    const VectorTimestamp before = p0.current();

    const std::vector<std::uint64_t> remote(d, 7);
    const std::vector<std::uint64_t> wide(d + 1, 7);
    const std::vector<std::uint64_t> sentinel(d, 0xDEAD);
    const auto expect_untouched = [&](const char* what) {
        EXPECT_EQ(p0.current(), before) << what;
        EXPECT_EQ(ack, sentinel) << what;
        EXPECT_EQ(stamp, sentinel) << what;
    };
    for (const ProcessId unknown : {stranger, ProcessId{99}}) {
        ack = sentinel;
        stamp = sentinel;
        EXPECT_THROW(p0.on_receive_into(unknown, remote, ack, stamp),
                     std::invalid_argument);
        expect_untouched("on_receive_into, unknown peer");
        EXPECT_THROW(p0.on_ack_into(unknown, remote, stamp),
                     std::invalid_argument);
        expect_untouched("on_ack_into, unknown peer");
    }
    EXPECT_THROW(p0.on_receive_into(neighbour, wide, ack, stamp),
                 std::invalid_argument);
    expect_untouched("on_receive_into, wrong remote width");
    EXPECT_THROW(p0.on_ack_into(neighbour, wide, stamp),
                 std::invalid_argument);
    expect_untouched("on_ack_into, wrong remote width");
}

TEST(OnlineClock, ProtocolHooksMatchDrivenTimestamper) {
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology::complete(4)));
    OnlineTimestamper timestamper(decomposition);
    const VectorTimestamp t1 = timestamper.timestamp_message(0, 1);
    const VectorTimestamp t2 = timestamper.timestamp_message(1, 2);
    EXPECT_TRUE(t1.less(t2));
    const VectorTimestamp t3 = timestamper.timestamp_message(3, 0);
    EXPECT_TRUE(t1.less(t3));  // P0 participated in m1
    EXPECT_EQ(timestamper.clock(2).current(), t2);
}

TEST(OnlineClock, RejectsForeignChannels) {
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology::path(3)));
    OnlineTimestamper timestamper(decomposition);
    EXPECT_THROW(timestamper.timestamp_message(0, 2), std::invalid_argument);
    EXPECT_THROW(timestamper.timestamp_message(1, 1), std::invalid_argument);
}

TEST(OnlineClock, RejectsIncompleteDecomposition) {
    auto incomplete =
        std::make_shared<const EdgeDecomposition>(topology::path(3));
    EXPECT_THROW(OnlineTimestamper{incomplete}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// Theorem 4 property sweep: on every topology family, for every
// decomposition strategy, online timestamps encode ↦ exactly.
// ---------------------------------------------------------------------

struct Theorem4Param {
    std::size_t family_index;
    std::size_t n;
    std::size_t messages;
    std::uint64_t seed;

    friend std::ostream& operator<<(std::ostream& os,
                                    const Theorem4Param& p) {
        return os << "family" << p.family_index << "_n" << p.n << "_m"
                  << p.messages << "_s" << p.seed;
    }
};

class Theorem4Test : public ::testing::TestWithParam<Theorem4Param> {};

TEST_P(Theorem4Test, OnlineTimestampsEncodeSynchronousPrecedence) {
    const auto& param = GetParam();
    const auto suite = testing::topology_suite(param.n, param.seed);
    ASSERT_LT(param.family_index, suite.size());
    const auto& [name, graph] = suite[param.family_index];

    const SyncComputation computation =
        testing::random_workload(graph, param.messages, 0.0, param.seed + 1);
    const Poset truth = message_poset(computation);

    using Decomposer = EdgeDecomposition (*)(const Graph&);
    const Decomposer decomposers[] = {
        [](const Graph& g) { return default_decomposition(g); },
        [](const Graph& g) { return greedy_edge_decomposition(g); },
        [](const Graph& g) { return approx_cover_decomposition(g); }};
    for (const Decomposer decompose : decomposers) {
        auto decomposition =
            std::make_shared<const EdgeDecomposition>(decompose(graph));
        OnlineTimestamper timestamper(decomposition);
        const auto stamps = timestamper.timestamp_computation(computation);
        EXPECT_EQ(encoding_mismatches(truth, stamps), 0u)
            << name << " width=" << decomposition->size();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem4Test,
    ::testing::Values(
        Theorem4Param{0, 6, 60, 1}, Theorem4Param{1, 6, 60, 2},
        Theorem4Param{2, 6, 60, 3}, Theorem4Param{3, 6, 60, 4},
        Theorem4Param{4, 6, 60, 5}, Theorem4Param{5, 6, 60, 6},
        Theorem4Param{6, 6, 60, 7}, Theorem4Param{7, 6, 60, 8},
        Theorem4Param{8, 6, 60, 9}, Theorem4Param{9, 6, 60, 10},
        Theorem4Param{0, 10, 90, 11}, Theorem4Param{1, 10, 90, 12},
        Theorem4Param{2, 10, 90, 13}, Theorem4Param{3, 10, 90, 14},
        Theorem4Param{4, 10, 90, 15}, Theorem4Param{5, 10, 90, 16},
        Theorem4Param{6, 10, 90, 17}, Theorem4Param{7, 10, 90, 18},
        Theorem4Param{8, 10, 90, 19}, Theorem4Param{9, 10, 90, 20},
        Theorem4Param{3, 4, 40, 21}, Theorem4Param{3, 14, 120, 22},
        Theorem4Param{6, 20, 150, 23}, Theorem4Param{4, 24, 150, 24}));

TEST(OnlineClock, ConvenienceWrapperMatchesGroundTruth) {
    const SyncComputation c =
        testing::random_workload(topology::paper_fig4_tree(), 120, 0.0, 42);
    const auto stamps = online_timestamps(c);
    EXPECT_EQ(encoding_mismatches(message_poset(c), stamps), 0u);
    // Width should be 3 for the Fig. 4 tree.
    ASSERT_FALSE(stamps.empty());
    EXPECT_EQ(stamps[0].width(), 3u);
}

TEST(OnlineClock, TimestampsAreUniquePerMessage) {
    const SyncComputation c =
        testing::random_workload(topology::complete(7), 150, 0.0, 43);
    const auto stamps = online_timestamps(c);
    for (std::size_t a = 0; a < stamps.size(); ++a) {
        for (std::size_t b = a + 1; b < stamps.size(); ++b) {
            EXPECT_NE(stamps[a], stamps[b]);
        }
    }
}

TEST(OnlineClock, WidthOneSufficesOnStarAndTriangle) {
    // Lemma 1 + Theorem 4: an integer timestamps a star or triangle system.
    for (const Graph& g : {topology::star(9), topology::triangle()}) {
        const SyncComputation c = testing::random_workload(g, 80, 0.0, 44);
        auto decomposition = std::make_shared<const EdgeDecomposition>(
            default_decomposition(g));
        EXPECT_EQ(decomposition->size(), 1u);
        OnlineTimestamper timestamper(decomposition);
        const auto stamps = timestamper.timestamp_computation(c);
        EXPECT_EQ(encoding_mismatches(message_poset(c), stamps), 0u);
    }
}

}  // namespace
}  // namespace syncts
