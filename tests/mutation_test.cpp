#include <gtest/gtest.h>

#include "clocks/online_clock.hpp"
#include "core/causality.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"

/// Sensitivity ("mutation") tests: the verification harness itself must be
/// able to notice broken timestamps. Each test corrupts correct output in
/// a specific way and asserts the checkers flag it — guarding against the
/// failure mode where property tests pass because the oracle is blind.

namespace syncts {
namespace {

struct Fixture {
    SyncComputation computation;
    Poset truth;
    std::vector<VectorTimestamp> stamps;
};

Fixture make_fixture() {
    SyncComputation c = testing::random_workload(
        topology::client_server(2, 4), 60, 0.0, 1300);
    Poset truth = message_poset(c);
    auto stamps = online_timestamps(c);
    return {std::move(c), std::move(truth), std::move(stamps)};
}

TEST(Mutation, CorrectStampsPass) {
    const Fixture f = make_fixture();
    EXPECT_EQ(encoding_mismatches(f.truth, f.stamps), 0u);
}

TEST(Mutation, IncrementedComponentIsDetected) {
    Fixture f = make_fixture();
    f.stamps[10].increment(0);
    EXPECT_GT(encoding_mismatches(f.truth, f.stamps), 0u);
}

TEST(Mutation, SwappedStampsAreDetected) {
    Fixture f = make_fixture();
    // Find a comparable pair and swap their stamps.
    for (MessageId a = 0; a < f.stamps.size(); ++a) {
        for (MessageId b = a + 1; b < f.stamps.size(); ++b) {
            if (f.truth.less(a, b)) {
                std::swap(f.stamps[a], f.stamps[b]);
                EXPECT_GT(encoding_mismatches(f.truth, f.stamps), 0u);
                return;
            }
        }
    }
    FAIL() << "no comparable pair in fixture";
}

TEST(Mutation, ZeroedStampIsDetected) {
    Fixture f = make_fixture();
    f.stamps[20] = VectorTimestamp(f.stamps[20].width());
    EXPECT_GT(encoding_mismatches(f.truth, f.stamps), 0u);
}

TEST(Mutation, DuplicatedStampIsDetected) {
    Fixture f = make_fixture();
    // Two distinct messages with identical stamps cannot encode a poset
    // in which one precedes the other or in which they're concurrent —
    // find a pair where the duplicate breaks something.
    f.stamps[5] = f.stamps[6];
    EXPECT_GT(encoding_mismatches(f.truth, f.stamps), 0u);
}

TEST(Mutation, SkippedIncrementIsDetected) {
    // Re-run the protocol but drop one increment: emulate by decrementing
    // a component of one stamp (and all later stamps keep the real
    // values, so dominance breaks somewhere).
    Fixture f = make_fixture();
    auto components = std::vector<std::uint64_t>(
        f.stamps[30].components().begin(), f.stamps[30].components().end());
    for (auto& value : components) {
        if (value > 0) {
            --value;
            break;
        }
    }
    f.stamps[30] = VectorTimestamp(components);
    EXPECT_GT(encoding_mismatches(f.truth, f.stamps), 0u);
}

TEST(Mutation, ConsistencyCheckerIsWeakerThanEncoding) {
    // Lamport-style over-ordering passes consistency but fails encoding —
    // the two checkers must actually differ in strength.
    Fixture f = make_fixture();
    std::vector<VectorTimestamp> scalarized;
    std::uint64_t counter = 0;
    for (std::size_t i = 0; i < f.stamps.size(); ++i) {
        scalarized.emplace_back(std::vector<std::uint64_t>{++counter});
    }
    EXPECT_EQ(consistency_violations(f.truth, scalarized), 0u);
    EXPECT_GT(encoding_mismatches(f.truth, scalarized), 0u);
}

TEST(Mutation, DroppedStampIsRejectedNotSkipped) {
    // Zero the last message's stamp, then drop it: a check that swept
    // only the stamps it was handed would never compare that message and
    // report 0. Every Theorem 4 check must refuse the short stamp list.
    const SyncComputation c =
        testing::random_workload(topology::ring(5), 10, 0.0, 1301);
    const Poset truth = message_poset(c);
    std::vector<VectorTimestamp> stamps = online_timestamps(c);
    ASSERT_EQ(stamps.size(), 10u);
    stamps.back() = VectorTimestamp(stamps.back().width());
    stamps.pop_back();
    TimestampArena arena(stamps.front().width());
    for (const VectorTimestamp& stamp : stamps) {
        arena.allocate(stamp.components());
    }

    EXPECT_THROW(encoding_mismatches(truth, stamps), std::invalid_argument);
    EXPECT_THROW(consistency_violations(truth, stamps),
                 std::invalid_argument);
    EXPECT_THROW(encoding_mismatches(truth, arena), std::invalid_argument);
    EXPECT_THROW(consistency_violations(truth, arena), std::invalid_argument);
    EXPECT_THROW(encoding_mismatch_pairs(truth, arena),
                 std::invalid_argument);
}

}  // namespace
}  // namespace syncts
