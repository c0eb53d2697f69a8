#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clocks/online_clock.hpp"
#include "common/rng.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "trace/generator.hpp"

/// The online timestamper's arena drivers against its value drivers:
/// stamp_messages (the instant-order replay into a caller's arena) and
/// the arena form of timestamp_message must produce timestamps
/// *bit-identical* to timestamp_message's owning values across hundreds
/// of seeded random computations (varying topology, size, and
/// internal-event rate), and a rejected call must change nothing.

namespace syncts {
namespace {

constexpr std::size_t kSeeds = 500;

struct Scenario {
    std::shared_ptr<const EdgeDecomposition> decomposition;
    SyncComputation computation;
};

Scenario make_scenario(std::uint64_t seed) {
    Rng rng(seed);
    const std::size_t n = 2 + rng.below(7);  // 2..8 processes
    Graph topology = [&]() {
        switch (seed % 5) {
            case 0: return topology::complete(n);
            case 1: return n >= 3 ? topology::ring(n) : topology::path(n);
            case 2: return topology::star(n);
            case 3: return topology::path(n);
            default:
                return topology::random_connected(n, rng.below(n + 1), rng);
        }
    }();
    WorkloadOptions options;
    options.num_messages = 5 + rng.below(40);
    options.internal_rate = (seed % 3 == 0) ? 0.5 : 0.0;
    Scenario scenario{
        std::make_shared<const EdgeDecomposition>(
            default_decomposition(topology)),
        random_computation(topology, options, rng)};
    return scenario;
}

void expect_same_stamps(const TimestampArena& arena,
                        const std::vector<TsHandle>& handles,
                        const std::vector<VectorTimestamp>& legacy,
                        std::uint64_t seed) {
    ASSERT_EQ(handles.size(), legacy.size()) << "seed " << seed;
    for (std::size_t m = 0; m < legacy.size(); ++m) {
        ASSERT_EQ(VectorTimestamp(arena.span(handles[m])), legacy[m])
            << "seed " << seed << " message " << m;
    }
}

TEST(ClockEngineEquivalence, OnlineFamilyMatchesLegacyTimestamper) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Scenario s = make_scenario(seed);
        OnlineTimestamper legacy(s.decomposition);
        const std::vector<VectorTimestamp> expected =
            legacy.timestamp_computation(s.computation);

        OnlineTimestamper engine(s.decomposition);
        TimestampArena arena(engine.width(), s.computation.num_messages());
        const std::vector<TsHandle> handles =
            engine.stamp_messages(s.computation, arena);
        expect_same_stamps(arena, handles, expected, seed);
    }
}

// ---- Driver-level behavior --------------------------------------------

TEST(ClockEngine, IncrementalDriverMatchesLegacyRendezvous) {
    const Scenario s = make_scenario(7);
    OnlineTimestamper legacy(s.decomposition);
    OnlineTimestamper online(s.decomposition);
    TimestampArena arena(online.width(), s.computation.num_messages());
    for (const SyncMessage& m : s.computation.messages()) {
        const VectorTimestamp expected =
            legacy.timestamp_message(m.sender, m.receiver);
        const TsHandle h =
            online.timestamp_message(m.sender, m.receiver, arena);
        ASSERT_EQ(VectorTimestamp(arena.span(h)), expected)
            << "message " << m.id;
    }
}

TEST(ClockEngine, StampMessagesFillsCallerArena) {
    const Scenario s = make_scenario(13);
    OnlineTimestamper engine(s.decomposition);
    TimestampArena arena(engine.width(), s.computation.num_messages());
    const std::vector<TsHandle> handles =
        engine.stamp_messages(s.computation, arena);
    ASSERT_EQ(handles.size(), s.computation.num_messages());
    ASSERT_EQ(arena.size(), s.computation.num_messages());
    const std::vector<VectorTimestamp> expected =
        OnlineTimestamper(s.decomposition)
            .timestamp_computation(s.computation);
    for (std::size_t m = 0; m < handles.size(); ++m) {
        ASSERT_EQ(VectorTimestamp(arena.span(handles[m])), expected[m]);
    }
}

// Every check of the arena driver runs before it takes a slot: a
// mismatched arena, ids out of range, a self-message or a pair with no
// channel leave the arena's size and every clock as they were.
TEST(ClockEngine, RejectsMismatchedArenaWidth) {
    const Scenario s = make_scenario(17);
    OnlineTimestamper engine(s.decomposition);
    TimestampArena narrow(engine.width() + 1);
    EXPECT_THROW(engine.stamp_messages(s.computation, narrow),
                 std::invalid_argument);
    EXPECT_THROW(engine.timestamp_message(0, 1, narrow),
                 std::invalid_argument);
    EXPECT_EQ(narrow.size(), 0u);

    auto ring = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology::ring(5)));
    OnlineTimestamper timestamper(ring);
    TimestampArena arena(timestamper.width());
    (void)timestamper.timestamp_message(0, 1, arena);
    ASSERT_EQ(arena.size(), 1u);
    const VectorTimestamp sender = timestamper.clock(0).current();
    const VectorTimestamp receiver = timestamper.clock(2).current();
    EXPECT_THROW(timestamper.timestamp_message(0, 2, arena),
                 std::invalid_argument);
    EXPECT_THROW(timestamper.timestamp_message(0, 0, arena),
                 std::invalid_argument);
    EXPECT_THROW(timestamper.timestamp_message(0, 5, arena),
                 std::invalid_argument);
    EXPECT_EQ(arena.size(), 1u);
    EXPECT_EQ(timestamper.clock(0).current(), sender);
    EXPECT_EQ(timestamper.clock(2).current(), receiver);
}

// ---- In-place rebind (docs/MEMORY.md) ---------------------------------

TEST(OnlineClock, RebindMatchesFreshConstruction) {
    const Scenario dirty = make_scenario(47);
    const Scenario target = make_scenario(151);
    const std::size_t n = target.computation.num_processes();

    // One Fig. 5 rendezvous from `from` to `to` through the span hooks;
    // returns the sender's copy of the message timestamp.
    const auto rendezvous = [](OnlineProcessClock& from,
                               OnlineProcessClock& to) {
        const std::size_t d = from.width();
        std::vector<std::uint64_t> piggyback(d), ack(d), received(d);
        VectorTimestamp stamp(d);
        from.prepare_send_into(piggyback);
        to.on_receive_into(from.self(), piggyback, ack, received);
        from.on_ack_into(to.self(), ack, stamp.mutable_components());
        return stamp;
    };

    // Dirty a clock with real Fig. 5 traffic so its vector and peer
    // tables are far from the initial state.
    OnlineProcessClock dirtied(0, dirty.decomposition);
    {
        OnlineProcessClock peer(1, dirty.decomposition);
        (void)rendezvous(dirtied, peer);
    }

    // Rebound clocks must replay a whole computation identically to
    // fresh ones: every process of one fleet starts as a copy of the
    // dirtied clock and is rebound onto the target; the other fleet is
    // freshly constructed. Every message stamp must match.
    std::vector<OnlineProcessClock> rebound;
    std::vector<OnlineProcessClock> fresh;
    for (ProcessId p = 0; p < n; ++p) {
        rebound.push_back(dirtied);
        rebound.back().rebind(p, target.decomposition);
        fresh.emplace_back(p, target.decomposition);
    }
    for (const SyncMessage& m : target.computation.messages()) {
        const auto run = [&](std::vector<OnlineProcessClock>& fleet) {
            return rendezvous(fleet[m.sender], fleet[m.receiver]);
        };
        const VectorTimestamp a = run(rebound);
        const VectorTimestamp b = run(fresh);
        ASSERT_EQ(a, b) << "message " << m.id;
    }
    for (ProcessId p = 0; p < n; ++p) {
        ASSERT_EQ(VectorTimestamp(rebound[p].current_span()),
                  VectorTimestamp(fresh[p].current_span()))
            << "process " << p;
    }
}

}  // namespace
}  // namespace syncts
