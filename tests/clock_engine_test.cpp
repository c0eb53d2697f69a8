#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "clocks/clock_engine.hpp"
#include "clocks/direct_dependency.hpp"
#include "clocks/fm_event_clock.hpp"
#include "clocks/fm_sync_clock.hpp"
#include "clocks/lamport_clock.hpp"
#include "clocks/offline_timestamper.hpp"
#include "clocks/online_clock.hpp"
#include "common/rng.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "trace/generator.hpp"

/// Satellite acceptance test: the arena-backed ClockEngine replay must
/// produce timestamps *bit-identical* to the legacy per-family
/// implementations, for every clock family, across hundreds of seeded
/// random computations (varying topology, size, and internal-event rate).

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

void expect_same_stamps(const EngineStamps& engine,
                        const std::vector<VectorTimestamp>& legacy,
                        std::uint64_t seed, const char* family) {
    ASSERT_EQ(engine.message_stamps.size(), legacy.size())
        << family << " seed " << seed;
    for (std::size_t m = 0; m < legacy.size(); ++m) {
        const auto row = engine.arena.span(engine.message_stamps[m]);
        ASSERT_EQ(VectorTimestamp(row), legacy[m])
            << family << " seed " << seed << " message " << m;
    }
}

TEST(ClockEngineEquivalence, OnlineFamilyMatchesLegacyTimestamper) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Scenario s = make_scenario(seed);
        OnlineTimestamper legacy(s.decomposition);
        const std::vector<VectorTimestamp> expected =
            legacy.timestamp_computation(s.computation);

        const auto engine =
            make_clock_engine(ClockFamily::online, s.decomposition);
        expect_same_stamps(engine->stamp_computation(s.computation), expected,
                           seed, "online");
    }
}

TEST(ClockEngineEquivalence, FmSyncFamilyMatchesLegacy) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Scenario s = make_scenario(seed);
        const std::vector<VectorTimestamp> expected =
            fm_sync_timestamps(s.computation);
        const auto engine =
            make_clock_engine(ClockFamily::fm_sync, s.decomposition);
        expect_same_stamps(engine->stamp_computation(s.computation), expected,
                           seed, "fm_sync");
    }
}

TEST(ClockEngineEquivalence, FmEventFamilyMatchesLegacy) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Scenario s = make_scenario(seed);
        const FmEventTimestamps expected = fm_event_timestamps(s.computation);
        const auto engine =
            make_clock_engine(ClockFamily::fm_event, s.decomposition);
        const EngineStamps stamps = engine->stamp_computation(s.computation);
        expect_same_stamps(stamps, expected.message_stamps, seed, "fm_event");
        ASSERT_EQ(stamps.internal_stamps.size(),
                  expected.internal_stamps.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < expected.internal_stamps.size(); ++i) {
            ASSERT_EQ(VectorTimestamp(
                          stamps.arena.span(stamps.internal_stamps[i])),
                      expected.internal_stamps[i])
                << "fm_event seed " << seed << " internal event " << i;
        }
    }
}

TEST(ClockEngineEquivalence, LamportFamilyMatchesLegacy) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Scenario s = make_scenario(seed);
        const LamportTimestamps expected = lamport_timestamps(s.computation);
        const auto engine =
            make_clock_engine(ClockFamily::lamport, s.decomposition);
        const EngineStamps stamps = engine->stamp_computation(s.computation);
        ASSERT_EQ(stamps.message_stamps.size(),
                  expected.message_stamps.size());
        for (std::size_t m = 0; m < expected.message_stamps.size(); ++m) {
            const auto row = stamps.arena.span(stamps.message_stamps[m]);
            ASSERT_EQ(row.size(), 1u);
            ASSERT_EQ(row[0], expected.message_stamps[m])
                << "lamport seed " << seed << " message " << m;
        }
        ASSERT_EQ(stamps.internal_stamps.size(),
                  expected.internal_stamps.size());
        for (std::size_t i = 0; i < expected.internal_stamps.size(); ++i) {
            ASSERT_EQ(stamps.arena.span(stamps.internal_stamps[i])[0],
                      expected.internal_stamps[i])
                << "lamport seed " << seed << " internal event " << i;
        }
    }
}

TEST(ClockEngineEquivalence, DirectDependencyFamilyMatchesLegacy) {
    constexpr std::uint64_t kNone64 =
        std::numeric_limits<std::uint64_t>::max();
    const auto encode = [](MessageId id) {
        return id == kNoMessage ? kNone64 : static_cast<std::uint64_t>(id);
    };
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Scenario s = make_scenario(seed);
        const std::vector<DirectDeps> expected =
            DirectDependencyTracker::record_computation(s.computation);
        const auto engine = make_clock_engine(ClockFamily::direct_dependency,
                                              s.decomposition);
        const EngineStamps stamps = engine->stamp_computation(s.computation);
        ASSERT_EQ(stamps.message_stamps.size(), expected.size());
        for (std::size_t m = 0; m < expected.size(); ++m) {
            const auto row = stamps.arena.span(stamps.message_stamps[m]);
            ASSERT_EQ(row.size(), 2u);
            ASSERT_EQ(row[0], encode(expected[m].prev_sender))
                << "direct_dependency seed " << seed << " message " << m;
            ASSERT_EQ(row[1], encode(expected[m].prev_receiver))
                << "direct_dependency seed " << seed << " message " << m;
        }
    }
}

TEST(ClockEngineEquivalence, OfflineFamilyMatchesLegacy) {
    // The offline engine is batch-only; it must pack Fig. 9's stamps into
    // the arena unchanged and report the realizer width afterwards.
    for (std::uint64_t seed = 0; seed < kSeeds; seed += 10) {
        const Scenario s = make_scenario(seed);
        const OfflineResult expected = offline_timestamps(s.computation);
        const auto engine =
            make_clock_engine(ClockFamily::offline, s.decomposition);
        EXPECT_FALSE(engine->online());
        EXPECT_EQ(engine->width(), 0u) << "width is unknown before a run";
        expect_same_stamps(engine->stamp_computation(s.computation),
                           expected.timestamps, seed, "offline");
        EXPECT_EQ(engine->width(), expected.width);
    }
}

// ---- Driver-level behavior --------------------------------------------

TEST(ClockEngine, IncrementalDriverMatchesLegacyRendezvous) {
    const Scenario s = make_scenario(7);
    OnlineTimestamper legacy(s.decomposition);
    const auto engine = make_clock_engine(ClockFamily::online,
                                          s.decomposition);
    auto* online = dynamic_cast<OnlineTimestamper*>(engine.get());
    ASSERT_NE(online, nullptr);
    TimestampArena arena(engine->width(),
                         s.computation.num_messages());
    for (const SyncMessage& m : s.computation.messages()) {
        const VectorTimestamp expected =
            legacy.timestamp_message(m.sender, m.receiver);
        const TsHandle h =
            online->timestamp_message(m.sender, m.receiver, arena);
        ASSERT_EQ(VectorTimestamp(arena.span(h)), expected)
            << "message " << m.id;
    }
}

TEST(ClockEngine, ResetRestoresInitialState) {
    const Scenario s = make_scenario(11);
    for (const ClockFamily family :
         {ClockFamily::online, ClockFamily::fm_sync, ClockFamily::fm_event,
          ClockFamily::lamport, ClockFamily::direct_dependency}) {
        const auto engine = make_clock_engine(family, s.decomposition);
        const EngineStamps first = engine->stamp_computation(s.computation);
        engine->reset();
        const EngineStamps second = engine->stamp_computation(s.computation);
        ASSERT_EQ(first.arena, second.arena) << to_string(family);
        ASSERT_EQ(first.message_stamps, second.message_stamps)
            << to_string(family);
    }
}

TEST(ClockEngine, StampMessagesFillsCallerArena) {
    const Scenario s = make_scenario(13);
    const auto engine = make_clock_engine(ClockFamily::fm_sync,
                                          s.decomposition);
    TimestampArena arena(engine->width(), s.computation.num_messages());
    const std::vector<TsHandle> handles =
        engine->stamp_messages(s.computation, arena);
    ASSERT_EQ(handles.size(), s.computation.num_messages());
    ASSERT_EQ(arena.size(), s.computation.num_messages());
    engine->reset();
    const std::vector<VectorTimestamp> expected =
        engine->stamp_computation(s.computation).materialize_messages();
    for (std::size_t m = 0; m < handles.size(); ++m) {
        ASSERT_EQ(VectorTimestamp(arena.span(handles[m])), expected[m]);
    }
}

TEST(ClockEngine, RejectsMismatchedArenaWidth) {
    const Scenario s = make_scenario(17);
    const auto engine = make_clock_engine(ClockFamily::fm_sync,
                                          s.decomposition);
    TimestampArena narrow(engine->width() + 1);
    EXPECT_THROW(engine->stamp_messages(s.computation, narrow),
                 std::invalid_argument);
}

TEST(ClockEngine, OfflineHooksThrow) {
    const Scenario s = make_scenario(19);
    const auto engine = make_clock_engine(ClockFamily::offline,
                                          s.decomposition);
    std::vector<std::uint64_t> buffer(4);
    EXPECT_THROW(engine->prepare_send(0, buffer), std::invalid_argument);
}

TEST(ClockEngine, FamilyNamesRoundTrip) {
    EXPECT_STREQ(to_string(ClockFamily::online), "online");
    EXPECT_STREQ(to_string(ClockFamily::fm_sync), "fm_sync");
    EXPECT_STREQ(to_string(ClockFamily::fm_event), "fm_event");
    EXPECT_STREQ(to_string(ClockFamily::lamport), "lamport");
    EXPECT_STREQ(to_string(ClockFamily::direct_dependency),
                 "direct_dependency");
    EXPECT_STREQ(to_string(ClockFamily::offline), "offline");
}

TEST(ClockEngine, MaterializeMessagesMatchesArenaRows) {
    const Scenario s = make_scenario(23);
    const auto engine = make_clock_engine(ClockFamily::online,
                                          s.decomposition);
    const EngineStamps stamps = engine->stamp_computation(s.computation);
    const std::vector<VectorTimestamp> materialized =
        stamps.materialize_messages();
    ASSERT_EQ(materialized.size(), stamps.message_stamps.size());
    for (std::size_t m = 0; m < materialized.size(); ++m) {
        ASSERT_EQ(materialized[m].components().size(),
                  stamps.arena.width());
        ASSERT_EQ(materialized[m],
                  VectorTimestamp(
                      stamps.arena.span(stamps.message_stamps[m])));
    }
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
