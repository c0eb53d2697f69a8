#include <gtest/gtest.h>

#include <memory>

#include "clocks/online_clock.hpp"
#include "core/causality.hpp"
#include "decomp/cover_decomposer.hpp"
#include "runtime/async_sim.hpp"
#include "runtime/synchronizer.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {
namespace {

TEST(AsyncSimulator, DeliversInTimeOrder) {
    AsyncSimulator sim(2, 1);
    sim.set_fixed_latency(10);
    std::vector<std::uint64_t> delivered;
    sim.on_deliver(1, [&](std::uint64_t now, const Packet&) {
        delivered.push_back(now);
    });
    sim.on_deliver(0, [](std::uint64_t, const Packet&) {});
    // Queued out of time order: sent at 20, 0 and 10.
    for (const std::uint64_t sent : {20u, 0u, 10u}) {
        Packet p;
        p.source = 0;
        p.destination = 1;
        sim.send(sent, std::move(p));
    }
    const std::uint64_t end = sim.run();
    EXPECT_EQ(delivered, (std::vector<std::uint64_t>{10, 20, 30}));
    EXPECT_EQ(end, 30u);
    EXPECT_EQ(sim.packets_delivered(), 3u);
}

TEST(AsyncSimulator, TimersAndPacketsShareOneOrder) {
    // Two timers around one packet, all due at tick 5: they fire in the
    // order they were scheduled, whatever their kind.
    const Timer first{1, 7, 3, 0, ~std::uint64_t{0}};
    const Timer second{0, 2, ~std::uint64_t{0}, 9, 42};
    std::vector<std::uint64_t> order;  // timer a, or 100 + packet tag
    std::vector<Timer> fired;
    const auto run = [&](std::uint64_t max_events) {
        order.clear();
        fired.clear();
        AsyncSimulator sim(2, 1);
        sim.set_fixed_latency(5);
        sim.on_deliver(1, [&](std::uint64_t now, const Packet& p) {
            EXPECT_EQ(now, 5u);
            order.push_back(100 + p.tag);
        });
        sim.on_timer([&](std::uint64_t now, const Timer& timer) {
            EXPECT_EQ(now, 5u);
            order.push_back(timer.a);
            fired.push_back(timer);
        });
        sim.schedule(5, first);
        Packet p;
        p.destination = 1;
        p.tag = 1;
        sim.send(0, std::move(p));
        sim.schedule(5, second);
        return sim.run(max_events);
    };
    EXPECT_EQ(run(3), 5u);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 101, 9}));
    ASSERT_EQ(fired.size(), 2u);
    const auto same = [](const Timer& a, const Timer& b) {
        return a.process == b.process && a.kind == b.kind &&
               a.incarnation == b.incarnation && a.a == b.a && a.b == b.b;
    };
    EXPECT_TRUE(same(fired[0], first));
    EXPECT_TRUE(same(fired[1], second));
    // Three events need a budget of three: the timers count toward it.
    EXPECT_THROW(run(2), std::invalid_argument);
}

TEST(AsyncSimulator, TiesBreakBySendOrder) {
    AsyncSimulator sim(2, 1);
    sim.set_fixed_latency(5);
    std::vector<std::uint64_t> delivered;
    sim.on_deliver(1, [&](std::uint64_t, const Packet& p) {
        delivered.push_back(p.tag);
    });
    for (std::uint64_t i = 0; i < 4; ++i) {
        Packet p;
        p.destination = 1;
        p.tag = i;
        sim.send(0, std::move(p));
    }
    sim.run();
    EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(AsyncSimulator, EventBudgetGuard) {
    AsyncSimulator sim(1, 1);
    // A handler that re-sends forever must trip the budget, not hang.
    sim.on_deliver(0, [&](std::uint64_t now, const Packet& p) {
        Packet again = p;
        sim.send(now, std::move(again));
    });
    Packet p;
    p.destination = 0;
    sim.send(0, std::move(p));
    EXPECT_THROW(sim.run(/*max_events=*/100), std::invalid_argument);
}

TEST(AsyncSimulator, RejectsBadConfiguration) {
    AsyncSimulator sim(2, 1);
    EXPECT_THROW(sim.set_fixed_latency(0), std::invalid_argument);
    EXPECT_THROW(sim.set_uniform_latency(0, 3), std::invalid_argument);
    EXPECT_THROW(sim.set_uniform_latency(5, 3), std::invalid_argument);
    Packet p;
    p.destination = 9;
    EXPECT_THROW(sim.send(0, std::move(p)), std::invalid_argument);
}

// ---------------------------------------------------------------------

TEST(Synchronizer, MatchesDirectSimulatorOnFixedLatency) {
    const SyncComputation script = paper_fig6_computation();
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        trivial_complete_decomposition(script.topology()));
    SynchronizerOptions options;
    const SynchronizerResult result =
        run_rendezvous_protocol(decomposition, script, options);

    OnlineTimestamper direct(decomposition);
    const auto expected = direct.timestamp_computation(script);
    ASSERT_EQ(result.message_stamps.size(), expected.size());
    for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
        EXPECT_EQ(result.message_stamps[i],
                  expected[result.script_message[i]]);
    }
    EXPECT_EQ(result.packets, 2 * script.num_messages());
}

TEST(Synchronizer, LatencyInvarianceAcrossSeeds) {
    // The whole point of the protocol: timestamps are a function of the
    // schedule, not of network timing. Random latencies across seeds must
    // reproduce the direct simulator's stamps exactly.
    for (const auto& [name, graph] : testing::topology_suite(6, 971)) {
        const SyncComputation script =
            testing::random_workload(graph, 50, 0.0, 972);
        auto decomposition = std::make_shared<const EdgeDecomposition>(
            default_decomposition(graph));
        OnlineTimestamper direct(decomposition);
        const auto expected = direct.timestamp_computation(script);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SynchronizerOptions options;
            options.seed = seed;
            options.latency_lo = 1;
            options.latency_hi = 50;
            const SynchronizerResult result =
                run_rendezvous_protocol(decomposition, script, options);
            for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
                ASSERT_EQ(result.message_stamps[i],
                          expected[result.script_message[i]])
                    << name << " seed " << seed;
            }
        }
    }
}

TEST(Synchronizer, RealizedComputationEncodesItsOwnPoset) {
    const Graph graph = topology::client_server(2, 4);
    const SyncComputation script =
        testing::random_workload(graph, 80, 0.0, 973);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    SynchronizerOptions options;
    options.seed = 9;
    options.latency_lo = 1;
    options.latency_hi = 20;
    const SynchronizerResult result =
        run_rendezvous_protocol(decomposition, script, options);
    // Commit order is a valid instant order of the same computation, so
    // the recorded stamps encode the realized poset exactly.
    EXPECT_EQ(encoding_mismatches(message_poset(result.computation),
                                  result.message_stamps),
              0u);
    // And the realized per-process orders equal the script's.
    for (ProcessId p = 0; p < graph.num_vertices(); ++p) {
        const auto realized = result.computation.process_messages(p);
        const auto scripted = script.process_messages(p);
        ASSERT_EQ(realized.size(), scripted.size());
        for (std::size_t i = 0; i < realized.size(); ++i) {
            EXPECT_EQ(result.script_message[realized[i]], scripted[i]);
        }
    }
}

TEST(Synchronizer, VirtualDurationScalesWithLatency) {
    const SyncComputation script = paper_fig1_computation();
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(script.topology()));
    SynchronizerOptions fast;
    fast.latency_lo = fast.latency_hi = 1;
    SynchronizerOptions slow;
    slow.latency_lo = slow.latency_hi = 100;
    const auto fast_run =
        run_rendezvous_protocol(decomposition, script, fast);
    const auto slow_run =
        run_rendezvous_protocol(decomposition, script, slow);
    EXPECT_EQ(slow_run.virtual_duration, 100 * fast_run.virtual_duration);
}

TEST(Synchronizer, RejectsMismatchedTopology) {
    SyncComputation script(topology::path(3));
    script.add_message(0, 1);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology::path(4)));
    EXPECT_THROW(
        run_rendezvous_protocol(decomposition, script, SynchronizerOptions{}),
        std::invalid_argument);
}

}  // namespace
}  // namespace syncts
