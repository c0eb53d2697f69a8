#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/causality.hpp"
#include "decomp/cover_decomposer.hpp"
#include "core/sync_system.hpp"
#include "core/timestamped_trace.hpp"
#include "poset/realizer.hpp"
#include "runtime/network.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {
namespace {

TEST(Stress, MailboxManySendersManyReceivers) {
    // One shared mailbox, 8 senders x 50 offers, 4 receive-any consumers.
    Mailbox box;
    constexpr int kSenders = 8;
    constexpr int kPerSender = 50;
    constexpr int kReceivers = 4;
    std::atomic<int> consumed{0};
    std::vector<std::thread> threads;
    for (int r = 0; r < kReceivers; ++r) {
        threads.emplace_back([&] {
            for (;;) {
                try {
                    Mailbox::Accepted accepted = *box.accept(std::nullopt);
                    accepted.ack()[0] = accepted.piggyback()[0] + 1;
                    accepted.complete(1);
                    consumed.fetch_add(1);
                } catch (const MailboxClosed&) {
                    return;
                }
            }
        });
    }
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) {
        senders.emplace_back([&, s] {
            std::vector<std::uint64_t> vector(1, 0);
            std::vector<std::uint64_t> ack(1);
            for (int i = 0; i < kPerSender; ++i) {
                box.offer_and_wait(static_cast<ProcessId>(s), "x", vector,
                                   ack);
                vector[0] = ack[0];
            }
            EXPECT_EQ(vector[0], static_cast<std::uint64_t>(kPerSender));
        });
    }
    for (auto& t : senders) t.join();
    box.close();
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), kSenders * kPerSender);
}

TEST(Stress, RandomScheduledRunsAcrossTopologies) {
    // Random valid schedules driven through real threads, five rounds over
    // varied topologies; every record must encode its poset exactly.
    for (std::uint64_t round = 0; round < 5; ++round) {
        const auto suite = testing::topology_suite(6, 900 + round);
        const auto& [name, graph] = suite[round % suite.size()];
        const SyncComputation computation =
            testing::random_workload(graph, 60, 0.0, 910 + round);
        auto decomposition = std::make_shared<const EdgeDecomposition>(
            default_decomposition(graph));
        TimestampedNetwork network(decomposition);
        std::vector<ProcessProgram> programs(graph.num_vertices());
        for (ProcessId p = 0; p < graph.num_vertices(); ++p) {
            std::vector<SyncMessage> schedule;
            for (const MessageId id : computation.process_messages(p)) {
                schedule.push_back(computation.message(id));
            }
            programs[p] = [p, schedule](ProcessContext& context) {
                for (const SyncMessage& m : schedule) {
                    if (m.sender == p) {
                        context.send(m.receiver, {});
                    } else {
                        context.receive_from(m.sender);
                    }
                }
            };
        }
        const RunRecord record = network.run(programs);
        EXPECT_EQ(encoding_mismatches(message_poset(record.computation),
                                      record.message_stamps),
                  0u)
            << name << " round " << round;
    }
}

TEST(Stress, PartialDeadlockDetected) {
    // One process finishes instantly; the other two wait on each other.
    TimestampedNetwork network(topology::complete(3));
    std::vector<ProcessProgram> programs(3);
    programs[0] = [](ProcessContext&) {};
    programs[1] = [](ProcessContext& context) { context.receive_from(2); };
    programs[2] = [](ProcessContext& context) { context.receive_from(1); };
    EXPECT_THROW(network.run(programs), NetworkDeadlock);
}

TEST(Stress, NetworkReusableAfterDeadlock) {
    TimestampedNetwork network(topology::path(2));
    std::vector<ProcessProgram> deadlocked(2);
    deadlocked[0] = [](ProcessContext& context) { context.receive(); };
    deadlocked[1] = [](ProcessContext& context) { context.receive(); };
    EXPECT_THROW(network.run(deadlocked), NetworkDeadlock);
    // Mailboxes were closed by the watchdog; a fresh network must be used.
    TimestampedNetwork fresh(topology::path(2));
    std::vector<ProcessProgram> fine(2);
    fine[0] = [](ProcessContext& context) { context.send(1, "ok"); };
    fine[1] = [](ProcessContext& context) { context.receive(); };
    const RunRecord record = fresh.run(fine);
    EXPECT_EQ(record.messages.size(), 1u);
}

TEST(Stress, RandomGrowthSequences) {
    Rng rng(77);
    for (int trial = 0; trial < 6; ++trial) {
        SyncSystem system(topology::client_server(3, 2));
        const std::size_t width = system.width();
        for (int step = 0; step < 8; ++step) {
            // Join a random non-empty subset of star groups.
            std::vector<GroupId> groups;
            for (GroupId id = 0; id < system.width(); ++id) {
                if (system.decomposition().group(id).kind !=
                    GroupKind::star) {
                    continue;
                }
                if (rng.chance(2, 3)) groups.push_back(id);
            }
            if (groups.empty()) groups.push_back(0);
            system = system.with_leaf_process(groups).first;
            EXPECT_EQ(system.width(), width);
            EXPECT_TRUE(system.decomposition().complete());
        }
        const SyncComputation c = testing::random_workload(
            system.topology(), 80, 0.0, 950 + static_cast<std::uint64_t>(trial));
        EXPECT_EQ(system.analyze(c).verify_against_ground_truth(), 0u);
    }
}

TEST(Stress, LargeClientServerTheorem4) {
    const Graph g = topology::client_server(6, 40);
    const SyncSystem system{Graph(g)};
    EXPECT_EQ(system.width(), 6u);
    const SyncComputation c = testing::random_workload(g, 500, 0.0, 961);
    const TimestampedTrace trace = system.analyze(c);
    EXPECT_EQ(trace.verify_against_ground_truth(), 0u);
}

TEST(Stress, LargePosetRealizer) {
    // 300-element poset from a real computation; realizer must be exact.
    const Graph g = topology::complete(12);
    const SyncComputation c = testing::random_workload(g, 300, 0.0, 962);
    const Poset poset = message_poset(c);
    const Realizer realizer = chain_realizer(poset);
    EXPECT_LE(realizer.size(), 6u);  // width <= N/2 = 6
    EXPECT_TRUE(realizes(poset, realizer));
}

TEST(Stress, ManyProcessesThreadedRun) {
    // 64 threads: one hub star, everyone pings the hub twice.
    constexpr std::size_t kProcesses = 64;
    TimestampedNetwork network(topology::star(kProcesses));
    std::vector<ProcessProgram> programs(kProcesses);
    programs[0] = [](ProcessContext& context) {
        for (std::size_t i = 0; i < 2 * (kProcesses - 1); ++i) {
            context.receive();
        }
    };
    for (ProcessId p = 1; p < kProcesses; ++p) {
        programs[p] = [](ProcessContext& context) {
            context.send(0, "a");
            context.send(0, "b");
        };
    }
    const RunRecord record = network.run(programs);
    EXPECT_EQ(record.messages.size(), 2 * (kProcesses - 1));
    // Star topology: scalar timestamps, totally ordered (Lemma 1).
    EXPECT_EQ(network.width(), 1u);
    EXPECT_EQ(count_concurrent_pairs(record.message_stamps), 0u);
}

}  // namespace
}  // namespace syncts
