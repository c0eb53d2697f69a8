#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/causality.hpp"
#include "decomp/cover_decomposer.hpp"
#include "runtime/network.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {
namespace {

TEST(Mailbox, RendezvousRoundTrip) {
    Mailbox box;
    const std::vector<std::uint64_t> piggyback{1, 2};
    std::vector<std::uint64_t> ack(2, 0);
    std::thread receiver([&] {
        Mailbox::Accepted accepted = *box.accept(std::nullopt);
        EXPECT_EQ(accepted.sender(), 3u);
        EXPECT_EQ(accepted.payload(), "hello");
        EXPECT_EQ(accepted.piggyback()[1], 2u);
        std::ranges::fill(accepted.ack(), 5);
        accepted.complete(17);
    });
    const std::optional<std::uint64_t> seq =
        box.offer_and_wait(3, "hello", piggyback, ack);
    receiver.join();
    EXPECT_EQ(ack[0], 5u);
    EXPECT_EQ(seq, 17u);
}

TEST(Mailbox, AcceptFromSpecificSenderSkipsOthers) {
    Mailbox box;
    const std::vector<std::uint64_t> piggyback(1, 0);
    std::vector<std::uint64_t> ack_a(1);
    std::vector<std::uint64_t> ack_b(1);
    std::atomic<int> acked{0};
    std::thread sender_a([&] {
        box.offer_and_wait(1, "from1", piggyback, ack_a);
        ++acked;
    });
    // Ensure sender 1's offer is queued first.
    while (!box.has_offer(1)) std::this_thread::yield();
    std::thread sender_b([&] {
        box.offer_and_wait(2, "from2", piggyback, ack_b);
        ++acked;
    });
    while (!box.has_offer(2)) std::this_thread::yield();

    Mailbox::Accepted from2 = *box.accept(2);
    EXPECT_EQ(from2.sender(), 2u);
    from2.complete(1);
    Mailbox::Accepted from1 = *box.accept(std::nullopt);
    EXPECT_EQ(from1.sender(), 1u);
    from1.complete(2);
    sender_a.join();
    sender_b.join();
    EXPECT_EQ(acked.load(), 2);
}

TEST(Mailbox, CloseUnblocksEveryone) {
    // Separate mailboxes: were they shared, the receiver would simply
    // accept the sender's offer instead of staying blocked.
    Mailbox no_senders;
    Mailbox no_receivers;
    const std::vector<std::uint64_t> piggyback(1, 0);
    std::vector<std::uint64_t> ack(1);
    std::thread blocked_receiver([&] {
        EXPECT_THROW(no_senders.accept(std::nullopt), MailboxClosed);
    });
    std::thread blocked_sender([&] {
        EXPECT_THROW(no_receivers.offer_and_wait(0, "x", piggyback, ack),
                     MailboxClosed);
    });
    // Give both a moment to block, then close.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    no_senders.close();
    no_receivers.close();
    blocked_receiver.join();
    blocked_sender.join();
    EXPECT_THROW(no_receivers.offer_and_wait(0, "y", piggyback, ack),
                 MailboxClosed);
}

TEST(Mailbox, DroppedAcceptReleasesSenderWithError) {
    // RAII guarantee: a receiver that unwinds between accept() and
    // complete() must not strand the sender.
    Mailbox box;
    const std::vector<std::uint64_t> piggyback(1, 0);
    std::vector<std::uint64_t> ack(1);
    std::thread sender([&] {
        EXPECT_THROW(box.offer_and_wait(1, "x", piggyback, ack),
                     MailboxClosed);
    });
    {
        Mailbox::Accepted accepted = *box.accept(std::nullopt);
        EXPECT_EQ(accepted.sender(), 1u);
        // Dropped without complete().
    }
    sender.join();
}

TEST(Mailbox, MovedAcceptedCompletesOnce) {
    Mailbox box;
    const std::vector<std::uint64_t> piggyback(1, 0);
    std::vector<std::uint64_t> ack(1);
    std::thread sender([&] {
        const std::optional<std::uint64_t> seq =
            box.offer_and_wait(2, "y", piggyback, ack);
        EXPECT_EQ(seq, 5u);
    });
    Mailbox::Accepted accepted = *box.accept(std::nullopt);
    Mailbox::Accepted moved = std::move(accepted);
    moved.complete(5);
    EXPECT_THROW(moved.complete(6), std::invalid_argument);
    sender.join();
}

// ---------------------------------------------------------------------

/// Drives a recorded computation through the threaded network: each
/// process replays its local schedule (send / receive-from pairs).
std::vector<ProcessProgram> programs_for(const SyncComputation& computation) {
    std::vector<ProcessProgram> programs(computation.num_processes());
    for (ProcessId p = 0; p < computation.num_processes(); ++p) {
        std::vector<SyncMessage> schedule;
        for (const MessageId id : computation.process_messages(p)) {
            schedule.push_back(computation.message(id));
        }
        programs[p] = [p, schedule](ProcessContext& context) {
            for (const SyncMessage& m : schedule) {
                if (m.sender == p) {
                    context.send(m.receiver, "m" + std::to_string(m.id));
                } else {
                    context.receive_from(m.sender);
                }
            }
        };
    }
    return programs;
}

TEST(TimestampedNetwork, ScriptedRunMatchesSimulator) {
    // The threaded run must produce exactly the simulator's timestamps:
    // clock evolution depends only on the per-process rendezvous sequence,
    // not on real-time interleaving.
    for (const auto& [name, graph] : testing::topology_suite(6, 95)) {
        const SyncComputation computation =
            testing::random_workload(graph, 40, 0.0, 96);
        auto decomposition = std::make_shared<const EdgeDecomposition>(
            default_decomposition(graph));
        TimestampedNetwork network(decomposition);
        const RunRecord record = network.run(programs_for(computation));

        ASSERT_EQ(record.messages.size(), computation.num_messages()) << name;
        OnlineTimestamper simulator(decomposition);
        // Compare per message identity (sender, receiver, id payload), not
        // record order: concurrent rendezvous may serialize differently,
        // but each message's timestamp is schedule-determined.
        std::vector<VectorTimestamp> by_original(computation.num_messages());
        for (const MessageRecord& m : record.messages) {
            ASSERT_EQ(m.payload[0], 'm');
            const auto original = static_cast<std::size_t>(
                std::stoul(m.payload.substr(1)));
            by_original[original] = m.timestamp;
        }
        const auto expected = simulator.timestamp_computation(computation);
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(by_original[i], expected[i]) << name << " m" << i;
        }
    }
}

TEST(TimestampedNetwork, RecordReconstructionIsGroundTruthConsistent) {
    const Graph graph = topology::client_server(2, 5);
    const SyncComputation computation =
        testing::random_workload(graph, 60, 0.0, 97);
    TimestampedNetwork network(graph);
    const RunRecord record = network.run(programs_for(computation));
    // The reconstructed computation's poset must agree with the recorded
    // timestamps (Theorem 4 end-to-end over real threads).
    EXPECT_EQ(encoding_mismatches(message_poset(record.computation),
                                  record.message_stamps),
              0u);
}

TEST(TimestampedNetwork, ReceiveAnyPipeline) {
    // 1 sink, 3 sources, receive-any at the sink.
    const Graph graph = topology::star(4);
    TimestampedNetwork network(graph);
    std::vector<ProcessProgram> programs(4);
    programs[0] = [](ProcessContext& context) {
        std::size_t total = 0;
        for (int i = 0; i < 30; ++i) {
            total += context.receive().payload.size();
        }
        EXPECT_GT(total, 0u);
    };
    for (ProcessId source : {1u, 2u, 3u}) {
        programs[source] = [](ProcessContext& context) {
            for (int i = 0; i < 10; ++i) {
                context.send(0, "work:" + std::to_string(i));
            }
        };
    }
    const RunRecord record = network.run(programs);
    EXPECT_EQ(record.messages.size(), 30u);
    EXPECT_EQ(network.width(), 1u);  // star topology: scalar clock
    // Star topology: all messages totally ordered (Lemma 1).
    EXPECT_EQ(count_concurrent_pairs(record.message_stamps), 0u);
}

TEST(TimestampedNetwork, InternalEventsAreStamped) {
    const Graph graph = topology::path(2);
    TimestampedNetwork network(graph);
    std::vector<ProcessProgram> programs(2);
    programs[0] = [](ProcessContext& context) {
        context.internal_event("setup");
        context.send(1, "ping");
        context.internal_event("sent");
    };
    programs[1] = [](ProcessContext& context) {
        context.receive_from(0);
        context.internal_event("handled");
    };
    const RunRecord record = network.run(programs);
    ASSERT_EQ(record.internal_stamps.size(), 3u);
    ASSERT_EQ(record.internal_notes.size(), 3u);
    // Identify events by note.
    std::size_t setup = 99, sent = 99, handled = 99;
    for (std::size_t i = 0; i < record.internal_notes.size(); ++i) {
        if (record.internal_notes[i] == "setup") setup = i;
        if (record.internal_notes[i] == "sent") sent = i;
        if (record.internal_notes[i] == "handled") handled = i;
    }
    ASSERT_LT(setup, 3u);
    ASSERT_LT(sent, 3u);
    ASSERT_LT(handled, 3u);
    EXPECT_TRUE(happened_before(record.internal_stamps[setup],
                                record.internal_stamps[handled]));
    EXPECT_TRUE(happened_before(record.internal_stamps[setup],
                                record.internal_stamps[sent]));
    EXPECT_TRUE(concurrent(record.internal_stamps[sent],
                           record.internal_stamps[handled]));
}

TEST(TimestampedNetwork, UserExceptionPropagates) {
    const Graph graph = topology::path(2);
    TimestampedNetwork network(graph);
    std::vector<ProcessProgram> programs(2);
    programs[0] = [](ProcessContext&) {
        throw std::runtime_error("application failure");
    };
    programs[1] = [](ProcessContext& context) {
        // Blocks forever; must be unwound by the teardown.
        context.receive();
    };
    EXPECT_THROW(
        {
            try {
                network.run(programs);
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "application failure");
                throw;
            }
        },
        std::runtime_error);
}

TEST(TimestampedNetwork, DeadlockDetected) {
    // Both processes wait to receive; nobody sends.
    const Graph graph = topology::path(2);
    TimestampedNetwork network(graph);
    std::vector<ProcessProgram> programs(2);
    programs[0] = [](ProcessContext& context) { context.receive(); };
    programs[1] = [](ProcessContext& context) { context.receive(); };
    EXPECT_THROW(network.run(programs), NetworkDeadlock);
}

TEST(TimestampedNetwork, WatchdogGracePeriodIsConfigurable) {
    // A deliberately deadlocked program (a 3-cycle of receives) must
    // raise NetworkDeadlock instead of hanging, and a shortened grace
    // period must trip well inside the default's ~200ms.
    const Graph graph = topology::ring(3);
    TimestampedNetworkOptions options;
    options.watchdog_poll = std::chrono::milliseconds(2);
    options.watchdog_grace_polls = 5;
    TimestampedNetwork network(graph, options);
    std::vector<ProcessProgram> programs(3);
    for (auto& program : programs) {
        program = [](ProcessContext& context) { context.receive(); };
    }
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(network.run(programs), NetworkDeadlock);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // Generous bound (scheduling noise) that still proves the knob works:
    // 5 polls x 2ms is ~10ms; the default 20 x 10ms would need >= 200ms.
    EXPECT_LT(elapsed, std::chrono::milliseconds(150));
}

TEST(TimestampedNetwork, RejectsInvalidWatchdogOptions) {
    const Graph graph = topology::path(2);
    TimestampedNetworkOptions zero_poll;
    zero_poll.watchdog_poll = std::chrono::milliseconds(0);
    EXPECT_THROW(TimestampedNetwork(graph, zero_poll),
                 std::invalid_argument);
    TimestampedNetworkOptions zero_grace;
    zero_grace.watchdog_grace_polls = 0;
    EXPECT_THROW(TimestampedNetwork(graph, zero_grace),
                 std::invalid_argument);
}

TEST(TimestampedNetwork, RejectsForeignChannelAtSend) {
    const Graph graph = topology::path(3);
    TimestampedNetwork network(graph);
    std::vector<ProcessProgram> programs(3);
    programs[0] = [](ProcessContext& context) {
        context.send(2, "illegal");  // 0-2 is not an edge
    };
    programs[1] = [](ProcessContext&) {};
    programs[2] = [](ProcessContext&) {};
    EXPECT_THROW(network.run(programs), std::invalid_argument);
}

TEST(TimestampedNetwork, StressManyMessages) {
    const Graph graph = topology::client_server(3, 6);
    TimestampedNetwork network(graph);
    constexpr int kRequests = 201;  // divisible by 3: uniform server load
    constexpr int kPerServer = 6 * kRequests / 3;
    std::vector<ProcessProgram> programs(9);
    for (ProcessId server = 0; server < 3; ++server) {
        programs[server] = [](ProcessContext& context) {
            for (int i = 0; i < kPerServer; ++i) {
                const ReceivedMessage request = context.receive();
                context.send(request.sender, "reply");
            }
        };
    }
    for (ProcessId client = 3; client < 9; ++client) {
        programs[client] = [](ProcessContext& context) {
            for (int i = 0; i < kRequests; ++i) {
                const auto server =
                    static_cast<ProcessId>(i % 3);
                context.send(server, "request");
                context.receive_from(server);
            }
        };
    }
    const RunRecord record = network.run(programs);
    EXPECT_EQ(record.messages.size(), 6u * 2u * kRequests);
    EXPECT_EQ(network.width(), 3u);
    EXPECT_EQ(encoding_mismatches(message_poset(record.computation),
                                  record.message_stamps),
              0u);
}

TEST(TimestampedNetwork, RunRequiresOneProgramPerProcess) {
    TimestampedNetwork network(topology::path(3));
    EXPECT_THROW(network.run(std::vector<ProcessProgram>(2)),
                 std::invalid_argument);
}

}  // namespace
}  // namespace syncts
