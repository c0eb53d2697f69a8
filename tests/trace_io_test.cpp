#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "clocks/online_clock.hpp"
#include "core/causality.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"
#include "trace/trace_io.hpp"

namespace syncts {
namespace {

void expect_equivalent(const SyncComputation& a, const SyncComputation& b) {
    ASSERT_EQ(a.num_processes(), b.num_processes());
    ASSERT_EQ(a.num_messages(), b.num_messages());
    ASSERT_EQ(a.num_internal_events(), b.num_internal_events());
    ASSERT_EQ(a.topology().num_edges(), b.topology().num_edges());
    for (MessageId m = 0; m < a.num_messages(); ++m) {
        EXPECT_EQ(a.message(m).sender, b.message(m).sender);
        EXPECT_EQ(a.message(m).receiver, b.message(m).receiver);
    }
    // Per-process event sequences must match kind-for-kind.
    for (ProcessId p = 0; p < a.num_processes(); ++p) {
        const auto ea = a.process_events(p);
        const auto eb = b.process_events(p);
        ASSERT_EQ(ea.size(), eb.size()) << "process " << p;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].kind, eb[i].kind);
            if (ea[i].kind == ProcessEvent::Kind::message) {
                EXPECT_EQ(ea[i].index, eb[i].index);
            }
        }
    }
}

TEST(TraceIo, RoundTripPlainMessages) {
    const SyncComputation original = paper_fig1_computation();
    const std::string text = serialize_computation(original);
    const SyncComputation parsed = parse_computation(text);
    expect_equivalent(original, parsed);
}

TEST(TraceIo, RoundTripWithInternalEvents) {
    const SyncComputation original = testing::random_workload(
        topology::client_server(2, 4), 60, 0.7, 1234);
    const SyncComputation parsed =
        parse_computation(serialize_computation(original));
    expect_equivalent(original, parsed);
    // Semantics preserved: identical posets and identical timestamps.
    const auto original_stamps = online_timestamps(original);
    const auto parsed_stamps = online_timestamps(parsed);
    ASSERT_EQ(original_stamps.size(), parsed_stamps.size());
    for (std::size_t i = 0; i < original_stamps.size(); ++i) {
        EXPECT_EQ(original_stamps[i], parsed_stamps[i]);
    }
    EXPECT_EQ(encoding_mismatches(message_poset(parsed), parsed_stamps), 0u);
}

TEST(TraceIo, FormatIsStableAndReadable) {
    SyncComputation c(topology::path(2));
    c.add_internal(0);
    c.add_message(0, 1);
    const std::string text = serialize_computation(c);
    EXPECT_EQ(text,
              "syncts-trace 1\n"
              "processes 2\n"
              "edges 1\n"
              "e 0 1\n"
              "events 2\n"
              "i 0\n"
              "m 0 1\n");
}

TEST(TraceIo, StreamOverloads) {
    const SyncComputation original =
        testing::random_workload(topology::ring(5), 30, 0.0, 77);
    std::stringstream stream;
    write_computation(stream, original);
    const SyncComputation parsed = read_computation(stream);
    expect_equivalent(original, parsed);
}

TEST(TraceIo, RejectsMalformedInput) {
    EXPECT_THROW(parse_computation(""), std::invalid_argument);
    EXPECT_THROW(parse_computation("not-a-trace 1"), std::invalid_argument);
    EXPECT_THROW(parse_computation("syncts-trace 2\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse_computation("syncts-trace 1\nprocesses banana\n"),
                 std::invalid_argument);
    // std::stoull alone would read -1 as 2^64 - 1 processes.
    EXPECT_THROW(parse_computation("syncts-trace 1\nprocesses -1\nedges 0\n"
                                   "events 0\n"),
                 std::invalid_argument);
    // One process above the reader bound: rejected before any
    // per-process state is sized from the declared count.
    EXPECT_THROW(parse_computation("syncts-trace 1\nprocesses " +
                                   std::to_string(kMaxDeclaredProcesses + 1) +
                                   "\nedges 0\nevents 0\n"),
                 std::invalid_argument);
    // Message on a non-edge.
    EXPECT_THROW(parse_computation("syncts-trace 1\nprocesses 3\nedges 1\n"
                                   "e 0 1\nevents 1\nm 0 2\n"),
                 std::invalid_argument);
    // Unknown record kind.
    EXPECT_THROW(parse_computation("syncts-trace 1\nprocesses 2\nedges 1\n"
                                   "e 0 1\nevents 1\nx 0 1\n"),
                 std::invalid_argument);
    // Truncated event list.
    EXPECT_THROW(parse_computation("syncts-trace 1\nprocesses 2\nedges 1\n"
                                   "e 0 1\nevents 3\nm 0 1\n"),
                 std::invalid_argument);
    // Out-of-range process in internal event.
    EXPECT_THROW(parse_computation("syncts-trace 1\nprocesses 2\nedges 1\n"
                                   "e 0 1\nevents 1\ni 9\n"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace syncts
