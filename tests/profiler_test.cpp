#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "obs/causal_profiler.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "poset/poset.hpp"
#include "runtime/network.hpp"
#include "runtime/synchronizer.hpp"
#include "test_util.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

/// The causal profiler and the flight recorder: the streaming PERT
/// critical path against an O(M²) transitive-closure oracle across 500
/// seeded schedules, byte-stable profile JSON under the same seed, SYFR
/// round-trips, the crash-dump-equals-crash-free-prefix determinism
/// property, frontier truncation, and the threaded runtime's trace feed.

namespace syncts {
namespace {

/// Longest chain ending at each element of the closed message poset,
/// O(M²) by definition: depth(j) = 1 + max over all i < j in the order.
/// The commit order (element order) is a linear extension, so one
/// forward pass suffices.
std::vector<std::uint64_t> closure_depths(const Poset& order) {
    std::vector<std::uint64_t> depth(order.size(), 1);
    for (std::size_t j = 0; j < order.size(); ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            if (order.less(i, j)) {
                depth[j] = std::max(depth[j], depth[i] + 1);
            }
        }
    }
    return depth;
}

Graph oracle_topology(std::uint64_t seed) {
    switch (seed % 5) {
        case 0: return topology::star(5);
        case 1: return topology::ring(5);
        case 2: return topology::complete(4);
        case 3: return topology::client_server(2, 4);
        default: return topology::path(6);
    }
}

// ---- Critical path vs. the closure oracle ----------------------------

TEST(CausalProfiler, CriticalPathMatchesClosureOracleOn500Schedules) {
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        const Graph graph = oracle_topology(seed);
        const SyncComputation script =
            testing::random_workload(graph, 30, 0.0, 1000 + seed);
        auto decomposition = std::make_shared<const EdgeDecomposition>(
            default_decomposition(graph));
        obs::TraceSink sink(1 << 12);
        SynchronizerOptions options;
        options.seed = seed;
        options.latency_lo = 1;
        options.latency_hi = 1 + seed % 9;
        options.trace = &sink;
        const SynchronizerResult result =
            run_rendezvous_protocol(decomposition, script, options);

        const obs::Profile profile =
            obs::build_profile(sink.events(), graph.num_vertices());
        ASSERT_EQ(profile.rendezvous.size(), script.num_messages())
            << "seed " << seed;

        // The realized computation is renumbered to commit order, the
        // same order the profiler lists its rendezvous in, so element j
        // of the oracle poset is profile.rendezvous[j].
        Poset order = message_poset(result.computation);
        const std::vector<std::uint64_t> oracle = closure_depths(order);
        std::uint64_t longest = 0;
        for (std::size_t j = 0; j < oracle.size(); ++j) {
            EXPECT_EQ(profile.rendezvous[j].depth, oracle[j])
                << "seed " << seed << " rendezvous " << j;
            longest = std::max(longest, oracle[j]);
        }
        EXPECT_EQ(profile.critical_length, longest) << "seed " << seed;
        EXPECT_EQ(profile.critical_path.size(), longest) << "seed " << seed;

        // The reported path must itself be a chain of that length.
        for (std::size_t k = 1; k < profile.critical_path.size(); ++k) {
            EXPECT_TRUE(order.less(profile.critical_path[k - 1],
                                   profile.critical_path[k]))
                << "seed " << seed << " link " << k;
        }
    }
}

// ---- Determinism ------------------------------------------------------

TEST(CausalProfiler, SameSeedProfileJsonIsByteIdentical) {
    const Graph graph = topology::client_server(2, 5);
    const SyncComputation script =
        testing::random_workload(graph, 80, 0.0, 42);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    const auto profile_json = [&] {
        obs::TraceSink sink(1 << 12);
        SynchronizerOptions options;
        options.seed = 7;
        options.latency_lo = 1;
        options.latency_hi = 6;
        options.trace = &sink;
        (void)run_rendezvous_protocol(decomposition, script, options);
        return obs::to_profile_json(
            obs::build_profile(sink.events(), graph.num_vertices()));
    };
    const std::string first = profile_json();
    const std::string second = profile_json();
    EXPECT_EQ(first, second);
    // Sorted-key shape and no wall-clock fields of its own.
    EXPECT_LT(first.find("\"channels\""), first.find("\"critical_path\""));
    EXPECT_LT(first.find("\"critical_path\""), first.find("\"processes\""));
    EXPECT_EQ(first.find("wall"), std::string::npos);
}

TEST(CausalProfiler, BreakdownPartitionsEachProcessTimeline) {
    const Graph graph = topology::star(6);
    const SyncComputation script =
        testing::random_workload(graph, 120, 0.0, 9);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    obs::TraceSink sink(1 << 12);
    SynchronizerOptions options;
    options.latency_lo = 1;
    options.latency_hi = 9;
    options.trace = &sink;
    (void)run_rendezvous_protocol(decomposition, script, options);
    const obs::Profile profile =
        obs::build_profile(sink.events(), graph.num_vertices());
    ASSERT_EQ(profile.processes.size(), graph.num_vertices());
    for (const obs::ProcessBreakdown& p : profile.processes) {
        EXPECT_EQ(p.total,
                  p.working + p.blocked + p.down + p.barrier_stall);
        EXPECT_LE(p.total, profile.span);
    }
    // The hub of a star participates in every rendezvous; some blocked
    // time must have been attributed to its channels.
    std::uint64_t channel_wait = 0;
    std::uint64_t channel_rendezvous = 0;
    for (const obs::ChannelWait& c : profile.channels) {
        EXPECT_LT(c.a, c.b);
        channel_wait += c.wait;
        channel_rendezvous += c.rendezvous;
    }
    EXPECT_EQ(channel_rendezvous, script.num_messages());
    EXPECT_GT(channel_wait, 0u);
}

// ---- Flight recorder ---------------------------------------------------

obs::Postmortem sample_postmortem() {
    obs::Postmortem post;
    post.reason = obs::PostmortemReason::crash;
    post.process = 3;
    post.step = 17;
    post.epoch = 2;
    post.frontier_epoch = 1;
    post.wal_lsn = 99;
    post.virtual_time = 12345;
    post.snapshots = 4;
    post.metrics.counters["sync_commits"] = 40;
    post.metrics.gauges["arena_bytes"] = -8;
    post.rates.counters["sync_commits"] = 5;
    post.rates.gauges["arena_bytes"] = -8;
    for (std::uint64_t i = 0; i < 7; ++i) {
        obs::TraceEvent event;
        event.virtual_time = 100 + i;
        event.logical = i;
        event.arg_a = i;
        event.arg_b = i * 3;
        event.process = static_cast<std::uint32_t>(i % 4);
        event.peer = static_cast<std::uint32_t>((i + 1) % 4);
        event.kind = i == 6 ? obs::TraceEventKind::crash
                            : obs::TraceEventKind::commit;
        post.events.push_back(event);
    }
    return post;
}

TEST(FlightRecorder, SyfrRoundTripsExactly) {
    const obs::Postmortem post = sample_postmortem();
    std::vector<std::uint8_t> bytes;
    obs::encode_postmortem_into(post, bytes);
    EXPECT_EQ(obs::decode_postmortem(bytes), post);
}

TEST(FlightRecorder, SyfrRejectsBitFlipsTruncationAndTrailingBytes) {
    std::vector<std::uint8_t> bytes;
    obs::encode_postmortem_into(sample_postmortem(), bytes);
    for (const std::size_t at :
         {std::size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[at] ^= 0x40;
        EXPECT_THROW((void)obs::decode_postmortem(flipped),
                     obs::PostmortemError)
            << "bit flip at " << at;
    }
    std::vector<std::uint8_t> truncated = bytes;
    truncated.pop_back();
    EXPECT_THROW((void)obs::decode_postmortem(truncated),
                 obs::PostmortemError);
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_THROW((void)obs::decode_postmortem(padded), obs::PostmortemError);

    // A resealed empty dump whose event count is 41^-1 mod 2^64: the
    // count times 41 wraps to 1, matching the one payload byte.
    constexpr std::uint64_t kWrapping = 10348173504763894809ull;
    static_assert(kWrapping * obs::kTraceEventBytes == 1);
    std::vector<std::uint8_t> wrapped;
    obs::encode_postmortem_into(obs::Postmortem{}, wrapped);
    wrapped.resize(wrapped.size() - codec::kTrailerBytes);
    const std::size_t count_at = wrapped.size() - 8;
    for (std::size_t i = 0; i < 8; ++i) {
        wrapped[count_at + i] =
            static_cast<std::uint8_t>(kWrapping >> (8 * i));
    }
    wrapped.push_back(0);
    wrapped = testing::sealed(wrapped);
    ASSERT_EQ(wrapped.size(), 106u);
    EXPECT_THROW((void)obs::decode_postmortem(wrapped), obs::PostmortemError);
}

TEST(FlightRecorder, FrontierTruncationFollowsEpochEntry) {
    obs::FlightRecorder recorder(64, 8);
    const auto event = [](std::uint64_t time, obs::TraceEventKind kind,
                          std::uint64_t epoch_id) {
        obs::TraceEvent e;
        e.virtual_time = time;
        e.kind = kind;
        e.arg_a = epoch_id;
        return e;
    };
    for (std::uint64_t t = 0; t < 10; ++t) {
        recorder.record(event(t, obs::TraceEventKind::commit, 0));
    }
    recorder.record(event(10, obs::TraceEventKind::epoch, 1));
    for (std::uint64_t t = 11; t < 16; ++t) {
        recorder.record(event(t, obs::TraceEventKind::commit, 0));
    }
    ASSERT_EQ(recorder.retained(), 16u);

    // Frontier at epoch 1: everything before its entry instant (t=10)
    // can no longer matter to any surviving rewind.
    recorder.note_frontier(1);
    EXPECT_EQ(recorder.frontier(), 1u);
    EXPECT_EQ(recorder.truncated(), 10u);
    ASSERT_EQ(recorder.retained(), 6u);
    EXPECT_EQ(recorder.events().front().virtual_time, 10u);

    // A frontier the recorder never saw an entry for truncates nothing;
    // regressions are ignored.
    recorder.note_frontier(5);
    recorder.note_frontier(1);
    EXPECT_EQ(recorder.frontier(), 5u);
    EXPECT_EQ(recorder.retained(), 6u);
}

TEST(FlightRecorder, PeriodicSnapshotsCarryIntervalRates) {
    obs::MetricsRegistry registry;
    obs::FlightRecorder recorder(16, 4);
    registry.counter("steps").inc(3);
    registry.gauge("level").set(11);
    for (int i = 0; i < 4; ++i) recorder.tick(registry);
    EXPECT_EQ(recorder.snapshots(), 1u);
    EXPECT_EQ(recorder.last_snapshot().counters.at("steps"), 3u);
    // First interval counts from the empty snapshot.
    EXPECT_EQ(recorder.last_rates().counters.at("steps"), 3u);

    registry.counter("steps").inc(5);
    registry.gauge("level").set(-2);
    for (int i = 0; i < 4; ++i) recorder.tick(registry);
    EXPECT_EQ(recorder.snapshots(), 2u);
    EXPECT_EQ(recorder.last_rates().counters.at("steps"), 5u);
    EXPECT_EQ(recorder.last_rates().gauges.at("level"), -2);
}

// ---- Crash dump vs. crash-free prefix --------------------------------

TEST(FlightRecorder, CrashDumpEventsAreACrashFreeTracePrefixSlice) {
    const Graph graph = topology::client_server(2, 5);
    const SyncComputation script =
        testing::random_workload(graph, 150, 0.0, 77);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    SynchronizerOptions base;
    base.seed = 5;
    base.latency_lo = 1;
    base.latency_hi = 7;
    // Crash rules arm recovery and retransmission implicitly; pin both
    // explicitly so the crash-free control run schedules the identical
    // timer stream and the traces stay comparable event for event.
    base.retransmit_timeout = 64;
    base.recovery.enabled = true;
    base.recovery.wal_flush_interval = 2;
    base.recovery.snapshot_interval = 8;
    base.recovery.window = 8;

    obs::TraceSink control_sink(1 << 14);
    SynchronizerOptions control = base;
    control.trace = &control_sink;
    (void)run_rendezvous_protocol(decomposition, script, control);
    const std::vector<obs::TraceEvent> control_events =
        control_sink.events();

    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder(1 << 14, 16);
    SynchronizerOptions crashing = base;
    crashing.metrics = &metrics;
    crashing.recorder = &recorder;
    crashing.faults.crashes.push_back(CrashRule{1, 9, 60});
    (void)run_rendezvous_protocol(decomposition, script, crashing);

    const obs::Postmortem post =
        obs::decode_postmortem(recorder.last_dump());
    EXPECT_EQ(post.reason, obs::PostmortemReason::crash);
    EXPECT_EQ(post.process, 1u);
    EXPECT_EQ(post.step, 9u);
    ASSERT_FALSE(post.events.empty());

    // The dump's ring ends at the crash instant: the final event is the
    // crash itself (absent from the control run), and everything before
    // it must be bit-identical to a contiguous slice of the crash-free
    // trace prefix — the recorder is deterministic and the simulation
    // cannot diverge before the rule fires.
    EXPECT_EQ(post.events.back().kind, obs::TraceEventKind::crash);
    const std::vector<obs::TraceEvent> prefix(post.events.begin(),
                                              post.events.end() - 1);
    ASSERT_FALSE(prefix.empty());
    const auto found = std::search(control_events.begin(),
                                   control_events.end(), prefix.begin(),
                                   prefix.end());
    ASSERT_NE(found, control_events.end());
    EXPECT_EQ(found, control_events.begin());
    std::vector<std::uint8_t> dumped_bytes;
    std::vector<std::uint8_t> control_bytes;
    codec::Writer dumped_writer(dumped_bytes, 0);
    codec::Writer control_writer(control_bytes, 0);
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        obs::write_trace_event(dumped_writer, prefix[i]);
        obs::write_trace_event(control_writer,
                               *(found + static_cast<long>(i)));
    }
    dumped_writer.finish();
    control_writer.finish();
    EXPECT_EQ(dumped_bytes, control_bytes);

    // The dump's WAL position is what recovery actually replayed from —
    // the runtime ENSUREs the replayed stream lands exactly there.
    EXPECT_GE(post.wal_lsn, 1u);
    EXPECT_EQ(metrics.counter("flight_dumps").value(), 1u);
}

TEST(FlightRecorder, StalledRunDumpsAnErrorPostmortem) {
    const Graph graph = topology::path(2);
    SyncComputation script(graph);
    for (int i = 0; i < 6; ++i) script.add_message(0, 1);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    obs::FlightRecorder recorder(256, 8);
    SynchronizerOptions options;
    options.trace = nullptr;
    options.recorder = &recorder;
    options.retransmit_timeout = 4;
    options.max_retransmits = 2;
    // Swallow every REQ on the only channel: the sender must exhaust its
    // retransmission budget and stall.
    options.faults.drop_probability = 1.0;
    EXPECT_THROW((void)run_rendezvous_protocol(decomposition, script,
                                               options),
                 SynchronizerStalled);
    ASSERT_EQ(recorder.dumps(), 1u);
    const obs::Postmortem post =
        obs::decode_postmortem(recorder.last_dump());
    EXPECT_EQ(post.reason, obs::PostmortemReason::error);
    EXPECT_EQ(post.process, 0u);
}

// Every stall site leaves a post-mortem, not only retransmission
// exhaustion: here the rejoin handshake of a restarted process can never
// complete, so the last dump must be the stall's, after the crash's.
TEST(FlightRecorder, StalledRejoinDumpsAnErrorPostmortem) {
    const Graph graph = topology::path(2);
    SyncComputation script(graph);
    for (int i = 0; i < 6; ++i) script.add_message(0, 1);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    obs::FlightRecorder recorder(256, 8);
    SynchronizerOptions options;
    options.recorder = &recorder;
    options.retransmit_timeout = 4;
    options.max_retransmits = 4;
    options.faults.crashes.push_back(CrashRule{1, 2, 20});
    // Swallow every HELLO_ACK sent back to the restarted process: each
    // rule drops the first matching packet the rules before it let pass.
    constexpr std::uint32_t kHelloAckKind = 4;
    for (int rule = 0; rule < 16; ++rule) {
        options.faults.targeted_drops.push_back(
            {.source = 0, .destination = 1, .kind = kHelloAckKind,
             .occurrence = 1});
    }
    EXPECT_THROW((void)run_rendezvous_protocol(decomposition, script,
                                               options),
                 SynchronizerStalled);
    ASSERT_EQ(recorder.dumps(), 2u);  // the crash, then the stall
    const obs::Postmortem post =
        obs::decode_postmortem(recorder.last_dump());
    EXPECT_EQ(post.reason, obs::PostmortemReason::error);
    EXPECT_EQ(post.process, 1u);
}

// ---- Trace-pressure metrics ------------------------------------------

TEST(TraceMetrics, RunPublishesDroppedAndPeakEventCounts) {
    const Graph graph = topology::star(4);
    const SyncComputation script =
        testing::random_workload(graph, 60, 0.0, 21);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    // A deliberately tiny ring: the run must wrap, and the wraparound
    // pressure must be visible in the registry as a per-run delta.
    obs::TraceSink sink(8);
    obs::MetricsRegistry metrics;
    SynchronizerOptions options;
    options.trace = &sink;
    options.metrics = &metrics;
    (void)run_rendezvous_protocol(decomposition, script, options);
    EXPECT_GT(metrics.counter("trace_dropped").value(), 0u);
    EXPECT_EQ(metrics.counter("trace_dropped").value(), sink.dropped());
    EXPECT_EQ(metrics.gauge("trace_peak_events").value(), 8);

    // Reusing the sink across runs publishes only the new run's losses.
    obs::MetricsRegistry second;
    SynchronizerOptions again = options;
    again.metrics = &second;
    const std::uint64_t dropped_before = sink.dropped();
    (void)run_rendezvous_protocol(decomposition, script, again);
    EXPECT_EQ(second.counter("trace_dropped").value(),
              sink.dropped() - dropped_before);
}

// ---- Threaded runtime feed -------------------------------------------

TEST(ThreadedRuntime, TraceFeedsTheSameProfiler) {
    const Graph graph = topology::star(4);
    const SyncComputation script =
        testing::random_workload(graph, 40, 0.0, 13);
    std::vector<ProcessProgram> programs(script.num_processes());
    for (ProcessId p = 0; p < script.num_processes(); ++p) {
        std::vector<SyncMessage> schedule;
        for (const MessageId id : script.process_messages(p)) {
            schedule.push_back(script.message(id));
        }
        programs[p] = [p, schedule](ProcessContext& context) {
            for (const SyncMessage& m : schedule) {
                if (m.sender == p) {
                    context.send(m.receiver, "x");
                } else {
                    context.receive_from(m.sender);
                }
            }
        };
    }
    obs::TraceSink sink(1 << 12);
    TimestampedNetworkOptions options;
    options.trace = &sink;
    TimestampedNetwork network(graph, options);
    (void)network.run(programs);

    // One send + one commit + one ack per rendezvous, and the profiler
    // reconstructs every rendezvous from the wall-timed stream.
    const std::vector<obs::TraceEvent> events = sink.events();
    EXPECT_EQ(events.size(), 3 * script.num_messages());
    const obs::Profile profile =
        obs::build_profile(events, graph.num_vertices());
    EXPECT_EQ(profile.rendezvous.size(), script.num_messages());
    EXPECT_GE(profile.critical_length, 1u);
    EXPECT_EQ(profile.critical_path.size(), profile.critical_length);
    for (const obs::RendezvousSpan& r : profile.rendezvous) {
        EXPECT_GE(r.depth, 1u);
        EXPECT_LE(r.send_time, r.commit_time);
    }
}

}  // namespace
}  // namespace syncts
