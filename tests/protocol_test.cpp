#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "common/rng.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/reconfig_runtime.hpp"
#include "runtime/synchronizer.hpp"
#include "test_util.hpp"
#include "topo/reconfig.hpp"
#include "topo/topology_manager.hpp"
#include "trace/generator.hpp"

/// Protocol-extension harness (acceptance gate of the batching work,
/// docs/PROTOCOL.md): the v3 delta codec and v4 batch container are
/// exercised directly, and then the full extension stack — frame
/// batching, ACK coalescing, delta-encoded vectors, and the bandwidth
/// scheduler — is replayed through >= 500 seeded schedules spanning
/// faults, crashes, and reconfiguration. Every schedule must realize
/// message timestamps bit-identical to the plain-wire Fig. 5 oracle:
/// the extensions change when and how bytes move, never what the
/// timestamps say.

namespace syncts {
namespace {

// ---------------------------------------------------------------------------
// Delta codec (v3)

TEST(DeltaWire, RoundTripAgainstShadow) {
    const std::vector<std::uint64_t> base{4, 0, 9, 2};
    const std::vector<std::uint64_t> stamp{5, 0, 9, 7};
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(encode_delta_frame_into(3, 12, 40, base, stamp, bytes));

    const FrameInfo info = peek_frame_info(bytes);
    EXPECT_TRUE(info.delta);
    EXPECT_EQ(info.version, kDeltaFrameVersion);
    EXPECT_EQ(info.header.epoch, 3u);
    EXPECT_EQ(info.header.sequence, 12u);
    EXPECT_EQ(info.header.message, 40u);

    std::vector<std::uint64_t> out(4);
    const FrameHeader header = decode_delta_frame_into(bytes, base, out);
    EXPECT_EQ(header.sequence, 12u);
    EXPECT_EQ(header.message, 40u);
    EXPECT_EQ(out, stamp);
}

TEST(DeltaWire, EpochZeroIsLegalUnlikeVersionTwo) {
    // The 0x00 marker plus explicit version already disambiguates from
    // v1, so delta frames may carry epoch 0 (v2 reserves that for the
    // bare v1 layout).
    const std::vector<std::uint64_t> base{1, 1};
    const std::vector<std::uint64_t> stamp{2, 1};
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(encode_delta_frame_into(0, 1, 0, base, stamp, bytes));
    std::vector<std::uint64_t> out(2);
    EXPECT_EQ(decode_delta_frame_into(bytes, base, out).epoch, 0u);
    EXPECT_EQ(out, stamp);
}

TEST(DeltaWire, EncoderRefusesNonMonotoneAndWidthMismatch) {
    std::vector<std::uint8_t> bytes{0xAA};
    // Component 1 regressed: the shadow is stale, caller must resync.
    EXPECT_FALSE(encode_delta_frame_into(
        1, 5, 7, std::vector<std::uint64_t>{3, 4},
        std::vector<std::uint64_t>{3, 3}, bytes));
    EXPECT_TRUE(bytes.empty());  // refusal leaves out cleared
    EXPECT_FALSE(encode_delta_frame_into(
        1, 5, 7, std::vector<std::uint64_t>{3, 4},
        std::vector<std::uint64_t>{3, 4, 5}, bytes));
}

TEST(DeltaWire, DifferentialFiveHundredSeeds) {
    // Random monotone (base, stamp) pairs across widths: the delta
    // decode must reproduce the stamp exactly, and a full v2 frame of
    // the same rendezvous must agree on the header — the two encodings
    // are interchangeable on the wire.
    std::uint64_t delta_bytes = 0;
    std::uint64_t full_bytes = 0;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        Rng rng(0xD11A'0000 + seed);
        const std::size_t width = 1 + rng.below(48);
        std::vector<std::uint64_t> base(width);
        std::vector<std::uint64_t> stamp(width);
        for (std::size_t i = 0; i < width; ++i) {
            base[i] = rng.below(1'000'000);
            // Mostly unchanged components with a few small increments —
            // the shape a synchronous channel actually produces.
            stamp[i] = base[i] + (rng.below(4) == 0 ? rng.below(9) : 0);
        }
        const EpochId epoch = static_cast<EpochId>(rng.below(5));
        const std::uint64_t sequence = 1 + rng.below(1'000);
        const std::uint64_t message = rng.below(10'000);

        std::vector<std::uint8_t> delta;
        ASSERT_TRUE(encode_delta_frame_into(epoch, sequence, message, base,
                                            stamp, delta))
            << "seed " << seed;
        std::vector<std::uint64_t> out(width);
        const FrameHeader got = decode_delta_frame_into(delta, base, out);
        ASSERT_EQ(out, stamp) << "seed " << seed;
        ASSERT_EQ(got.epoch, epoch);
        ASSERT_EQ(got.sequence, sequence);
        ASSERT_EQ(got.message, message);

        std::vector<std::uint8_t> full;
        encode_epoch_frame_into(epoch, sequence, message, stamp, full);
        delta_bytes += delta.size();
        full_bytes += full.size();
    }
    // The codec's reason to exist: deltas are much smaller than full
    // vectors on realistic channel traffic.
    EXPECT_LT(delta_bytes * 3, full_bytes);
}

TEST(DeltaWire, DecoderRejectsCorruptionAndForeignVersions) {
    const std::vector<std::uint64_t> base{7, 8, 9};
    const std::vector<std::uint64_t> stamp{9, 8, 11};
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(encode_delta_frame_into(2, 3, 4, base, stamp, bytes));
    std::vector<std::uint64_t> out(3);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[i] ^= 0x40;
        EXPECT_THROW(decode_delta_frame_into(mutated, base, out), WireError)
            << "byte " << i;
    }
    // Full frames must be routed through decode_epoch_frame_into.
    std::vector<std::uint8_t> full;
    encode_epoch_frame_into(2, 3, 4, stamp, full);
    EXPECT_THROW(decode_delta_frame_into(full, base, out), WireError);
}

// ---------------------------------------------------------------------------
// Batch container (v4)

TEST(BatchWire, RoundTripPreservesOrderKindsAndTags) {
    BatchFrame batch;
    const std::vector<std::uint8_t> a{1, 2, 3};
    const std::vector<std::uint8_t> b{9};
    const std::vector<std::uint8_t> c{5, 5, 5, 5};
    batch.add(0, 10, a);
    batch.add(1, 11, b);
    batch.add(1, 12, c);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch.pending_bytes(), a.size() + b.size() + c.size());

    std::vector<std::uint8_t> wire;
    batch.encode_batch_into(wire);
    BatchReader reader(wire);
    EXPECT_TRUE(reader.intact());
    EXPECT_EQ(reader.declared_count(), 3u);
    BatchFrame::Entry entry;
    ASSERT_TRUE(reader.next(entry));
    EXPECT_EQ(entry.kind, 0u);
    EXPECT_EQ(entry.tag, 10u);
    EXPECT_EQ(std::vector<std::uint8_t>(entry.body.begin(), entry.body.end()),
              a);
    ASSERT_TRUE(reader.next(entry));
    EXPECT_EQ(entry.tag, 11u);
    ASSERT_TRUE(reader.next(entry));
    EXPECT_EQ(entry.tag, 12u);
    EXPECT_EQ(std::vector<std::uint8_t>(entry.body.begin(), entry.body.end()),
              c);
    EXPECT_FALSE(reader.next(entry));
}

TEST(BatchWire, SupersedeRetiresQueuedAckAndFrontSkipsIt) {
    BatchFrame batch;
    const std::vector<std::uint8_t> old_ack{1};
    const std::vector<std::uint8_t> req{2};
    const std::vector<std::uint8_t> new_ack{3};
    batch.add(1, 77, old_ack);  // kAck for rendezvous 77
    batch.add(0, 40, req);
    // The cumulative-ACK rule: a newer ACK for the *same* rendezvous
    // subsumes the queued one...
    EXPECT_TRUE(batch.supersede(1, 77));
    batch.add(1, 77, new_ack);
    // ...but never one for a different rendezvous or kind.
    EXPECT_FALSE(batch.supersede(1, 78));
    EXPECT_FALSE(batch.supersede(0, 77));
    batch.supersede(0, 40);  // retire the REQ too; front() must skip it
    batch.add(0, 40, req);

    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.front().tag, 77u);
    std::vector<std::uint8_t> wire;
    batch.encode_batch_into(wire);
    BatchReader reader(wire);
    BatchFrame::Entry entry;
    ASSERT_TRUE(reader.next(entry));
    EXPECT_EQ(std::vector<std::uint8_t>(entry.body.begin(), entry.body.end()),
              new_ack);
    ASSERT_TRUE(reader.next(entry));
    EXPECT_EQ(entry.kind, 0u);
    EXPECT_FALSE(reader.next(entry));

    batch.clear();
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.pending_bytes(), 0u);
}

TEST(BatchWire, OuterChecksumIsAdvisoryEntriesCarryTheirOwn) {
    // Flip a bit inside one entry's body: intact() reports the damage,
    // but the reader still yields every entry — the inner frame
    // checksums decide which entries survive.
    BatchFrame batch;
    const std::vector<std::uint64_t> stamp{3, 1, 4};
    std::vector<std::uint8_t> frame_a;
    std::vector<std::uint8_t> frame_b;
    encode_epoch_frame_into(1, 2, 5, stamp, frame_a);
    encode_epoch_frame_into(1, 3, 6, stamp, frame_b);
    batch.add(0, 5, frame_a);
    batch.add(0, 6, frame_b);
    std::vector<std::uint8_t> wire;
    batch.encode_batch_into(wire);

    // Locate frame_a's bytes inside the container and damage one.
    const auto it = std::search(wire.begin(), wire.end(), frame_a.begin(),
                                frame_a.end());
    ASSERT_NE(it, wire.end());
    *(it + 2) ^= 0x01;

    BatchReader reader(wire);
    EXPECT_FALSE(reader.intact());
    BatchFrame::Entry entry;
    std::vector<std::uint64_t> out(3);
    ASSERT_TRUE(reader.next(entry));
    EXPECT_THROW(decode_epoch_frame_into(entry.body, out), WireError);
    ASSERT_TRUE(reader.next(entry));  // second entry is unharmed
    EXPECT_EQ(decode_epoch_frame_into(entry.body, out).sequence, 3u);
    EXPECT_EQ(out, stamp);
}

// ---------------------------------------------------------------------------
// Runtime: bit-identity sweeps

/// The option stacks the chaos sweep rotates through. Every schedule in
/// the sweep runs one of these; the plain run is the oracle.
std::vector<ProtocolOptions> option_stacks() {
    std::vector<ProtocolOptions> stacks(5);
    stacks[0].batching = true;
    stacks[1].coalesce_acks = true;
    stacks[2].delta = true;
    stacks[3].batching = true;
    stacks[3].coalesce_acks = true;
    stacks[3].delta = true;
    stacks[4] = stacks[3];
    stacks[4].bandwidth.enabled = true;
    // Tighter than one frame per round trip — stop-and-wait senders
    // only feel shaping when the refill over an RTT is below a frame
    // (and the auto burst of 4096, starting full, would never drain on
    // workloads this short).
    stacks[4].bandwidth.bytes_per_tick = 4;
    stacks[4].bandwidth.burst = 24;
    stacks[4].bandwidth.quantum = 64;
    return stacks;
}

struct ProtocolTotals {
    std::uint64_t schedules = 0;
    ProtocolStats stats;
    std::uint64_t crashes = 0;

    void absorb(const ProtocolStats& s) {
        stats.bytes_sent += s.bytes_sent;
        stats.wire_packets += s.wire_packets;
        stats.batch_packets += s.batch_packets;
        stats.batch_frames += s.batch_frames;
        stats.acks_coalesced += s.acks_coalesced;
        stats.delta_frames += s.delta_frames;
        stats.full_frames += s.full_frames;
        stats.delta_resyncs += s.delta_resyncs;
        stats.bsched_deferrals += s.bsched_deferrals;
    }
};

/// One workload replayed through `schedules` seeded schedules, cycling
/// the option stacks; a third of the schedules add message faults and a
/// sixth add crashes. Asserts bit-identity to the plain oracle always.
void run_protocol_sweep(const Graph& topology, std::size_t messages,
                        std::uint64_t workload_seed, std::uint64_t schedules,
                        ProtocolTotals& totals) {
    const SyncComputation script =
        testing::random_workload(topology, messages, 0.0, workload_seed);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);
    const std::vector<ProtocolOptions> stacks = option_stacks();
    const std::size_t max_step =
        1 + 2 * messages / topology.num_vertices();

    for (std::uint64_t schedule = 1; schedule <= schedules; ++schedule) {
        SynchronizerOptions options;
        options.seed = workload_seed * 1'000'003 + schedule;
        options.latency_lo = 1;
        options.latency_hi = 8;
        options.protocol = stacks[schedule % stacks.size()];
        Rng rng(options.seed ^ 0xBA7C4);
        if (schedule % 3 == 0) {
            options.faults.seed = schedule * 0x9E3779B9ull + workload_seed;
            options.faults.drop_probability = 0.04;
            options.faults.duplicate_probability = 0.04;
            options.faults.delay_probability = 0.2;
            options.faults.max_extra_delay = 15;
        }
        if (schedule % 6 == 0) {
            const std::size_t crashes = 1 + rng.below(2);
            for (std::size_t i = 0; i < crashes; ++i) {
                options.faults.crashes.push_back(CrashRule{
                    static_cast<ProcessId>(
                        rng.below(topology.num_vertices())),
                    1 + rng.below(max_step), 10 + rng.below(60)});
            }
        }
        const SynchronizerResult result = [&] {
            try {
                return run_rendezvous_protocol(decomposition, script,
                                               options);
            } catch (const std::exception& e) {
                ADD_FAILURE()
                    << "schedule " << schedule << " seed " << workload_seed
                    << " stack " << schedule % 5 << " threw: " << e.what();
                throw;
            }
        }();
        ASSERT_EQ(result.message_stamps.size(), expected.size());
        for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
            ASSERT_EQ(result.message_stamps[i],
                      expected[result.script_message[i]])
                << "schedule " << schedule << " realized message " << i;
        }
        ++totals.schedules;
        totals.absorb(result.protocol);
        totals.crashes += result.network_faults.crashes;
    }
}

/// Bit-identity helper: realized commit order may differ between runs
/// (batching and coalescing reshuffle delivery timing), so runs are
/// compared per *script* message against the Fig. 5 oracle.
void expect_oracle_stamps(const SynchronizerResult& result,
                          const std::vector<VectorTimestamp>& expected) {
    ASSERT_EQ(result.message_stamps.size(), expected.size());
    for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
        ASSERT_EQ(result.message_stamps[i],
                  expected[result.script_message[i]])
            << "realized message " << i;
    }
}

TEST(ProtocolChaos, BatchingChangesBytesNotTimestamps) {
    const Graph topology = topology::client_server(2, 4);
    const SyncComputation script =
        testing::random_workload(topology, 40, 0.0, 21);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);

    SynchronizerOptions plain;
    plain.seed = 9;
    plain.latency_hi = 4;
    const SynchronizerResult a =
        run_rendezvous_protocol(decomposition, script, plain);
    expect_oracle_stamps(a, expected);
    EXPECT_EQ(a.protocol.batch_packets, 0u);
    EXPECT_EQ(a.protocol.delta_frames, 0u);
    EXPECT_GT(a.protocol.wire_packets, 0u);  // byte accounting is always on
    EXPECT_GT(a.protocol.bytes_sent, 0u);

    SynchronizerOptions batched = plain;
    batched.protocol.batching = true;
    batched.protocol.coalesce_acks = true;
    const SynchronizerResult b =
        run_rendezvous_protocol(decomposition, script, batched);
    expect_oracle_stamps(b, expected);
    // Coalescing + batching must actually shrink the packet stream.
    EXPECT_LT(b.protocol.wire_packets, a.protocol.wire_packets);
    EXPECT_GT(b.protocol.batch_packets, 0u);
    EXPECT_GE(b.protocol.batch_frames, 2 * b.protocol.batch_packets);
}

TEST(ProtocolChaos, DeltaCutsBytesOnWideTopologies) {
    // Width plus channel locality is what the delta codec monetizes:
    // the 8x8 grid decomposes into 44 stars, so a full vector is 44
    // components — but between two rendezvous on the *same* channel
    // only the few components near that edge move. Bursty per-channel
    // traffic (each edge carries a run of consecutive rendezvous) is
    // the shape where deltas collapse to a handful of increments;
    // uniformly random traffic revisits a channel only after most of
    // the vector has moved, and there deltas merely break even.
    const Graph topology = topology::grid(8, 8);
    SyncComputation script(topology);
    for (const Edge& edge : topology.edges()) {
        for (std::size_t burst = 0; burst < 8; ++burst) {
            script.add_message(edge.u, edge.v);
        }
    }
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);

    SynchronizerOptions plain;
    plain.seed = 13;
    const SynchronizerResult a =
        run_rendezvous_protocol(decomposition, script, plain);

    SynchronizerOptions deltas = plain;
    deltas.protocol.delta = true;
    const SynchronizerResult b =
        run_rendezvous_protocol(decomposition, script, deltas);
    expect_oracle_stamps(a, expected);
    expect_oracle_stamps(b, expected);
    EXPECT_GT(b.protocol.delta_frames, b.protocol.full_frames);
    EXPECT_EQ(b.protocol.delta_resyncs, 0u);  // reliable network: no gaps
    // The headline number: frame bytes shrink by well over half.
    EXPECT_LT(2 * b.protocol.bytes_sent, a.protocol.bytes_sent);
}

TEST(ProtocolChaos, FullStackCutsBytesPerMessageThreefold) {
    // The wire-efficiency gate (docs/PROTOCOL.md). Grid 16x16 with 32
    // alternating messages per edge is the traffic batching and deltas
    // were built for. Counting a nominal 28 B (IPv4 + UDP) per packet,
    // the full stack must send at least 3x fewer bytes per message than
    // the classic profile. Every stack, and the full stack on a lossy
    // network, stays bit-identical to the Fig. 5 oracle.
    const Graph topology = topology::grid(16, 16);
    SyncComputation script(topology);
    for (const Edge& edge : topology.edges()) {
        for (std::size_t k = 0; k < 32; ++k) {
            if (k % 2 == 0) {
                script.add_message(edge.u, edge.v);
            } else {
                script.add_message(edge.v, edge.u);
            }
        }
    }
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);

    const auto bytes_per_message = [&](const ProtocolOptions& protocol,
                                       double drop) {
        std::uint64_t bytes = 0;
        std::uint64_t packets = 0;
        std::uint64_t messages = 0;
        for (std::uint64_t run = 1; run <= 3; ++run) {
            SynchronizerOptions options;
            options.seed = run;
            options.latency_lo = 1;
            options.latency_hi = 4;
            options.protocol = protocol;
            options.faults.seed = run * 6271;
            options.faults.drop_probability = drop;
            const SynchronizerResult result =
                run_rendezvous_protocol(decomposition, script, options);
            expect_oracle_stamps(result, expected);
            bytes += result.protocol.bytes_sent;
            packets += result.protocol.wire_packets;
            messages += result.message_stamps.size();
        }
        return static_cast<double>(bytes + 28 * packets) /
               static_cast<double>(messages);
    };
    ProtocolOptions batched;
    batched.batching = true;
    batched.coalesce_acks = true;
    ProtocolOptions delta_only;
    delta_only.delta = true;
    ProtocolOptions full = batched;
    full.delta = true;

    const double classic = bytes_per_message(ProtocolOptions{}, 0.0);
    bytes_per_message(batched, 0.0);
    bytes_per_message(delta_only, 0.0);
    const double full_stack = bytes_per_message(full, 0.0);
    bytes_per_message(full, 0.05);
    EXPECT_GE(classic / full_stack, 3.0)
        << classic << " vs " << full_stack << " B/message";
}

TEST(ProtocolChaos, FiveHundredSchedulesBitIdenticalTimestamps) {
    ProtocolTotals totals;
    run_protocol_sweep(topology::path(3), 24, 81, 170, totals);
    run_protocol_sweep(topology::client_server(2, 3), 30, 82, 170, totals);
    run_protocol_sweep(topology::complete(4), 30, 83, 170, totals);

    ASSERT_GE(totals.schedules, 500u);
    // The sweep must have exercised every extension path: batches flew,
    // ACKs were superseded in queue, deltas were sent and occasionally
    // rejected against stale shadows (faulty schedules), full-frame
    // resyncs recovered, crashes bit, and the bandwidth scheduler
    // deferred flushes. A chaos suite whose extensions never fire tests
    // nothing.
    EXPECT_GT(totals.crashes, 0u);
    EXPECT_GT(totals.stats.batch_packets, 0u);
    EXPECT_GT(totals.stats.batch_frames, 0u);
    EXPECT_GT(totals.stats.acks_coalesced, 0u);
    EXPECT_GT(totals.stats.delta_frames, 0u);
    EXPECT_GT(totals.stats.full_frames, 0u);
    EXPECT_GT(totals.stats.delta_resyncs, 0u);
    EXPECT_GT(totals.stats.bsched_deferrals, 0u);
}

TEST(ProtocolChaos, FullStackSurvivesReconfiguration) {
    // Epoch barriers are shadow graveyards: every delta shadow carries
    // its epoch tag, so cross-epoch deltas are structurally impossible
    // and the first frame of each epoch goes out full. The stack must
    // stay bit-identical across multi-epoch runs.
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        TopologyManager manager{topology::ring(5)};
        for (const ReconfigOp& op : random_reconfig_schedule(
                 topology::ring(5), 2, 8100 + seed)) {
            apply(manager, op);
        }
        std::vector<SyncComputation> scripts;
        std::vector<std::vector<VectorTimestamp>> expected;
        for (EpochId e = 0; e < manager.num_epochs(); ++e) {
            scripts.push_back(testing::random_workload(
                manager.epoch(e).graph(), 16, 0.0, seed * 151 + e));
            OnlineTimestamper direct(manager.decomposition(e));
            expected.push_back(direct.timestamp_computation(scripts[e]));
        }

        SynchronizerOptions options;
        options.seed = 8200 + seed;
        options.latency_lo = 1;
        options.latency_hi = 5;
        options.protocol.batching = true;
        options.protocol.coalesce_acks = true;
        options.protocol.delta = true;
        if (seed % 2 == 0) {
            options.faults.seed = 17 + seed;
            options.faults.drop_probability = 0.03;
            options.faults.delay_probability = 0.2;
            options.faults.max_extra_delay = 12;
        }
        const ReconfigurableRunResult run =
            run_reconfigurable_protocol(manager, scripts, options);
        ASSERT_EQ(run.segments.size(), manager.num_epochs());
        for (EpochId e = 0; e < manager.num_epochs(); ++e) {
            const EpochSegmentResult& segment = run.segments[e];
            ASSERT_EQ(segment.message_stamps.size(), expected[e].size());
            for (std::size_t i = 0; i < segment.message_stamps.size();
                 ++i) {
                ASSERT_EQ(segment.message_stamps[i],
                          expected[e][segment.script_message[i]])
                    << "seed " << seed << " epoch " << e << " message "
                    << i;
            }
        }
        EXPECT_GT(run.protocol.delta_frames, 0u) << "seed " << seed;
    }
}

TEST(ProtocolChaos, BandwidthShapingDelaysButNeverChangesStamps) {
    const Graph topology = topology::complete(4);
    const SyncComputation script =
        testing::random_workload(topology, 36, 0.0, 55);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));

    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);
    SynchronizerOptions plain;
    plain.seed = 31;
    const SynchronizerResult a =
        run_rendezvous_protocol(decomposition, script, plain);
    expect_oracle_stamps(a, expected);

    SynchronizerOptions shaped = plain;
    shaped.protocol.batching = true;
    shaped.protocol.bandwidth.enabled = true;
    // Tight enough that a stop-and-wait sender outruns the refill: a
    // frame costs ~burst tokens and the RTT earns back less than that.
    shaped.protocol.bandwidth.bytes_per_tick = 4;
    shaped.protocol.bandwidth.burst = 24;
    shaped.protocol.bandwidth.quantum = 64;
    obs::MetricsRegistry metrics;
    shaped.metrics = &metrics;
    const SynchronizerResult b =
        run_rendezvous_protocol(decomposition, script, shaped);
    expect_oracle_stamps(b, expected);
    // Shaping slows the run down; it must not distort the result.
    EXPECT_GE(b.virtual_duration, a.virtual_duration);
    EXPECT_GT(b.protocol.bsched_deferrals, 0u);
    EXPECT_GT(metrics.counter("bsched_refused").value(), 0u);
    EXPECT_GT(metrics.counter("bsched_admitted").value(), 0u);
    EXPECT_EQ(metrics.counter("bsched_deferrals").value(),
              b.protocol.bsched_deferrals);
}

TEST(ProtocolChaos, MetricsAndTraceRecordExtensionActivity) {
    const Graph topology = topology::client_server(1, 4);
    const SyncComputation script =
        testing::random_workload(topology, 40, 0.0, 71);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    SynchronizerOptions options;
    options.seed = 3;
    options.latency_hi = 4;
    options.protocol.batching = true;
    options.protocol.coalesce_acks = true;
    options.protocol.delta = true;
    obs::MetricsRegistry metrics;
    obs::TraceSink trace(1 << 14);
    options.metrics = &metrics;
    options.trace = &trace;
    const SynchronizerResult result =
        run_rendezvous_protocol(decomposition, script, options);

    EXPECT_EQ(metrics.counter("sync_bytes_sent").value(),
              result.protocol.bytes_sent);
    EXPECT_EQ(metrics.counter("sync_wire_packets").value(),
              result.protocol.wire_packets);
    EXPECT_EQ(metrics.counter("sync_batch_packets").value(),
              result.protocol.batch_packets);
    EXPECT_EQ(metrics.counter("sync_acks_coalesced").value(),
              result.protocol.acks_coalesced);
    EXPECT_EQ(metrics.counter("wire_delta_frames").value(),
              result.protocol.delta_frames);
    EXPECT_EQ(metrics.counter("wire_full_frames").value(),
              result.protocol.full_frames);

    bool saw_batch = false;
    bool saw_coalesce = false;
    trace.for_each([&](const obs::TraceEvent& e) {
        saw_batch |= e.kind == obs::TraceEventKind::batch;
        saw_coalesce |= e.kind == obs::TraceEventKind::coalesce;
    });
    EXPECT_EQ(saw_batch, result.protocol.batch_packets > 0);
    EXPECT_EQ(saw_coalesce, result.protocol.acks_coalesced > 0);
}

TEST(ProtocolChaos, OptionsAreValidated) {
    const Graph topology = topology::path(2);
    const SyncComputation script =
        testing::random_workload(topology, 4, 0.0, 3);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    SynchronizerOptions options;
    options.protocol.bandwidth.enabled = true;
    options.protocol.bandwidth.bytes_per_tick = 0;  // infinite ready_time
    EXPECT_THROW(run_rendezvous_protocol(decomposition, script, options),
                 std::invalid_argument);
}

/// Round `round` (< 8) of the benchmark's rdv_hostile recipe at set-up
/// seed `seed`: grid 8x8 over four epochs, 3,000 messages per epoch,
/// every protocol knob on, a lossy 4 B/tick shaped network and two
/// crashes. Input set `round` is the round-th drawn from one set-up Rng,
/// and the round runs at seed + round. The run must complete with every
/// stamp bit-identical to the Fig. 5 oracle.
void expect_hostile_round_matches_oracle(std::uint64_t seed,
                                         std::uint64_t round) {
    const Graph grid = topology::grid(8, 8);
    Rng rng(seed ^ 0x5C417);
    std::optional<TopologyManager> manager;
    std::vector<SyncComputation> scripts;
    std::vector<std::vector<VectorTimestamp>> expected;
    std::size_t messages = 0;
    std::size_t processes = 0;
    for (std::uint64_t variant = 0; variant <= round; ++variant) {
        manager.emplace(Graph(grid));
        for (const ReconfigOp& op :
             random_reconfig_schedule(grid, 3, rng())) {
            apply(*manager, op);
        }
        scripts.clear();
        expected.clear();
        messages = 0;
        processes = 0;
        for (EpochId e = 0; e < manager->num_epochs(); ++e) {
            const Graph& graph = manager->epoch(e).graph();
            WorkloadOptions workload;
            workload.num_messages = 3000;
            scripts.push_back(random_computation(graph, workload, rng));
            messages += scripts.back().num_messages();
            processes = std::max(processes, graph.num_vertices());
        }
    }
    for (EpochId e = 0; e < manager->num_epochs(); ++e) {
        OnlineTimestamper direct(manager->decomposition(e));
        expected.push_back(direct.timestamp_computation(scripts[e]));
    }

    const std::uint64_t round_seed = seed + round;
    SynchronizerOptions options;
    options.seed = round_seed;
    options.latency_lo = 1;
    options.latency_hi = 4;
    options.protocol.batching = true;
    options.protocol.coalesce_acks = true;
    options.protocol.delta = true;
    options.protocol.bandwidth.enabled = true;
    options.protocol.bandwidth.bytes_per_tick = 4;
    options.protocol.bandwidth.burst = 128;
    options.protocol.bandwidth.quantum = 64;
    options.faults.seed = round_seed * 0x9E3779B9ull + 0xFA17;
    options.faults.drop_probability = 0.04;
    options.faults.duplicate_probability = 0.04;
    options.faults.corrupt_probability = 0.01;
    options.faults.delay_probability = 0.2;
    options.faults.max_extra_delay = 15;
    options.recovery.enabled = true;
    Rng crash_rng(round_seed ^ 0xC2A5C2A5ull);
    const std::uint64_t max_step = 1 + 2 * messages / processes;
    for (int i = 0; i < 2; ++i) {
        options.faults.crashes.push_back(CrashRule{
            static_cast<ProcessId>(crash_rng.below(processes)),
            1 + crash_rng.below(max_step), 10 + crash_rng.below(60)});
    }
    ASSERT_EQ(options.max_retransmits, 64u);

    const ReconfigurableRunResult run =
        run_reconfigurable_protocol(*manager, scripts, options);
    EXPECT_EQ(run.network_faults.crashes, 2u);
    ASSERT_EQ(run.segments.size(), manager->num_epochs());
    for (EpochId e = 0; e < manager->num_epochs(); ++e) {
        const EpochSegmentResult& segment = run.segments[e];
        ASSERT_EQ(segment.message_stamps.size(), expected[e].size());
        for (std::size_t i = 0; i < segment.message_stamps.size(); ++i) {
            ASSERT_EQ(segment.message_stamps[i],
                      expected[e][segment.script_message[i]])
                << "epoch " << e << " message " << i;
        }
    }
}

// Regression for the rejoin replay watchdog. With a 4 B/tick shaper on
// a lossy network, a window replay can take longer than one base RTO to
// arrive; a watchdog re-HELLOing at a fixed RTO then spent its whole
// max_retransmits budget (64) before the replay landed and threw
// SynchronizerStalled on this schedule. With the REQ timer's backoff it
// completes, bit-identical to the Fig. 5 oracle.
TEST(ProtocolChaos, ReplayWatchdogBacksOffOnAShapedLossyLink) {
    expect_hostile_round_matches_oracle(1155, 0);
}

// Regression for a batch entry whose kind was corrupted from REQ to ACK.
// A batch entry's kind sits outside its frame's checksum. In this round
// a damaged container presents P48's REQ (sequence 15) to P49 as an ACK;
// P49 used to decode it into its shadow of the last ACK received from
// P48, so the next delta ACK on that channel decoded against the wrong
// base and the run threw "sender and receiver disagree on a timestamp".
// Checking the frame's direction against the script rejects the entry
// before it reaches the shadow.
TEST(ProtocolChaos, MislabeledBatchEntryLeavesTheAckShadowAlone) {
    expect_hostile_round_matches_oracle(21000, 1);
}

}  // namespace
}  // namespace syncts
