#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clocks/online_clock.hpp"
#include "obs/metrics.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/edge_decomposition.hpp"
#include "graph/generators.hpp"
#include "runtime/async_sim.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/synchronizer.hpp"
#include "test_util.hpp"

/// Targeted fault scenarios for the rendezvous protocol, each small enough
/// to state exact expected vectors. The direction of every recovery path
/// is pinned: lost REQ (receiver never saw it → retransmit processed
/// fresh), lost ACK (receiver committed → cached ACK replayed, no second
/// merge+increment), duplicated delivery (sequence dedup), reordering
/// (extra delays), and corruption (checksum reject + retransmit).

namespace syncts {
namespace {

constexpr std::uint32_t kReqKind = 0;
constexpr std::uint32_t kAckKind = 1;

/// Two processes, one channel, two messages 0 -> 1. With the single-edge
/// decomposition d = 1 and the exact stamps are (1) then (2).
struct PairFixture {
    std::shared_ptr<const EdgeDecomposition> decomposition;
    SyncComputation script;

    PairFixture()
        : decomposition(std::make_shared<const EdgeDecomposition>(
              trivial_complete_decomposition(topology::path(2)))),
          script(topology::path(2)) {
        script.add_message(0, 1);
        script.add_message(0, 1);
    }
};

/// Three processes on a path, groups fixed by hand so the expected
/// vectors are stable: group 0 = edge {0,1}, group 1 = edge {1,2}.
/// Script: m0: 0->1, m1: 1->2, m2: 0->1, m3: 2->1.
/// Fig. 5 by hand: (1,0), (1,1), (2,1), (2,2).
struct TriFixture {
    std::shared_ptr<const EdgeDecomposition> decomposition;
    SyncComputation script;

    TriFixture()
        : decomposition(make_decomposition()), script(topology::path(3)) {
        script.add_message(0, 1);
        script.add_message(1, 2);
        script.add_message(0, 1);
        script.add_message(2, 1);
    }

    static std::shared_ptr<const EdgeDecomposition> make_decomposition() {
        EdgeDecomposition decomposition(topology::path(3));
        const Edge lo = Edge::make(0, 1);
        const Edge hi = Edge::make(1, 2);
        decomposition.add_star(0, {&lo, 1});
        decomposition.add_star(2, {&hi, 1});
        return std::make_shared<const EdgeDecomposition>(
            std::move(decomposition));
    }

    static std::vector<VectorTimestamp> expected() {
        return {VectorTimestamp({1, 0}), VectorTimestamp({1, 1}),
                VectorTimestamp({2, 1}), VectorTimestamp({2, 2})};
    }
};

/// One run plus its protocol counters, read back from a fresh metrics
/// registry (the runtime no longer returns a stats struct; the `sync_*`
/// counters are the interface — docs/OBSERVABILITY.md).
struct CountedRun {
    SynchronizerResult result;
    std::uint64_t retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t req_duplicates = 0;
    std::uint64_t ack_duplicates = 0;
    std::uint64_t ack_replays = 0;
    std::uint64_t corrupt_rejects = 0;

    /// Every event where a duplicate frame was absorbed (dropped or
    /// answered from the ACK cache) — the legacy dup_drops aggregation.
    std::uint64_t duplicate_suppressions() const {
        return req_duplicates + ack_duplicates + ack_replays;
    }
};

CountedRun run_with_counters(
    const std::shared_ptr<const EdgeDecomposition>& decomposition,
    const SyncComputation& script, SynchronizerOptions options) {
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    CountedRun run{run_rendezvous_protocol(decomposition, script, options)};
    run.retransmits = metrics.counter("sync_retransmits").value();
    run.timeouts = metrics.counter("sync_timeouts").value();
    run.req_duplicates = metrics.counter("sync_req_duplicates").value();
    run.ack_duplicates = metrics.counter("sync_ack_duplicates").value();
    run.ack_replays = metrics.counter("sync_ack_replays").value();
    run.corrupt_rejects =
        metrics.counter("sync_frames_corrupt_rejected").value();
    return run;
}

void expect_script_stamps(const SynchronizerResult& result,
                          const std::vector<VectorTimestamp>& expected) {
    ASSERT_EQ(result.message_stamps.size(), expected.size());
    for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
        EXPECT_EQ(result.message_stamps[i],
                  expected[result.script_message[i]])
            << "realized message " << i;
    }
}

TEST(FaultInjection, LosslessRunStaysTwoPacketsPerMessage) {
    const PairFixture fx;
    const CountedRun run = run_with_counters(fx.decomposition, fx.script,
                                             SynchronizerOptions{});
    expect_script_stamps(run.result,
                         {VectorTimestamp(std::vector<std::uint64_t>{1}),
                          VectorTimestamp(std::vector<std::uint64_t>{2})});
    EXPECT_EQ(run.result.packets, 4u);
    EXPECT_EQ(run.retransmits, 0u);
    EXPECT_EQ(run.timeouts, 0u);
    EXPECT_EQ(run.duplicate_suppressions(), 0u);
    EXPECT_EQ(run.corrupt_rejects, 0u);
    EXPECT_EQ(run.result.network_faults.total_faults(), 0u);
}

TEST(FaultInjection, LostReqIsRetransmitted) {
    const PairFixture fx;
    SynchronizerOptions options;
    options.faults.targeted_drops.push_back(
        {.source = 0, .destination = 1, .kind = kReqKind, .occurrence = 1});
    const CountedRun run =
        run_with_counters(fx.decomposition, fx.script, options);
    expect_script_stamps(run.result,
                         {VectorTimestamp(std::vector<std::uint64_t>{1}),
                          VectorTimestamp(std::vector<std::uint64_t>{2})});
    // The dropped REQ never reached P1: recovery is a fresh retransmit,
    // not an ACK replay.
    EXPECT_EQ(run.result.network_faults.targeted_drops, 1u);
    EXPECT_GE(run.retransmits, 1u);
    EXPECT_GE(run.timeouts, 1u);
    EXPECT_EQ(run.ack_replays, 0u);
    EXPECT_EQ(run.result.packets, 4u);  // drop + resend: still 4 delivered
}

TEST(FaultInjection, LostAckReplaysCachedAckWithoutDoubleIncrement) {
    const PairFixture fx;
    SynchronizerOptions options;
    options.faults.targeted_drops.push_back(
        {.source = 1, .destination = 0, .kind = kAckKind, .occurrence = 1});
    const CountedRun run =
        run_with_counters(fx.decomposition, fx.script, options);
    // P1 committed m0 before its ACK was lost; the retransmitted REQ must
    // hit the duplicate path and replay the cached ACK. A second
    // merge+increment would stamp the messages (2) and (3) instead.
    expect_script_stamps(run.result,
                         {VectorTimestamp(std::vector<std::uint64_t>{1}),
                          VectorTimestamp(std::vector<std::uint64_t>{2})});
    EXPECT_EQ(run.result.network_faults.targeted_drops, 1u);
    EXPECT_GE(run.retransmits, 1u);
    EXPECT_GE(run.ack_replays, 1u);
    EXPECT_GE(run.duplicate_suppressions(), 1u);
}

TEST(FaultInjection, TargetedNthPacketRuleCounts) {
    const PairFixture fx;
    SynchronizerOptions options;
    // Drop the *second* REQ on the channel: m0 completes untouched, m1's
    // first attempt vanishes.
    options.faults.targeted_drops.push_back(
        {.source = 0, .destination = 1, .kind = kReqKind, .occurrence = 2});
    const CountedRun run =
        run_with_counters(fx.decomposition, fx.script, options);
    expect_script_stamps(run.result,
                         {VectorTimestamp(std::vector<std::uint64_t>{1}),
                          VectorTimestamp(std::vector<std::uint64_t>{2})});
    EXPECT_EQ(run.result.network_faults.targeted_drops, 1u);
    EXPECT_GE(run.retransmits, 1u);
}

TEST(FaultInjection, DuplicatedPacketsAreDeduplicated) {
    const TriFixture fx;
    SynchronizerOptions options;
    options.faults.duplicate_probability = 1.0;  // every packet twice
    const CountedRun run =
        run_with_counters(fx.decomposition, fx.script, options);
    // Sequence-number dedup must make the duplicate REQ a no-op on the
    // receiver clock and the duplicate ACK a no-op on the sender clock;
    // any double merge+increment shifts the hand-computed vectors.
    expect_script_stamps(run.result, TriFixture::expected());
    EXPECT_GT(run.result.network_faults.duplicated, 0u);
    EXPECT_GT(run.duplicate_suppressions(), 0u);
}

TEST(FaultInjection, ReorderedDeliveryStampsExactly) {
    const TriFixture fx;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SynchronizerOptions options;
        options.seed = seed;
        options.latency_lo = 1;
        options.latency_hi = 10;
        options.faults.seed = seed * 31;
        options.faults.delay_probability = 0.6;
        options.faults.max_extra_delay = 80;
        const SynchronizerResult result =
            run_rendezvous_protocol(fx.decomposition, fx.script, options);
        expect_script_stamps(result, TriFixture::expected());
    }
}

TEST(FaultInjection, CorruptedFramesAreRejectedAndRecovered) {
    const TriFixture fx;
    std::uint64_t rejects = 0;
    std::uint64_t corrupted = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SynchronizerOptions options;
        options.seed = seed;
        options.faults.seed = seed * 77;
        options.faults.corrupt_probability = 0.35;
        const CountedRun run =
            run_with_counters(fx.decomposition, fx.script, options);
        expect_script_stamps(run.result, TriFixture::expected());
        // Every corrupted payload must be caught at the wire layer —
        // garbage never reaches a clock.
        EXPECT_EQ(run.corrupt_rejects, run.result.network_faults.corrupted);
        rejects += run.corrupt_rejects;
        corrupted += run.result.network_faults.corrupted;
    }
    EXPECT_GT(corrupted, 0u);
    EXPECT_EQ(rejects, corrupted);

    // The same exact count on the batched profile (batching, ACK
    // coalescing, delta) and under a crash schedule. A batch container
    // damaged outside every entry — an appended byte, a hit in its outer
    // trailer — is one reject, and a corrupted packet lost at a crashed
    // process's NIC is counted by the network instead of a decoder. Each
    // seed below left one corrupted packet uncounted before both were
    // accounted for.
    const Graph graph = topology::client_server(2, 4);
    const SyncComputation script =
        testing::random_workload(graph, 200, 0.0, 31);
    const auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph));
    const std::vector<VectorTimestamp> oracle = online_timestamps(script);
    std::uint64_t batch_packets = 0;
    std::uint64_t corrupt_down_drops = 0;
    for (const bool crashes : {false, true}) {
        const std::vector<std::uint64_t> seeds =
            crashes ? std::vector<std::uint64_t>{20, 24, 32, 37}
                    : std::vector<std::uint64_t>{1, 2, 5, 8};
        for (const std::uint64_t seed : seeds) {
            SynchronizerOptions options;
            options.seed = seed;
            options.latency_hi = 6;
            options.faults.seed = seed * 77;
            options.faults.drop_probability = 0.05;
            if (crashes) {
                options.faults.corrupt_probability = 0.05;
                options.faults.crashes = {CrashRule{1, 20, 60},
                                          CrashRule{2, 40, 60}};
            } else {
                options.faults.duplicate_probability = 0.05;
                options.faults.corrupt_probability = 0.03;
                options.faults.delay_probability = 0.2;
                options.faults.max_extra_delay = 10;
                options.protocol.batching = true;
                options.protocol.coalesce_acks = true;
                options.protocol.delta = true;
            }
            const CountedRun run =
                run_with_counters(decomposition, script, options);
            expect_script_stamps(run.result, oracle);
            const FaultStats& faults = run.result.network_faults;
            EXPECT_EQ(run.corrupt_rejects,
                      faults.corrupted - faults.corrupt_down_drops)
                << (crashes ? "crash" : "batched") << " seed " << seed;
            batch_packets += run.result.protocol.batch_packets;
            corrupt_down_drops += faults.corrupt_down_drops;
        }
    }
    EXPECT_GT(batch_packets, 0u);
    EXPECT_GT(corrupt_down_drops, 0u);
}

TEST(FaultInjection, FullyDeadChannelThrowsSynchronizerStalled) {
    const PairFixture fx;
    SynchronizerOptions options;
    options.faults.drop_probability = 1.0;  // the network eats everything
    options.max_retransmits = 5;
    EXPECT_THROW(run_rendezvous_protocol(fx.decomposition, fx.script, options),
                 SynchronizerStalled);
}

TEST(FaultInjection, ExplicitTimeoutEnablesRetransmissionWithoutFaults) {
    // A reliable network with an aggressive explicit RTO: spurious
    // retransmits occur (the receiver is slow to reach its receive) and
    // must all be absorbed by dedup.
    const TriFixture fx;
    SynchronizerOptions options;
    options.latency_lo = 1;
    options.latency_hi = 30;
    options.retransmit_timeout = 2;  // far below the RTT
    const CountedRun run =
        run_with_counters(fx.decomposition, fx.script, options);
    expect_script_stamps(run.result, TriFixture::expected());
    EXPECT_GT(run.retransmits, 0u);
}

TEST(FaultInjection, InvalidPlansAreRejected) {
    const PairFixture fx;
    SynchronizerOptions options;
    options.faults.drop_probability = 1.5;
    EXPECT_THROW(run_rendezvous_protocol(fx.decomposition, fx.script, options),
                 std::invalid_argument);
    options.faults.drop_probability = 0.0;
    options.faults.targeted_drops.push_back(
        {.source = 0, .destination = 1, .kind = kReqKind, .occurrence = 0});
    EXPECT_THROW(run_rendezvous_protocol(fx.decomposition, fx.script, options),
                 std::invalid_argument);
}

TEST(FaultInjection, InjectorStatsCountEachFaultKind) {
    FaultPlan plan;
    plan.seed = 7;
    plan.drop_probability = 0.3;
    plan.duplicate_probability = 0.3;
    plan.corrupt_probability = 0.3;
    plan.delay_probability = 0.3;
    plan.max_extra_delay = 9;
    FaultInjector injector(plan);
    std::uint64_t deliveries = 0;
    for (int i = 0; i < 2000; ++i) {
        deliveries += injector.disposition(0, 1, kReqKind).size();
    }
    const FaultStats& stats = injector.stats();
    EXPECT_GT(stats.dropped, 0u);
    EXPECT_GT(stats.duplicated, 0u);
    EXPECT_GT(stats.corrupted, 0u);
    EXPECT_GT(stats.delayed, 0u);
    EXPECT_EQ(deliveries, 2000 - stats.dropped + stats.duplicated);
}

TEST(FaultInjection, CorruptBodyAlwaysChangesBytes) {
    FaultPlan plan;
    plan.corrupt_probability = 1.0;
    FaultInjector injector(plan);
    Rng rng(404);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<std::uint8_t> body(1 + rng.below(40));
        for (auto& byte : body) {
            byte = static_cast<std::uint8_t>(rng.below(256));
        }
        const std::vector<std::uint8_t> original = body;
        injector.corrupt_body(body);
        EXPECT_NE(body, original);
    }
}

}  // namespace
}  // namespace syncts
