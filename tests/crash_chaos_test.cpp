#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clocks/direct_dependency.hpp"
#include "clocks/fm_event_clock.hpp"
#include "clocks/fm_sync_clock.hpp"
#include "clocks/lamport_clock.hpp"
#include "clocks/offline_timestamper.hpp"
#include "clocks/online_clock.hpp"
#include "common/rng.hpp"
#include "core/causality.hpp"
#include "trace/ground_truth.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/reconfig_runtime.hpp"
#include "runtime/synchronizer.hpp"
#include "test_util.hpp"
#include "topo/reconfig.hpp"

/// Crash-chaos harness (acceptance gate of the crash-recovery work,
/// docs/RECOVERY.md): recorded computations replayed through >= 500
/// seeded schedules in which processes crash mid-protocol — losing all
/// volatile state plus the WAL's unflushed tail — and restart from
/// snapshot + log replay after a downtime. Every schedule must realize
/// message timestamps bit-identical to the crash-free Fig. 5 oracle,
/// with WAL truncation active, and the aggregated `recover_*` counters
/// must prove each recovery path actually fired. The other five clock
/// families are validated on crash-realized computations, and one sweep
/// combines crashes with a multi-epoch reconfiguration schedule.

namespace syncts {
namespace {

struct CrashTotals {
    std::uint64_t schedules = 0;
    std::uint64_t messages = 0;
    obs::MetricsRegistry metrics;
    std::uint64_t crashes = 0;
    std::uint64_t down_drops = 0;
};

/// Derives a random crash schedule: `count` crashes spread over the
/// processes, at 1-based protocol steps within the workload's span.
std::vector<CrashRule> random_crashes(Rng& rng, std::size_t processes,
                                      std::size_t max_step,
                                      std::size_t count) {
    std::vector<CrashRule> rules;
    for (std::size_t i = 0; i < count; ++i) {
        CrashRule rule;
        rule.process = static_cast<ProcessId>(rng.below(processes));
        rule.at_step = 1 + rng.below(max_step);
        rule.downtime = 10 + rng.below(70);
        rules.push_back(rule);
    }
    return rules;
}

/// One workload replayed through `schedules` distinct crash schedules
/// (half of them also under network faults). Asserts bit-identity to the
/// crash-free oracle for every schedule.
void run_crash_sweep(const Graph& topology, std::size_t messages,
                     std::uint64_t workload_seed, std::uint64_t schedules,
                     CrashTotals& totals) {
    const SyncComputation script =
        testing::random_workload(topology, messages, 0.0, workload_seed);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);

    // Steps per process are bounded by its script length; crash points
    // beyond it simply never fire, so aim inside the busy range.
    const std::size_t max_step =
        1 + 2 * messages / topology.num_vertices();

    for (std::uint64_t schedule = 1; schedule <= schedules; ++schedule) {
        SynchronizerOptions options;
        options.seed = workload_seed * 1'000'003 + schedule;
        options.latency_lo = 1;
        options.latency_hi = 8;
        options.faults.seed = schedule * 0x9E3779B9ull + workload_seed;
        Rng rng(options.faults.seed ^ 0xC0FFEE);
        options.faults.crashes = random_crashes(
            rng, topology.num_vertices(), max_step, 1 + rng.below(3));
        if (schedule % 2 == 0) {
            options.faults.drop_probability = 0.03;
            options.faults.duplicate_probability = 0.05;
            options.faults.delay_probability = 0.25;
            options.faults.max_extra_delay = 20;
        }
        options.recovery.wal_flush_interval = 1 + rng.below(4);
        options.recovery.snapshot_interval = 2 + rng.below(12);
        options.recovery.window =
            options.recovery.wal_flush_interval + rng.below(5);
        options.metrics = &totals.metrics;
        const SynchronizerResult result =
            run_rendezvous_protocol(decomposition, script, options);
        ASSERT_EQ(result.message_stamps.size(), expected.size());
        for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
            ASSERT_EQ(result.message_stamps[i],
                      expected[result.script_message[i]])
                << "schedule " << schedule << " realized message " << i;
        }
        ++totals.schedules;
        totals.messages += result.message_stamps.size();
        totals.crashes += result.network_faults.crashes;
        totals.down_drops += result.network_faults.down_drops;
    }
}

TEST(CrashChaos, SingleDeterministicCrashRecoversBitIdentical) {
    const Graph topology = topology::path(3);
    const SyncComputation script =
        testing::random_workload(topology, 24, 0.0, 7);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);

    obs::MetricsRegistry metrics;
    obs::TraceSink trace(4096);
    SynchronizerOptions options;
    options.seed = 11;
    options.faults.crashes.push_back(CrashRule{1, 3, 40});
    options.recovery.wal_flush_interval = 2;
    options.recovery.snapshot_interval = 5;
    options.recovery.window = 4;
    options.metrics = &metrics;
    options.trace = &trace;
    const SynchronizerResult result =
        run_rendezvous_protocol(decomposition, script, options);

    ASSERT_EQ(result.message_stamps.size(), expected.size());
    for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
        EXPECT_EQ(result.message_stamps[i],
                  expected[result.script_message[i]]);
    }
    EXPECT_EQ(result.network_faults.crashes, 1u);
    EXPECT_EQ(metrics.counter("recover_restarts").value(), 1u);
    EXPECT_GT(metrics.counter("recover_snapshots").value(), 0u);
    EXPECT_GT(metrics.counter("recover_wal_appends").value(), 0u);
    // The crash and restart must be visible in the causal trace.
    bool saw_crash = false;
    bool saw_restart = false;
    trace.for_each([&](const obs::TraceEvent& e) {
        saw_crash |= e.kind == obs::TraceEventKind::crash;
        saw_restart |= e.kind == obs::TraceEventKind::restart;
    });
    EXPECT_TRUE(saw_crash);
    EXPECT_TRUE(saw_restart);
}

TEST(CrashChaos, FiveHundredCrashSchedulesBitIdenticalTimestamps) {
    CrashTotals totals;
    run_crash_sweep(topology::path(3), 24, 51, 180, totals);
    run_crash_sweep(topology::client_server(2, 3), 30, 52, 180, totals);
    run_crash_sweep(topology::complete(4), 30, 53, 180, totals);

    ASSERT_GE(totals.schedules, 500u);
    // The sweep must have exercised every recovery path: crashes fired,
    // deliveries hit dead NICs, snapshots and WAL flushes happened, logs
    // were replayed and truncated, the rejoin handshake ran, and both
    // window paths (ACK replay for re-executed sends, REQ replay for
    // lost frames) were taken. A crash suite whose crashes never bite
    // tests nothing.
    EXPECT_GT(totals.crashes, 0u);
    EXPECT_GT(totals.down_drops, 0u);
    const auto counter = [&](const char* name) {
        return totals.metrics.counter(name).value();
    };
    EXPECT_GT(counter("recover_restarts"), 0u);
    EXPECT_GT(counter("recover_snapshots"), 0u);
    EXPECT_GT(counter("recover_replayed_records"), 0u);
    EXPECT_GT(counter("recover_wal_appends"), 0u);
    EXPECT_GT(counter("recover_wal_flushes"), 0u);
    EXPECT_GT(counter("recover_wal_truncated"), 0u);  // truncation active
    EXPECT_GT(counter("recover_hellos"), 0u);
    EXPECT_GT(counter("recover_hello_acks"), 0u);
    EXPECT_GT(counter("recover_recommits"), 0u);
    EXPECT_GT(counter("recover_window_retransmits"), 0u);
    EXPECT_GT(counter("recover_window_ack_replays"), 0u);
}

TEST(CrashChaos, AllSixFamiliesValidateOnCrashRealizedComputations) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Graph topology = topology::complete(4);
        const SyncComputation script =
            testing::random_workload(topology, 28, 0.0, 60 + seed);
        auto decomposition = std::make_shared<const EdgeDecomposition>(
            default_decomposition(topology));
        SynchronizerOptions options;
        options.seed = 600 + seed;
        Rng rng(seed * 77);
        options.faults.crashes =
            random_crashes(rng, topology.num_vertices(), 10, 2);
        options.recovery.wal_flush_interval = 2;
        options.recovery.snapshot_interval = 4;
        options.recovery.window = 6;
        const SynchronizerResult result =
            run_rendezvous_protocol(decomposition, script, options);
        ASSERT_GT(result.network_faults.crashes, 0u);

        // The realized computation has the script's messages and
        // per-process orders (instants renumbered to commit order), so
        // every family must stamp it exactly as it stamps the script —
        // message i of the realized run maps to script_message[i].
        const auto expect_realized_like_script = [&](const auto& want,
                                                     const auto& got,
                                                     const char* family) {
            ASSERT_EQ(got.size(), want.size()) << family;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i], want[result.script_message[i]])
                    << family << " seed " << seed << " realized message "
                    << i;
            }
        };
        expect_realized_like_script(
            OnlineTimestamper(decomposition).timestamp_computation(script),
            OnlineTimestamper(decomposition)
                .timestamp_computation(result.computation),
            "online");
        expect_realized_like_script(fm_sync_timestamps(script),
                                    fm_sync_timestamps(result.computation),
                                    "fm_sync");
        expect_realized_like_script(
            fm_event_timestamps(script).message_stamps,
            fm_event_timestamps(result.computation).message_stamps,
            "fm_event");
        expect_realized_like_script(
            lamport_timestamps(script).message_stamps,
            lamport_timestamps(result.computation).message_stamps,
            "lamport");
        // Direct dependency (Fowler–Zwaenepoel): the records hold message
        // *ids* in the stamping run's own dense numbering, so realized-run
        // ids must be translated through script_message before comparing
        // with the script run's records.
        {
            const std::vector<DirectDeps> want =
                DirectDependencyTracker::record_computation(script);
            const std::vector<DirectDeps> got =
                DirectDependencyTracker::record_computation(
                    result.computation);
            ASSERT_EQ(got.size(), want.size());
            const auto translate = [&](MessageId raw) {
                return raw == kNoMessage ? kNoMessage
                                         : result.script_message[raw];
            };
            for (std::size_t i = 0; i < got.size(); ++i) {
                const DirectDeps& expect = want[result.script_message[i]];
                ASSERT_EQ(translate(got[i].prev_sender), expect.prev_sender)
                    << "direct_dependency seed " << seed << " message " << i
                    << " component 0";
                ASSERT_EQ(translate(got[i].prev_receiver),
                          expect.prev_receiver)
                    << "direct_dependency seed " << seed << " message " << i
                    << " component 1";
            }
        }
        // Offline (Fig. 9): the realizer on the crash-realized
        // computation must still encode its precedence exactly.
        const OfflineResult offline =
            offline_timestamps(result.computation);
        EXPECT_EQ(encoding_mismatches(message_poset(result.computation),
                                      offline.timestamps),
                  0u)
            << "seed " << seed;
    }
}

TEST(CrashChaos, CrashesUnderReconfigurationStayBitIdentical) {
    obs::MetricsRegistry metrics;
    std::uint64_t crashed_runs = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        TopologyManager manager{topology::ring(5)};
        for (const ReconfigOp& op : random_reconfig_schedule(
                 topology::ring(5), 2, 7000 + seed)) {
            apply(manager, op);
        }
        std::vector<SyncComputation> scripts;
        std::vector<std::vector<VectorTimestamp>> expected;
        for (EpochId e = 0; e < manager.num_epochs(); ++e) {
            scripts.push_back(testing::random_workload(
                manager.epoch(e).graph(), 16, 0.0, seed * 131 + e));
            OnlineTimestamper direct(manager.decomposition(e));
            expected.push_back(direct.timestamp_computation(scripts[e]));
        }

        SynchronizerOptions options;
        options.seed = 9000 + seed;
        options.latency_lo = 1;
        options.latency_hi = 5;
        Rng rng(seed * 0x9E3779B9ull + 5);
        options.faults.crashes = random_crashes(
            rng, manager.epoch(0).graph().num_vertices(),
            8 * manager.num_epochs(), 1 + rng.below(2));
        options.recovery.wal_flush_interval = 2;
        options.recovery.snapshot_interval = 6;
        options.recovery.window = 6;
        options.metrics = &metrics;

        const ReconfigurableRunResult run =
            run_reconfigurable_protocol(manager, scripts, options);
        crashed_runs += run.network_faults.crashes > 0 ? 1 : 0;
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
    }
    // Crash rules must actually have fired across the sweep, including
    // restarts that had to catch up through epoch barriers.
    EXPECT_GT(crashed_runs, 10u);
    EXPECT_GT(metrics.counter("recover_restarts").value(), 0u);
    EXPECT_GT(metrics.counter("recover_fast_forwards").value(), 0u);
}

TEST(CrashChaos, RecoveryOptionsAreValidated) {
    const Graph topology = topology::path(2);
    const SyncComputation script =
        testing::random_workload(topology, 4, 0.0, 3);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    {
        SynchronizerOptions options;
        options.recovery.enabled = true;
        options.recovery.wal_flush_interval = 8;
        options.recovery.window = 4;  // window < flush interval
        EXPECT_THROW(
            run_rendezvous_protocol(decomposition, script, options),
            std::invalid_argument);
    }
    {
        SynchronizerOptions options;
        options.faults.crashes.push_back(CrashRule{9, 1, 10});  // no P9
        EXPECT_THROW(
            run_rendezvous_protocol(decomposition, script, options),
            std::invalid_argument);
    }
    {
        SynchronizerOptions options;
        options.faults.crashes.push_back(CrashRule{0, 0, 10});  // step 0
        EXPECT_THROW(
            run_rendezvous_protocol(decomposition, script, options),
            std::invalid_argument);
    }
}

TEST(CrashChaos, EnabledRecoveryWithoutCrashesChangesNothing) {
    // Checkpointing overhead only: stamps, packets, and virtual time are
    // identical with and without the recovery layer armed.
    const Graph topology = topology::complete(4);
    const SyncComputation script =
        testing::random_workload(topology, 30, 0.0, 77);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    SynchronizerOptions plain;
    plain.seed = 5;
    plain.latency_hi = 6;
    const SynchronizerResult a =
        run_rendezvous_protocol(decomposition, script, plain);
    SynchronizerOptions armed = plain;
    armed.recovery.enabled = true;
    obs::MetricsRegistry metrics;
    armed.metrics = &metrics;
    const SynchronizerResult b =
        run_rendezvous_protocol(decomposition, script, armed);
    ASSERT_EQ(a.message_stamps, b.message_stamps);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.virtual_duration, b.virtual_duration);
    EXPECT_GT(metrics.counter("recover_snapshots").value(), 0u);
    EXPECT_EQ(metrics.counter("recover_restarts").value(), 0u);
}

}  // namespace
}  // namespace syncts
