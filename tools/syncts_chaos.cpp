// syncts_chaos — replay recorded computations through seeded fault
// schedules and verify the rendezvous protocol realizes timestamps
// bit-identical to the direct Fig. 5 simulator's.
//
// Usage:
//   syncts_chaos [<spec>] [--schedules N] [--messages M] [--seed S]
//                [--drop P] [--dup P] [--corrupt P] [--delay P]
//                [--jitter J] [--latency LO:HI] [--reconfig SCHED]
//                [--crash N] [--crash-downtime D] [--wal-flush K]
//                [--snap-every K] [--window W] [--quiet]
//
// <spec> is a topology spec (default cs:2:4); see syncts_topo for the
// grammar. Each schedule k in 1..N derives its own workload-independent
// fault seed, runs the protocol with drop/duplication/corruption/extra
// delay all enabled, and compares every realized message timestamp
// against OnlineTimestamper. Exit status: 0 when all schedules match,
// 1 on any mismatch, stall or other failure inside a schedule (such as a
// failed runtime invariant, printed as "schedule <k>: <what>") — so this
// binary is CI-able as a chaos gate.
// Integer values take an optional k or m suffix ("2k" = 2000),
// --schedules and --messages are at least 1, probabilities lie in [0, 1]
// and --latency needs 1 <= LO <= HI; a malformed value prints
// "bad value ..." and exits 2.
//
// --crash N arms the crash-recovery layer (docs/RECOVERY.md): every
// schedule derives N whole-process crash/restart rules from its fault
// seed, each felling a random process at a random protocol step for a
// random (or --crash-downtime fixed) downtime. --wal-flush, --snap-every
// and --window tune the durability knobs (RecoveryOptions); the summary
// then reports crashes, restarts, WAL replay and rejoin traffic.
//
// --reconfig takes a topology reconfiguration schedule (grammar in
// topo/reconfig.hpp, e.g. addc:0:3,delc:1:2 or rand:2:5): each op starts
// a new epoch with its own per-epoch workload of M messages, the whole
// sequence runs through the reconfigurable driver under the same fault
// plan, and every epoch's timestamps must be bit-identical to a fresh
// Fig. 5 run on that epoch's topology (docs/TOPOLOGY.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "clocks/online_clock.hpp"
#include "decomp/cover_decomposer.hpp"
#include "obs/metrics.hpp"
#include "runtime/reconfig_runtime.hpp"
#include "runtime/synchronizer.hpp"
#include "topo/reconfig.hpp"
#include "topo/topology_manager.hpp"
#include "topo_spec.hpp"
#include "trace/generator.hpp"

using namespace syncts;

namespace {

struct Config {
    std::string spec = "cs:2:4";
    std::uint64_t schedules = 1000;
    std::size_t messages = 40;
    std::uint64_t seed = 1;
    double drop = 0.05;
    double dup = 0.05;
    double corrupt = 0.04;
    double delay = 0.35;
    std::uint64_t jitter = 40;
    std::uint64_t latency_lo = 1;
    std::uint64_t latency_hi = 12;
    std::string reconfig;  // epoch schedule; empty = single epoch
    std::uint64_t crash = 0;           // crash rules per schedule
    std::uint64_t crash_downtime = 0;  // fixed downtime; 0 = random 10..79
    std::uint64_t wal_flush = 4;
    std::uint64_t snap_every = 16;
    std::size_t window = 8;
    bool batch = false;           // frame batching + ACK coalescing
    bool delta = false;           // delta-encoded vectors
    std::uint64_t bandwidth = 0;  // bytes/tick budget; 0 = unshaped
    bool quiet = false;
};

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: syncts_chaos [<spec>] [--schedules N] "
                 "[--messages M] [--seed S]\n"
                 "                    [--drop P] [--dup P] [--corrupt P] "
                 "[--delay P]\n"
                 "                    [--jitter J] [--latency LO:HI] "
                 "[--reconfig SCHED]\n"
                 "                    [--crash N] [--crash-downtime D] "
                 "[--wal-flush K]\n"
                 "                    [--snap-every K] [--window W] "
                 "[--batch] [--delta]\n"
                 "                    [--bandwidth BYTES_PER_TICK] "
                 "[--quiet]\nspecs: %s\n",
                 tools::spec_help());
    std::exit(2);
}

Config parse_args(int argc, char** argv) {
    Config config;
    int i = 1;
    if (i < argc && argv[i][0] != '-') config.spec = argv[i++];
    const auto next_value = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag);
            usage();
        }
        return argv[++i];
    };
    const auto next_count = [&](const char* flag) {
        return tools::parse_count(flag, next_value(flag));
    };
    const auto next_positive = [&](const char* flag) {
        return tools::parse_positive(flag, next_value(flag));
    };
    const auto next_probability = [&](const char* flag) {
        return tools::parse_probability(flag, next_value(flag));
    };
    for (; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--schedules") {
            config.schedules = next_positive("--schedules");
        } else if (flag == "--messages") {
            config.messages = next_positive("--messages");
        } else if (flag == "--seed") {
            config.seed = next_count("--seed");
        } else if (flag == "--drop") {
            config.drop = next_probability("--drop");
        } else if (flag == "--dup") {
            config.dup = next_probability("--dup");
        } else if (flag == "--corrupt") {
            config.corrupt = next_probability("--corrupt");
        } else if (flag == "--delay") {
            config.delay = next_probability("--delay");
        } else if (flag == "--jitter") {
            config.jitter = next_count("--jitter");
        } else if (flag == "--latency") {
            std::tie(config.latency_lo, config.latency_hi) =
                tools::parse_range("--latency", next_value("--latency"));
        } else if (flag == "--reconfig") {
            config.reconfig = next_value("--reconfig");
        } else if (flag == "--crash") {
            config.crash = next_count("--crash");
        } else if (flag == "--crash-downtime") {
            config.crash_downtime = next_count("--crash-downtime");
        } else if (flag == "--wal-flush") {
            config.wal_flush = next_count("--wal-flush");
        } else if (flag == "--snap-every") {
            config.snap_every = next_count("--snap-every");
        } else if (flag == "--window") {
            config.window = next_count("--window");
        } else if (flag == "--batch") {
            config.batch = true;
        } else if (flag == "--delta") {
            config.delta = true;
        } else if (flag == "--bandwidth") {
            config.bandwidth = next_count("--bandwidth");
        } else if (flag == "--quiet") {
            config.quiet = true;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            usage();
        }
    }
    return config;
}

}  // namespace

int main(int argc, char** argv) {
    const Config config = parse_args(argc, argv);
    const Graph topology = tools::build_topology(config.spec);

    // Epoch sequence: one epoch without --reconfig, one extra per op
    // otherwise. The manager is immutable once built; every schedule
    // replays the same sequence.
    TopologyManager manager{Graph(topology)};
    if (!config.reconfig.empty()) {
        for (const ReconfigOp& op :
             parse_reconfig_schedule(config.reconfig, topology)) {
            apply(manager, op);
        }
    }

    // One workload per epoch plus its direct Fig. 5 expectation — the
    // bit-identical reference for that epoch's topology.
    Rng workload_rng(config.seed);
    std::vector<SyncComputation> scripts;
    std::vector<std::vector<VectorTimestamp>> expected;
    std::uint64_t script_messages = 0;
    for (EpochId e = 0; e < manager.num_epochs(); ++e) {
        WorkloadOptions workload;
        workload.num_messages = config.messages;
        scripts.push_back(
            random_computation(manager.epoch(e).graph(), workload,
                               workload_rng));
        OnlineTimestamper direct(manager.epoch(e).decomposition);
        expected.push_back(direct.timestamp_computation(scripts.back()));
        script_messages += scripts.back().num_messages();
    }

    std::printf(
        "chaos: %s  d=%zu  epochs=%zu  messages=%llu  schedules=%llu\n"
        "plan:  drop=%.3f dup=%.3f corrupt=%.3f delay=%.3f jitter=%llu "
        "latency=[%llu,%llu]\n",
        config.spec.c_str(), manager.epoch(0).width(), manager.num_epochs(),
        static_cast<unsigned long long>(script_messages),
        static_cast<unsigned long long>(config.schedules), config.drop,
        config.dup, config.corrupt, config.delay,
        static_cast<unsigned long long>(config.jitter),
        static_cast<unsigned long long>(config.latency_lo),
        static_cast<unsigned long long>(config.latency_hi));
    if (config.batch || config.delta || config.bandwidth > 0) {
        std::printf(
            "wire:  batch=%s delta=%s bandwidth=%s\n",
            config.batch ? "on" : "off", config.delta ? "on" : "off",
            config.bandwidth > 0
                ? (std::to_string(config.bandwidth) + " B/tick").c_str()
                : "unshaped");
    }
    if (config.crash > 0) {
        std::printf(
            "crash: %llu/schedule  downtime=%s  wal-flush=%llu "
            "snap-every=%llu window=%zu\n",
            static_cast<unsigned long long>(config.crash),
            config.crash_downtime > 0
                ? std::to_string(config.crash_downtime).c_str()
                : "rand[10,79]",
            static_cast<unsigned long long>(config.wal_flush),
            static_cast<unsigned long long>(config.snap_every),
            config.window);
    }

    std::uint64_t mismatches = 0;
    std::uint64_t stalls = 0;
    std::uint64_t errors = 0;
    std::uint64_t packets = 0;
    ProtocolStats wire;
    // The sync_* counters accumulate across every schedule; the registry
    // is the aggregate the summary prints.
    obs::MetricsRegistry metrics;
    FaultStats faults;
    for (std::uint64_t schedule = 1; schedule <= config.schedules;
         ++schedule) {
        SynchronizerOptions options;
        options.seed = config.seed * 1'000'003 + schedule;
        options.latency_lo = config.latency_lo;
        options.latency_hi = config.latency_hi;
        options.faults.seed = schedule * 0x9E3779B9ull + config.seed;
        options.faults.drop_probability = config.drop;
        options.faults.duplicate_probability = config.dup;
        options.faults.corrupt_probability = config.corrupt;
        options.faults.delay_probability = config.delay;
        options.faults.max_extra_delay = config.jitter;
        if (config.crash > 0) {
            // Same derivation as the crash-chaos suite: schedule-local
            // RNG, crash points inside the busy step range.
            Rng crash_rng(options.faults.seed ^ 0xC0FFEE);
            const std::size_t processes =
                manager.epoch(0).graph().num_vertices();
            const std::size_t max_step =
                1 + 2 * config.messages / processes;
            for (std::uint64_t c = 0; c < config.crash; ++c) {
                CrashRule rule;
                rule.process =
                    static_cast<ProcessId>(crash_rng.below(processes));
                rule.at_step = 1 + crash_rng.below(max_step);
                rule.downtime = config.crash_downtime > 0
                                    ? config.crash_downtime
                                    : 10 + crash_rng.below(70);
                options.faults.crashes.push_back(rule);
            }
            options.recovery.wal_flush_interval = config.wal_flush;
            options.recovery.snapshot_interval = config.snap_every;
            options.recovery.window = config.window;
        }
        options.protocol.batching = config.batch;
        options.protocol.coalesce_acks = config.batch;
        options.protocol.delta = config.delta;
        if (config.bandwidth > 0) {
            options.protocol.bandwidth.enabled = true;
            options.protocol.bandwidth.bytes_per_tick = config.bandwidth;
        }
        options.metrics = &metrics;
        bool match = true;
        try {
            const ReconfigurableRunResult result =
                run_reconfigurable_protocol(manager, scripts, options);
            for (EpochId e = 0; e < result.segments.size(); ++e) {
                const EpochSegmentResult& segment = result.segments[e];
                if (segment.message_stamps.size() != expected[e].size()) {
                    match = false;
                    break;
                }
                for (std::size_t i = 0;
                     match && i < segment.message_stamps.size(); ++i) {
                    match = segment.message_stamps[i] ==
                            expected[e][segment.script_message[i]];
                }
                if (!match) break;
            }
            packets += result.packets;
            wire.bytes_sent += result.protocol.bytes_sent;
            wire.wire_packets += result.protocol.wire_packets;
            wire.batch_packets += result.protocol.batch_packets;
            wire.batch_frames += result.protocol.batch_frames;
            wire.acks_coalesced += result.protocol.acks_coalesced;
            wire.delta_frames += result.protocol.delta_frames;
            wire.full_frames += result.protocol.full_frames;
            wire.delta_resyncs += result.protocol.delta_resyncs;
            wire.bsched_deferrals += result.protocol.bsched_deferrals;
            faults.dropped += result.network_faults.dropped;
            faults.targeted_drops += result.network_faults.targeted_drops;
            faults.duplicated += result.network_faults.duplicated;
            faults.corrupted += result.network_faults.corrupted;
            faults.delayed += result.network_faults.delayed;
        } catch (const SynchronizerStalled& stall) {
            std::fprintf(stderr, "schedule %llu stalled: %s\n",
                         static_cast<unsigned long long>(schedule),
                         stall.what());
            ++stalls;
            continue;
        } catch (const std::exception& error) {
            // A failed invariant (SYNCTS_ENSURE) or any other error ends
            // this schedule only: name it and keep sweeping.
            std::fprintf(stderr, "schedule %llu: %s\n",
                         static_cast<unsigned long long>(schedule),
                         error.what());
            ++errors;
            continue;
        }
        if (!match) {
            std::fprintf(stderr, "schedule %llu: timestamp mismatch\n",
                         static_cast<unsigned long long>(schedule));
            ++mismatches;
        }
        if (!config.quiet && schedule % 200 == 0) {
            std::printf("  ... %llu/%llu schedules clean\n",
                        static_cast<unsigned long long>(
                            schedule - mismatches - stalls - errors),
                        static_cast<unsigned long long>(schedule));
        }
    }

    const std::uint64_t total_messages = config.schedules * script_messages;
    std::printf("injected: %s\n", faults.to_string().c_str());
    std::printf(
        "protocol: retransmits=%llu timeouts=%llu req_duplicates=%llu "
        "ack_duplicates=%llu ack_replays=%llu corrupt_rejects=%llu\n",
        static_cast<unsigned long long>(
            metrics.counter("sync_retransmits").value()),
        static_cast<unsigned long long>(
            metrics.counter("sync_timeouts").value()),
        static_cast<unsigned long long>(
            metrics.counter("sync_req_duplicates").value()),
        static_cast<unsigned long long>(
            metrics.counter("sync_ack_duplicates").value()),
        static_cast<unsigned long long>(
            metrics.counter("sync_ack_replays").value()),
        static_cast<unsigned long long>(
            metrics.counter("sync_frames_corrupt_rejected").value()));
    if (manager.num_epochs() > 1) {
        std::printf(
            "epochs:   transitions=%llu epoch_rejects=%llu nacks_sent=%llu "
            "nack_drops=%llu\n",
            static_cast<unsigned long long>(
                metrics.counter("sync_epoch_transitions").value()),
            static_cast<unsigned long long>(
                metrics.counter("sync_epoch_rejects").value()),
            static_cast<unsigned long long>(
                metrics.counter("sync_nacks_sent").value()),
            static_cast<unsigned long long>(
                metrics.counter("sync_nack_drops").value()));
    }
    if (config.crash > 0) {
        const auto value = [&](const char* name) {
            return static_cast<unsigned long long>(
                metrics.counter(name).value());
        };
        std::printf(
            "recover:  crashes=%llu restarts=%llu replayed=%llu "
            "snapshots=%llu recommits=%llu\n"
            "rejoin:   hellos=%llu hello_acks=%llu ack_replays=%llu "
            "retransmits=%llu parked=%llu down_drops=%llu\n",
            value("recover_crashes"), value("recover_restarts"),
            value("recover_replayed_records"), value("recover_snapshots"),
            value("recover_recommits"), value("recover_hellos"),
            value("recover_hello_acks"), value("recover_window_ack_replays"),
            value("recover_window_retransmits"),
            value("recover_future_buffered"), value("net_down_drops"));
    }
    if (config.batch || config.delta || config.bandwidth > 0) {
        const std::uint64_t frames = wire.delta_frames + wire.full_frames;
        std::printf(
            "wire:     bytes=%llu sent_packets=%llu batch_packets=%llu "
            "coalesced=%llu\n"
            "          delta_frames=%llu/%llu resyncs=%llu deferrals=%llu "
            "bytes/msg=%.1f\n",
            static_cast<unsigned long long>(wire.bytes_sent),
            static_cast<unsigned long long>(wire.wire_packets),
            static_cast<unsigned long long>(wire.batch_packets),
            static_cast<unsigned long long>(wire.acks_coalesced),
            static_cast<unsigned long long>(wire.delta_frames),
            static_cast<unsigned long long>(frames),
            static_cast<unsigned long long>(wire.delta_resyncs),
            static_cast<unsigned long long>(wire.bsched_deferrals),
            total_messages == 0 ? 0.0
                                : static_cast<double>(wire.bytes_sent) /
                                      static_cast<double>(total_messages));
    }
    std::printf(
        "packets:  %llu delivered for %llu messages "
        "(amplification %.3fx over the lossless 2/message)\n",
        static_cast<unsigned long long>(packets),
        static_cast<unsigned long long>(total_messages),
        total_messages == 0
            ? 0.0
            : static_cast<double>(packets) /
                  (2.0 * static_cast<double>(total_messages)));
    if (mismatches == 0 && stalls == 0 && errors == 0) {
        std::printf("PASS: %llu schedules, all timestamps bit-identical\n",
                    static_cast<unsigned long long>(config.schedules));
        return 0;
    }
    std::printf("FAIL: %llu mismatches, %llu stalls, %llu errors\n",
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(stalls),
                static_cast<unsigned long long>(errors));
    return 1;
}
