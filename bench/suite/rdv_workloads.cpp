// The three rendezvous workloads: the REQ/ACK protocol over the simulated
// asynchronous network, closed loop (a process issues its next
// synchronous send only after the previous one commits), N processes
// over one seeded simulator. Round r of a run uses network seed S+r.
//
//   rdv_uniform_classic  grid 16x16, uniform traffic, every protocol knob
//                        off: stamp, full-frame codec, sim scheduling and
//                        glue. Bypasses batch, delta, WAL and topo.
//   rdv_bursty_batched   grid 16x16, 32 alternating messages per edge,
//                        batching + coalescing + delta on: the traffic the
//                        batched wire path was built for.
//   rdv_hostile          grid 8x8 over 4 epochs, every knob on including
//                        bandwidth shaping, lossy network, 2 crashes per
//                        round, recovery on: recover, retransmission, topo,
//                        region retirement, and the delta codec on
//                        delta-unfriendly uniform traffic.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/reconfig_runtime.hpp"
#include "runtime/synchronizer.hpp"
#include "topo/reconfig.hpp"
#include "topo/topology_manager.hpp"
#include "trace/generator.hpp"

namespace syncts::bench {

namespace {

/// Nominal per-packet transport overhead (IPv4 20 + UDP 8), the
/// convention bench_protocol uses for bytes per rendezvous.
constexpr double kPacketOverheadBytes = 28.0;

struct RdvSpec {
    std::size_t grid_side = 16;
    bool bursty = false;
    std::size_t messages_per_epoch = 15'360;  ///< uniform traffic
    std::size_t burst_per_edge = 32;          ///< bursty traffic
    std::size_t reconfig_ops = 0;             ///< epochs - 1
    bool hostile = false;                     ///< faults, crashes, recovery
    ProtocolOptions protocol;
};

RdvSpec spec_for(const std::string& workload) {
    RdvSpec spec;
    if (workload == "rdv_bursty_batched") {
        spec.bursty = true;
        spec.protocol.batching = true;
        spec.protocol.coalesce_acks = true;
        spec.protocol.delta = true;
    } else if (workload == "rdv_hostile") {
        spec.grid_side = 8;
        spec.messages_per_epoch = 3'000;
        spec.reconfig_ops = 3;
        spec.hostile = true;
        spec.protocol.batching = true;
        spec.protocol.coalesce_acks = true;
        spec.protocol.delta = true;
        spec.protocol.bandwidth.enabled = true;
        spec.protocol.bandwidth.bytes_per_tick = 4;
        spec.protocol.bandwidth.burst = 128;
        spec.protocol.bandwidth.quantum = 64;
    }
    return spec;
}

/// One input set: the epochs with their decompositions, one script per
/// epoch, and a hash of every scripted message's Fig. 5 oracle stamp.
struct RdvVariant {
    std::optional<TopologyManager> manager;  ///< multi-epoch runs only
    std::vector<std::shared_ptr<const EdgeDecomposition>> decompositions;
    std::vector<SyncComputation> scripts;
    std::vector<std::vector<std::uint64_t>> oracle;  ///< [epoch][message]
    std::size_t messages = 0;
    std::size_t processes = 0;  ///< engine-table size (all epochs)
};

/// What set-up builds: the run's input sets (see kVariants).
struct RdvSetup {
    std::vector<RdvVariant> variants;

    const RdvVariant& for_round(std::uint64_t r) const {
        return variants[r % variants.size()];
    }
};

SyncComputation bursty_script(const Graph& topology, std::size_t burst) {
    SyncComputation script(topology);
    for (const Edge& edge : topology.edges()) {
        for (std::size_t k = 0; k < burst; ++k) {
            if (k % 2 == 0) {
                script.add_message(edge.u, edge.v);
            } else {
                script.add_message(edge.v, edge.u);
            }
        }
    }
    return script;
}

void add_epoch(RdvVariant& variant, const RdvSpec& spec,
               std::shared_ptr<const EdgeDecomposition> decomposition, Rng& rng) {
    const Graph& graph = decomposition->graph();
    if (spec.bursty) {
        variant.scripts.push_back(bursty_script(graph, spec.burst_per_edge));
    } else {
        WorkloadOptions workload;
        workload.num_messages = spec.messages_per_epoch;
        variant.scripts.push_back(random_computation(graph, workload, rng));
    }
    variant.oracle.push_back(oracle_hashes(decomposition, variant.scripts.back()));
    variant.messages += variant.scripts.back().num_messages();
    variant.processes = std::max(variant.processes, graph.num_vertices());
    variant.decompositions.push_back(std::move(decomposition));
}

RdvSetup build_setup(const RdvSpec& spec, std::uint64_t seed) {
    RdvSetup setup;
    const Graph grid = topology::grid(spec.grid_side, spec.grid_side);
    // Bursty traffic is fully determined by the topology: one variant.
    const std::size_t variants = spec.bursty ? 1 : kVariants;
    Rng rng(seed ^ 0x5C417);
    setup.variants.resize(variants);
    if (spec.reconfig_ops == 0) {
        const auto decomposition =
            std::make_shared<const EdgeDecomposition>(default_decomposition(grid));
        for (RdvVariant& variant : setup.variants) {
            add_epoch(variant, spec, decomposition, rng);
        }
        return setup;
    }
    for (RdvVariant& variant : setup.variants) {
        variant.manager.emplace(Graph(grid));
        for (const ReconfigOp& op :
             random_reconfig_schedule(grid, spec.reconfig_ops, rng())) {
            apply(*variant.manager, op);
        }
        for (EpochId e = 0; e < variant.manager->num_epochs(); ++e) {
            add_epoch(variant, spec, variant.manager->decomposition(e), rng);
        }
    }
    return setup;
}

SynchronizerOptions options_for(const RdvSpec& spec, const RdvVariant& variant,
                                std::uint64_t round_seed) {
    SynchronizerOptions options;
    options.seed = round_seed;
    options.latency_lo = 1;
    options.latency_hi = 4;
    options.protocol = spec.protocol;
    if (spec.hostile) {
        options.faults.seed = round_seed * 0x9E3779B9ull + 0xFA17;
        options.faults.drop_probability = 0.04;
        options.faults.duplicate_probability = 0.04;
        options.faults.corrupt_probability = 0.01;
        options.faults.delay_probability = 0.2;
        options.faults.max_extra_delay = 15;
        options.recovery.enabled = true;
        // The rejoin replay watchdog re-HELLOs at a fixed base RTO with no
        // backoff; under 4 B/tick shaping plus 4% loss the default budget
        // of 64 runs out about once per 1,500 rounds (SynchronizerStalled:
        // "exhausted its replay requests"). The workload measures cost,
        // not that limit, so it grants a larger budget.
        options.max_retransmits = 256;
        Rng rng(round_seed ^ 0xC2A5C2A5ull);
        // A process takes about 2 * messages / processes protocol steps
        // per run; crash points are drawn inside that range.
        const std::uint64_t max_step =
            1 + 2 * variant.messages / variant.processes;
        for (int i = 0; i < 2; ++i) {
            options.faults.crashes.push_back(CrashRule{
                static_cast<ProcessId>(rng.below(variant.processes)),
                1 + rng.below(max_step), 10 + rng.below(60)});
        }
    }
    return options;
}

/// One protocol run, normalized to per-epoch segments.
struct RunResult {
    std::vector<EpochSegmentResult> segments;
    std::uint64_t virtual_duration = 0;
    ProtocolStats protocol;
    std::uint64_t commits = 0;
    bool threw = false;
    std::string error;
    double elapsed_ns = 0.0;  ///< wall time of the library call alone
};

RunResult run_once(const RdvVariant& variant, const SynchronizerOptions& options) {
    RunResult out;
    try {
        if (!variant.manager) {
            const std::uint64_t start = now_ns();
            SynchronizerResult r = run_rendezvous_protocol(
                variant.decompositions.front(), variant.scripts.front(), options);
            out.elapsed_ns = static_cast<double>(now_ns() - start);
            out.virtual_duration = r.virtual_duration;
            out.protocol = r.protocol;
            out.segments.push_back(EpochSegmentResult{
                .epoch = 0,
                .computation = std::move(r.computation),
                .message_stamps = std::move(r.message_stamps),
                .script_message = std::move(r.script_message)});
        } else {
            const std::uint64_t start = now_ns();
            ReconfigurableRunResult r = run_reconfigurable_protocol(
                *variant.manager, variant.scripts, options);
            out.elapsed_ns = static_cast<double>(now_ns() - start);
            out.virtual_duration = r.virtual_duration;
            out.protocol = r.protocol;
            out.segments = std::move(r.segments);
        }
    } catch (const std::exception& e) {
        // SynchronizerStalled, NetworkDeadlock or a failed invariant: the
        // library returns no partial result, so the whole round counts as
        // failed and the run goes on.
        out.threw = true;
        out.error = e.what();
    }
    for (const EpochSegmentResult& s : out.segments) {
        out.commits += s.message_stamps.size();
    }
    return out;
}

/// Scripted messages of the round that did not commit with exactly the
/// Fig. 5 oracle's stamp (compared per script message: commit order may
/// differ from script order).
std::uint64_t failed_messages(const RdvVariant& variant, const RunResult& run) {
    if (run.threw || run.segments.size() != variant.scripts.size()) {
        return variant.messages;
    }
    std::uint64_t good = 0;
    for (std::size_t e = 0; e < run.segments.size(); ++e) {
        const EpochSegmentResult& segment = run.segments[e];
        const std::vector<std::uint64_t>& oracle = variant.oracle[e];
        std::vector<bool> seen(oracle.size(), false);
        const std::size_t n =
            std::min(segment.message_stamps.size(), segment.script_message.size());
        for (std::size_t i = 0; i < n; ++i) {
            const MessageId mid = segment.script_message[i];
            if (mid >= oracle.size() || seen[mid]) continue;
            seen[mid] = true;
            if (stamp_hash(segment.message_stamps[i].components()) == oracle[mid]) ++good;
        }
    }
    return variant.messages - good;
}

bool same_outcome(const RunResult& a, const RunResult& b) {
    if (a.threw || b.threw || a.virtual_duration != b.virtual_duration ||
        a.protocol.bytes_sent != b.protocol.bytes_sent ||
        a.segments.size() != b.segments.size()) {
        return false;
    }
    for (std::size_t e = 0; e < a.segments.size(); ++e) {
        if (a.segments[e].message_stamps != b.segments[e].message_stamps ||
            a.segments[e].script_message != b.segments[e].script_message) {
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// Timed pass: end-to-end numbers with observability off. One operation is
// one committed rendezvous.

int timed_pass(const RunConfig& config, const RdvSpec& spec) {
    Outcome outcome;
    const RdvSetup setup = build_setup(spec, config.seed);
    outcome.detail.count("variants", setup.variants.size());
    const auto repeat_setup = [&] { (void)build_setup(spec, config.seed); };
    return run_timed_pass(config, outcome, repeat_setup, [&](std::uint64_t r) {
        const RdvVariant& variant = setup.for_round(r);
        const RunResult run = run_once(variant, options_for(spec, variant, config.seed + r));
        outcome.attempted += variant.messages;
        outcome.failed += failed_messages(variant, run);
        if (run.threw || run.commits == 0) {
            std::fprintf(stderr, "round %llu failed: %s\n",
                         static_cast<unsigned long long>(r), run.error.c_str());
            return -1.0;
        }
        return run.elapsed_ns / static_cast<double>(run.commits);
    });
}

// ---------------------------------------------------------------------------
// Traced pass: per-layer numbers.

/// First occurrence of each of the four protocol timestamps of one
/// rendezvous (T1 REQ sent, T2 REQ received, T3 committed, T4 ACK
/// accepted), keyed by (sender, receiver, sequence).
struct RendezvousTimes {
    std::uint64_t t[4] = {0, 0, 0, 0};
    bool seen[4] = {false, false, false, false};
};

struct LatencySamples {
    std::vector<std::uint64_t> latency, wire, hold, downtime;
};

void collect_latencies(const obs::TraceSink& sink, LatencySamples& out) {
    std::unordered_map<std::uint64_t, RendezvousTimes> by_key;
    std::unordered_map<std::uint32_t, std::uint64_t> crashed_at;
    const auto key = [](std::uint64_t sender, std::uint64_t receiver,
                        std::uint64_t sequence) {
        return sender << 48 | receiver << 32 | (sequence & 0xFFFFFFFFull);
    };
    const auto note = [&](std::uint64_t k, int slot, std::uint64_t time) {
        RendezvousTimes& times = by_key[k];
        if (!times.seen[slot]) {
            times.seen[slot] = true;
            times.t[slot] = time;
        }
    };
    // A crashed process is down until its next commit or accepted ACK.
    const auto progress = [&](const obs::TraceEvent& ev) {
        const auto crash = crashed_at.find(ev.process);
        if (crash == crashed_at.end()) return;
        out.downtime.push_back(ev.virtual_time - crash->second);
        crashed_at.erase(crash);
    };
    sink.for_each([&](const obs::TraceEvent& ev) {
        using K = obs::TraceEventKind;
        switch (ev.kind) {
            case K::send:
                note(key(ev.process, ev.peer, ev.arg_a), 0, ev.virtual_time);
                break;
            case K::receive:
                note(key(ev.peer, ev.process, ev.arg_a), 1, ev.virtual_time);
                break;
            case K::commit:
                note(key(ev.peer, ev.process, ev.arg_a), 2, ev.virtual_time);
                progress(ev);
                break;
            case K::ack:
                note(key(ev.process, ev.peer, ev.arg_a), 3, ev.virtual_time);
                progress(ev);
                break;
            case K::crash:
                crashed_at[ev.process] = ev.virtual_time;
                break;
            default:
                break;
        }
    });
    for (const auto& [k, times] : by_key) {
        if (times.seen[0] && times.seen[3] && times.t[3] >= times.t[0]) {
            out.latency.push_back(times.t[3] - times.t[0]);
        }
        if (times.seen[0] && times.seen[1] && times.seen[2] && times.seen[3] &&
            times.t[0] <= times.t[1] && times.t[1] <= times.t[2] &&
            times.t[2] <= times.t[3]) {
            out.wire.push_back((times.t[1] - times.t[0]) + (times.t[3] - times.t[2]));
            out.hold.push_back(times.t[2] - times.t[1]);
        }
    }
}

/// Counters summed over the traced seeds.
struct CounterTotals {
    std::uint64_t commits = 0, retransmits = 0, acks_coalesced = 0,
                  bsched_deferrals = 0, bsched_admits = 0, wal_appends = 0,
                  snapshots = 0, replayed = 0, crashes = 0, restarts = 0,
                  slab_acquires = 0, slab_reuses = 0;
    ProtocolStats protocol;
    std::vector<double> region_peak_bytes;

    void absorb(const obs::MetricsRegistry& registry, const RunResult& run) {
        const obs::MetricsSnapshot snap = registry.snapshot();
        const auto counter = [&](const char* name) -> std::uint64_t {
            const auto it = snap.counters.find(name);
            return it == snap.counters.end() ? 0 : it->second;
        };
        const auto gauge = [&](const char* name) -> double {
            const auto it = snap.gauges.find(name);
            return it == snap.gauges.end() ? 0.0 : static_cast<double>(it->second);
        };
        commits += run.commits;
        retransmits += counter("sync_retransmits");
        acks_coalesced += counter("sync_acks_coalesced");
        bsched_deferrals += counter("bsched_deferrals");
        bsched_admits += counter("bsched_admitted") + counter("bsched_refused");
        wal_appends += counter("recover_wal_appends");
        snapshots += counter("recover_snapshots");
        replayed += counter("recover_replayed_records");
        crashes += counter("recover_crashes");
        restarts += counter("recover_restarts");
        slab_acquires += counter("slabpool_acquires");
        slab_reuses += counter("slabpool_reuses");
        region_peak_bytes.push_back(gauge("slabpool_peak_bytes"));
        protocol.bytes_sent += run.protocol.bytes_sent;
        protocol.wire_packets += run.protocol.wire_packets;
        protocol.batch_packets += run.protocol.batch_packets;
        protocol.batch_frames += run.protocol.batch_frames;
        protocol.delta_frames += run.protocol.delta_frames;
        protocol.full_frames += run.protocol.full_frames;
    }

    double per_rdv(std::uint64_t v) const {
        return static_cast<double>(v) /
               static_cast<double>(std::max<std::uint64_t>(commits, 1));
    }
};

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

int traced_pass(const RunConfig& config, const RdvSpec& spec) {
    Outcome outcome;
    const std::uint64_t pass_start = now_ns();
    const RdvSetup setup = build_setup(spec, config.seed);
    {
        const RdvVariant& variant = setup.for_round(0);
        const RunResult warm = run_once(variant, options_for(spec, variant, config.seed));
        outcome.attempted += variant.messages;
        outcome.failed += failed_messages(variant, warm);
    }

    const std::size_t seeds = config.smoke ? 2 : kTracedSeeds;
    std::vector<double> ref, plain_ns, tax, allocs, makespan;
    LatencySamples samples;
    CounterTotals totals;
    std::optional<RunResult> first;
    const RdvVariant* first_variant = nullptr;
    bool fidelity = true;
    bool no_drops = true;
    for (std::size_t i = 1; i <= seeds; ++i) {
        const RdvVariant& variant = setup.for_round(i);
        const SynchronizerOptions options = options_for(spec, variant, config.seed + i);
        ref.push_back(time_reference_kernel());
        const std::uint64_t allocs_before = allocations();
        RunResult plain = run_once(variant, options);
        const std::uint64_t plain_allocs = allocations() - allocs_before;

        obs::MetricsRegistry registry;
        obs::TraceSink sink(40 * variant.messages + 65'536);
        obs::FlightRecorder recorder(4096, 64);
        SynchronizerOptions traced_options = options;
        traced_options.metrics = &registry;
        traced_options.trace = &sink;
        traced_options.recorder = &recorder;
        const RunResult traced = run_once(variant, traced_options);

        outcome.attempted += 2 * variant.messages;
        outcome.failed += failed_messages(variant, plain) + failed_messages(variant, traced);
        fidelity = fidelity && same_outcome(plain, traced);
        no_drops = no_drops && sink.dropped() == 0;
        if (plain.threw || traced.threw || plain.commits == 0) continue;

        plain_ns.push_back(plain.elapsed_ns / static_cast<double>(plain.commits));
        tax.push_back(traced.elapsed_ns / plain.elapsed_ns);
        allocs.push_back(static_cast<double>(plain_allocs) /
                         static_cast<double>(plain.commits));
        makespan.push_back(static_cast<double>(plain.virtual_duration));
        collect_latencies(sink, samples);
        totals.absorb(registry, traced);
        if (!first) {
            first = std::move(plain);
            first_variant = &variant;
        }
    }
    if (!first) {
        outcome.checks_ok = false;
        outcome.metrics = layer_metrics({});
        return emit(config, outcome);
    }

    // Self times of every layer on the first traced run's data, in the
    // rest of the pass's budget.
    const RdvVariant& variant = *first_variant;
    const ProtocolStats& p = totals.protocol;
    const std::uint64_t frames_sent = p.delta_frames + p.full_frames;
    LayerInputs inputs;
    for (const EpochSegmentResult& segment : first->segments) {
        inputs.segments.push_back(DataSegment{segment.epoch,
                                              variant.decompositions.at(segment.epoch),
                                              &segment.computation,
                                              segment.script_message});
    }
    inputs.processes = variant.processes;
    inputs.delta = spec.protocol.delta;
    inputs.batch_entries = static_cast<std::size_t>(
        std::max(2.0, std::round(ratio(p.batch_frames, p.batch_packets))));
    if (spec.protocol.bandwidth.enabled) inputs.bandwidth = spec.protocol.bandwidth;
    inputs.bandwidth.enabled = true;
    inputs.recovery = options_for(spec, variant, config.seed + 1).recovery;
    inputs.seed = config.seed;
    const double elapsed_s = static_cast<double>(now_ns() - pass_start) / 1e9;
    const LayerTimes self =
        time_layers(inputs, config.smoke ? 0.0 : std::max(3.0, config.seconds - elapsed_s),
                    config.smoke ? 1 : 3);
    std::vector<std::uint64_t> realized;
    for (const EpochSegmentResult& segment : first->segments) {
        for (const VectorTimestamp& stamp : segment.message_stamps) {
            realized.push_back(stamp_hash(stamp.components()));
        }
    }
    const bool stamps_match = realized == self.stamp_hashes;

    // Everything in ns normalized by this pass's median reference run.
    const double scale = kRefNominalNs / median(ref);
    const double total_ns = median(plain_ns) * scale;
    const Part parts[] = {
        {"clocks.stamp", self.stamp_ns * scale, 1.0},
        {"wire.encode", self.encode_ns * scale, totals.per_rdv(frames_sent)},
        {"wire.decode", self.decode_ns * scale, totals.per_rdv(frames_sent)},
        {"wire.batch", self.batch_ns * scale, totals.per_rdv(p.batch_packets)},
        {"runtime.sim", self.sim_ns * scale, totals.per_rdv(p.wire_packets)},
        {"runtime.bsched_admit", self.admit_ns * scale,
         totals.per_rdv(totals.bsched_admits)},
        {"recover.wal_append", self.wal_ns * scale, totals.per_rdv(totals.wal_appends)},
        {"recover.snapshot", self.snapshot_ns * scale, totals.per_rdv(totals.snapshots)},
    };
    const Breakdown split = breakdown(total_ns, parts);

    LayerValues v = layer_values(self, scale);
    v["clocks.width"] = static_cast<double>(variant.decompositions.front()->size());
    v["wire.frames_per_rdv"] = totals.per_rdv(frames_sent);
    v["wire.packets_per_rdv"] = totals.per_rdv(p.wire_packets);
    v["wire.batch_factor"] = ratio(frames_sent, p.wire_packets);
    v["wire.delta_share"] = ratio(p.delta_frames, frames_sent);
    v["wire.payload_bytes_per_frame"] = ratio(p.bytes_sent, frames_sent);
    v["wire.bytes_per_rdv"] =
        totals.per_rdv(p.bytes_sent) +
        kPacketOverheadBytes * totals.per_rdv(p.wire_packets);
    v["obs.total_ns"] = total_ns;
    v["obs.residual_ns"] = split.residual_ns;
    v["runtime.allocs_per_rdv"] = median(allocs);
    v["runtime.makespan_ticks"] = median(makespan);
    v["runtime.rdv_latency_ticks_p50"] = percentile(samples.latency, 50);
    v["runtime.rdv_latency_ticks_p99"] = percentile(samples.latency, 99);
    v["runtime.wire_ticks_p50"] = percentile(samples.wire, 50);
    v["runtime.wire_ticks_p99"] = percentile(samples.wire, 99);
    v["runtime.hold_ticks_p50"] = percentile(samples.hold, 50);
    v["runtime.hold_ticks_p99"] = percentile(samples.hold, 99);
    v["runtime.retransmits_per_rdv"] = totals.per_rdv(totals.retransmits);
    v["runtime.acks_coalesced_per_rdv"] = totals.per_rdv(totals.acks_coalesced);
    v["runtime.bsched_deferrals_per_rdv"] = totals.per_rdv(totals.bsched_deferrals);
    v["recover.wal_appends_per_rdv"] = totals.per_rdv(totals.wal_appends);
    v["recover.snapshots_per_rdv"] = totals.per_rdv(totals.snapshots);
    v["recover.replayed_records_per_crash"] = ratio(totals.replayed, totals.crashes);
    v["recover.restarts"] = ratio(totals.restarts, seeds);
    v["recover.downtime_ticks_p50"] = percentile(samples.downtime, 50);
    v["topo.epochs"] = static_cast<double>(variant.decompositions.size());
    v["common.region_peak_bytes"] = median(totals.region_peak_bytes);
    v["common.slab_reuse_share"] = ratio(totals.slab_reuses, totals.slab_acquires);
    v["obs.tax_pct"] = (median(tax) - 1.0) * 100.0;

    outcome.ref_median_ns = median(ref);
    outcome.checks_ok = fidelity && no_drops && split.sums && stamps_match;
    outcome.metrics = layer_metrics(v);
    Json checks;
    checks.flag("traced_matches_timed", fidelity)
        .flag("trace_dropped_zero", no_drops)
        .flag("breakdown_sums_to_total", split.sums)
        .flag("rederived_stamps_match", stamps_match);
    outcome.detail.count("traced_seeds", seeds)
        .count("rendezvous_sampled", samples.latency.size())
        .count("crashes_sampled", samples.downtime.size())
        .raw("breakdown", split.json)
        .raw("checks", checks.text());
    return emit(config, outcome);
}

}  // namespace

int run_rdv_workload(const RunConfig& config) {
    const RdvSpec spec = spec_for(config.workload);
    return config.trace ? traced_pass(config, spec) : timed_pass(config, spec);
}

}  // namespace syncts::bench
