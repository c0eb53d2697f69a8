#include "runtime/reconfig_runtime.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "clocks/engine_stock.hpp"
#include "clocks/wire.hpp"
#include "common/check.hpp"
#include "common/region.hpp"
#include "common/timestamp_arena.hpp"
#include "common/ts_kernels.hpp"
#include "obs/flight_recorder.hpp"
#include "recover/frame_window.hpp"
#include "recover/recovery_manager.hpp"
#include "runtime/async_sim.hpp"
#include "runtime/bandwidth.hpp"

namespace syncts {

namespace {

constexpr std::uint32_t kReq = 0;
constexpr std::uint32_t kAck = 1;
constexpr std::uint32_t kNack = 2;      ///< epoch-stale REQ rejected
constexpr std::uint32_t kHello = 3;     ///< rejoin handshake (restarted peer)
constexpr std::uint32_t kHelloAck = 4;  ///< rejoin handshake acknowledged
constexpr std::uint32_t kBatch = 5;     ///< v4 container of REQ/ACK frames

/// One side's memory of the last timestamp that crossed a directed
/// channel — the base both ends of the delta codec agree on
/// (docs/PROTOCOL.md). Volatile by design: a crash clears the channel
/// maps and with them every shadow, and the epoch tag plus the exact
/// sequence-continuity check make a stale shadow unusable rather than
/// wrong — any break (gap, retransmit rewind, barrier, rejoin) simply
/// forces the next frame back to a full vector.
struct ShadowVector {
    std::vector<std::uint64_t> stamp;
    std::uint64_t sequence = 0;
    EpochId epoch = 0;
    bool valid = false;
};

/// Sender-side state of the one in-flight rendezvous (a process's script
/// is sequential, so it blocks on at most one send at a time).
struct Outstanding {
    ProcessId receiver = 0;
    MessageId mid = 0;
    std::uint64_t sequence = 0;
    std::vector<std::uint8_t> frame;  // encoded REQ, byte-identical resends
    std::uint32_t retransmits = 0;
    std::uint64_t rto = 0;              // current backoff interval
    std::uint64_t first_send_time = 0;  // for the rendezvous-ticks histogram
};

/// Plain tallies kept unconditionally; they back the registry counters.
/// These never count one event twice: a cached-ACK replay is an
/// ack_replay only, not also a duplicate drop.
struct Tally {
    std::uint64_t req_sent = 0;
    std::uint64_t commits = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t req_duplicates = 0;  ///< dup/stale REQs dropped, no reply
    std::uint64_t ack_duplicates = 0;  ///< dup/stale ACKs dropped
    std::uint64_t ack_replays = 0;     ///< cached ACK re-sent
    std::uint64_t corrupt_rejects = 0;
    std::uint64_t epoch_rejects = 0;      ///< frames from a stale epoch
    std::uint64_t nacks_sent = 0;         ///< NACKs answering stale REQs
    std::uint64_t nack_drops = 0;         ///< NACKs with no matching send
    std::uint64_t nack_retransmits = 0;   ///< sends re-encoded after a NACK
    // Crash-recovery tallies (docs/RECOVERY.md), published as recover_*.
    std::uint64_t restarts = 0;
    std::uint64_t replayed_records = 0;   ///< WAL records re-applied
    std::uint64_t snapshots = 0;
    std::uint64_t recommits = 0;          ///< commits re-executed after rewind
    std::uint64_t window_ack_replays = 0; ///< old ACKs served from the window
    std::uint64_t window_retransmits = 0; ///< REQs replayed after a HELLO
    std::uint64_t hellos = 0;             ///< rejoin HELLOs sent
    std::uint64_t hello_acks = 0;         ///< rejoin HELLO_ACKs sent
    std::uint64_t future_buffered = 0;    ///< out-of-order frames parked
    std::uint64_t fast_forwards = 0;      ///< barriers caught up after restart
    // Wire-path tallies (docs/PROTOCOL.md), published as sync_batch_*,
    // wire_delta_*, and bsched_*; bytes/packets back ProtocolStats.
    std::uint64_t bytes_sent = 0;         ///< payload bytes handed to the net
    std::uint64_t wire_packets = 0;       ///< packets handed to the net
    std::uint64_t batch_packets = 0;      ///< v4 containers flushed
    std::uint64_t batch_frames = 0;       ///< frames carried inside containers
    std::uint64_t acks_coalesced = 0;     ///< queued ACKs superseded pre-wire
    std::uint64_t delta_frames = 0;       ///< v3 frames sent
    std::uint64_t full_frames = 0;        ///< full-vector REQ/ACK frames sent
    std::uint64_t delta_resyncs = 0;      ///< delta frames dropped, shadow miss
    std::uint64_t bsched_deferrals = 0;   ///< flushes deferred past deadline
};

/// A fresh REQ waiting for the program to reach the matching receive.
/// The stamp buffer comes from the run-wide free list and goes back to it
/// at commit, so buffered-REQ storage is bounded by the most REQs ever
/// pending at once.
struct PendingReq {
    std::uint64_t sequence = 0;
    std::uint64_t message = 0;
    std::vector<std::uint64_t> stamp;
};

/// Receiver-side state of one directed channel (peer -> self). Survives
/// epoch transitions: sequences are continuous across the barrier.
struct InChannel {
    /// Sequence of the last committed rendezvous on this channel; fresh
    /// REQs must carry last_committed + 1 (sequences are 1-based).
    std::uint64_t last_committed = 0;
    /// Fresh REQ waiting for the program to reach the matching receive.
    std::optional<PendingReq> pending;
    /// Raw REQ frames ahead of the commit point, keyed by sequence. Only
    /// a rewound channel sees these: HELLO-driven window replays go out
    /// as a burst that the network can reorder (and may span epoch
    /// barriers the rejoiner has not crossed yet), while the sender
    /// re-times only the one frame it still considers outstanding —
    /// dropping a reordered middle frame would lose it forever. Parked
    /// frames promote into `pending` as the commit point (and, for
    /// later-epoch frames, the engine's own epoch) reaches them. Empty
    /// in crash-free runs.
    std::map<std::uint64_t, std::vector<std::uint8_t>> future;
    /// Encoded ACKs of recent committed rendezvous, replayed when a
    /// duplicate REQ reveals the ACK was lost, or when a restarted
    /// sender rewinds and re-executes an already-committed send. The
    /// newest entry is always the last commit, so the classic lost-ACK
    /// replay never misses; older entries serve crash rewinds.
    FrameWindow ack_window;
    /// Highest sequence the peer reports having assigned on this
    /// channel (from its HELLO_ACK). While last_committed lags it, the
    /// missing frames can only arrive by window replay — the peer
    /// re-times nothing it considers complete — so a watchdog re-HELLOs
    /// until the gap closes.
    std::uint64_t replay_target = 0;
    /// Watchdog rounds spent chasing replay_target without a commit
    /// landing (bounded by max_retransmits; commits reset it).
    std::uint32_t replay_attempts = 0;
    /// One watchdog chain per channel at a time.
    bool watchdog_armed = false;
    /// Delta shadows (extended wire path only): the last REQ stamp
    /// decoded off this channel and the last ACK stamp encoded onto its
    /// reverse direction. Trailing members so the aggregate
    /// initializers elsewhere keep value-initializing them (= invalid).
    ShadowVector rx_shadow{};
    ShadowVector ack_sent_shadow{};
};

/// Sender-side state of one directed channel (self -> peer).
struct OutChannel {
    /// Last sequence assigned on this channel (the next send takes +1).
    std::uint64_t next_sequence = 0;
    /// Original encoded REQ frames of recent sends, replayed verbatim
    /// when a restarted receiver's HELLO reveals it lost them. Filled only
    /// with recovery armed: rejoin replay and snapshots are its readers.
    FrameWindow req_window;
    /// Delta shadows (extended wire path only): the last REQ stamp sent
    /// on this channel and the last ACK stamp decoded off its reverse
    /// direction. Trailing members — see InChannel.
    ShadowVector req_shadow{};
    ShadowVector ack_rx_shadow{};
};

/// Per-process protocol engine: walks the process's script for its
/// current epoch, issuing REQs for sends and consuming buffered REQs for
/// receives. Channel state persists across epochs; clock and scratch are
/// rebuilt at each barrier. `epoch` is the engine's own epoch — equal to
/// the global barrier epoch except while the process is catching up
/// after a crash.
struct Engine {
    ProcessId self = 0;
    EpochId epoch = 0;
    std::vector<ProcessEvent> script;  // current epoch's message events
    std::size_t cursor = 0;
    std::unique_ptr<OnlineProcessClock> clock;
    std::optional<Outstanding> outstanding;
    /// The last completed send's frame buffer, reused by the next send.
    std::vector<std::uint8_t> spare_frame;
    /// Outgoing-channel state by receiver.
    std::unordered_map<ProcessId, OutChannel> out;
    /// Incoming-channel state by sender.
    std::unordered_map<ProcessId, InChannel> in;
    /// Width-d scratch for the span protocol hooks: decoded inbound
    /// stamp, outbound acknowledgement, committed timestamp. Resized at
    /// each epoch barrier so the per-packet path allocates nothing.
    std::vector<std::uint64_t> rx_stamp;
    std::vector<std::uint64_t> ack_scratch;
    std::vector<std::uint64_t> stamp_scratch;
    /// Encoded-frame scratch (ACK sent at commit, re-encoded REQ for the
    /// WAL record).
    std::vector<std::uint8_t> ack_bytes;
    std::vector<std::uint8_t> req_bytes;

    // --- crash-recovery state (docs/RECOVERY.md) ---
    /// Lifetime protocol steps (commits + accepted ACKs); rewinds with
    /// the durable state and re-advances through re-executed steps.
    std::uint64_t steps = 0;
    std::uint64_t steps_since_snapshot = 0;
    /// Next unfired crash rule for this process (harness state: survives
    /// the crash it triggers).
    std::size_t next_crash = 0;
    /// Bumped at every crash; timers capture it and no-op on mismatch,
    /// so a restarted incarnation never executes a dead one's timers.
    std::uint64_t incarnation = 0;
    bool down = false;
    bool rejoining = false;
    /// Peers whose HELLO_ACK the rejoin handshake still waits for.
    std::vector<ProcessId> awaiting_hello;
    /// Handshake rounds attempted; bounded by max_retransmits.
    std::uint32_t hello_attempts = 0;
};

/// A process's stable storage: the latest encoded snapshot plus the WAL
/// suffix behind it. Crashes lose only the WAL's unflushed tail.
struct DurableStore {
    std::vector<std::uint8_t> snapshot;
    Wal wal;
};

/// One per-destination TX queue of the extended wire path: the frames a
/// process has queued toward one peer, the earliest deadline any of
/// them carries, and the queue's deficit-round-robin service credit
/// with the bandwidth scheduler. The BatchFrame doubles as the queue
/// storage — supersede() retires coalesced ACKs in place.
struct TxQueue {
    explicit TxQueue(SlabPool* pool) : batch(pool) {}
    BatchFrame batch;
    std::uint64_t deadline = 0;  ///< meaningful only while !batch.empty()
    std::uint64_t deficit = 0;   ///< DRR credit accrued over refusals
};

/// A process's TX state: queues by destination plus the
/// deficit-round-robin ring (insertion order, rotated one slot per
/// flush round so no destination is structurally first).
struct TxProc {
    std::unordered_map<ProcessId, TxQueue> queues;
    std::vector<ProcessId> ring;
    std::size_t cursor = 0;
};

/// Per-epoch accumulation: the realized computation, the committed
/// stamps (slot = realized-message index, held by the epoch's region),
/// and the script-id mapping. Created lazily at the epoch's first
/// commit and destroyed when the stability frontier passes the epoch —
/// the stamps are materialized into the result and the region's slab
/// returns to the pool wholesale (docs/MEMORY.md).
struct SegmentState {
    SyncComputation computation;
    /// The epoch's region arena, owned by the run's RegionStore; cached
    /// here so the commit hot path skips the epoch → region lookup.
    TimestampArena* arena = nullptr;
    std::vector<TsHandle> handle_by_script;
    std::vector<MessageId> script_message;

    SegmentState(const Graph& graph, std::size_t messages)
        : computation(graph), handle_by_script(messages, kNoTimestamp) {}
};

}  // namespace

ReconfigurableRunResult run_reconfigurable_protocol(
    const TopologyManager& topology, std::span<const SyncComputation> scripts,
    const SynchronizerOptions& options) {
    const std::size_t num_epochs = topology.num_epochs();
    SYNCTS_REQUIRE(scripts.size() == num_epochs,
                   "need exactly one script per topology epoch");
    SYNCTS_REQUIRE(options.max_retransmits > 0,
                   "max_retransmits must be positive");
    SYNCTS_REQUIRE(options.max_backoff_exponent <= 32,
                   "max_backoff_exponent out of range");
    const std::size_t n_max = topology.max_num_processes();
    for (EpochId e = 0; e < num_epochs; ++e) {
        const Graph& graph = topology.epoch(e).graph();
        SYNCTS_REQUIRE(scripts[e].num_processes() == graph.num_vertices(),
                       "script and epoch disagree on process count");
        for (const SyncMessage& m : scripts[e].messages()) {
            SYNCTS_REQUIRE(graph.has_edge(m.sender, m.receiver),
                           "script uses a channel its epoch does not have");
        }
    }

    // The crash-recovery layer is armed by crash rules or explicitly.
    const bool recovery_active =
        options.recovery.enabled || !options.faults.crashes.empty();
    SYNCTS_REQUIRE(options.recovery.wal_flush_interval >= 1,
                   "wal_flush_interval must be >= 1");
    SYNCTS_REQUIRE(options.recovery.snapshot_interval >= 1,
                   "snapshot_interval must be >= 1");
    if (recovery_active) {
        // A restarted peer rewinds at most one flush interval of
        // rendezvous per channel, so this bound is what guarantees every
        // rejoin replay hits the window (docs/RECOVERY.md).
        SYNCTS_REQUIRE(
            options.recovery.window >= options.recovery.wal_flush_interval,
            "the frame window must be at least as deep as the WAL flush "
            "interval");
    }
    for (const CrashRule& rule : options.faults.crashes) {
        SYNCTS_REQUIRE(rule.process < n_max,
                       "crash rule names an unknown process");
    }
    std::vector<std::vector<CrashRule>> crash_rules(n_max);
    for (const CrashRule& rule : options.faults.crashes) {
        crash_rules[rule.process].push_back(rule);
    }
    for (std::vector<CrashRule>& rules : crash_rules) {
        std::stable_sort(rules.begin(), rules.end(),
                         [](const CrashRule& a, const CrashRule& b) {
                             return a.at_step < b.at_step;
                         });
    }

    Tally tally;
    obs::TraceSink* const sink = options.trace;
    obs::FlightRecorder* const recorder = options.recorder;
    // Ring losses charged to *this* run: a caller reusing one sink
    // across runs carries its cumulative dropped() in, so the counter
    // publishes the delta.
    const std::uint64_t sink_dropped_before =
        sink != nullptr ? sink->dropped() : 0;
    obs::Histogram* rendezvous_hist = nullptr;
    obs::Histogram* attempts_hist = nullptr;
    obs::Histogram* snapshot_bytes_hist = nullptr;
    obs::Histogram* replay_hist = nullptr;
    if (options.metrics != nullptr) {
        rendezvous_hist = &options.metrics->histogram("sync_rendezvous_ticks");
        attempts_hist =
            &options.metrics->histogram("sync_attempts_per_message");
        if (recovery_active) {
            snapshot_bytes_hist =
                &options.metrics->histogram("recover_snapshot_bytes");
            replay_hist =
                &options.metrics->histogram("recover_replay_records");
        }
    }
    // One line per protocol event; `logical` is the acting process's
    // clock-vector total at record time, tying wire activity to causal
    // progress. The recorder mirrors every event into its own bounded
    // ring so the black box works with full tracing off.
    const bool tracing = sink != nullptr || recorder != nullptr;
    const auto trace = [&](obs::TraceEventKind kind, std::uint64_t now,
                           ProcessId process, ProcessId peer,
                           std::uint64_t a, std::uint64_t b,
                           std::uint64_t logical) {
        if (!tracing) return;
        obs::TraceEvent event;
        event.virtual_time = now;
        event.logical = logical;
        event.arg_a = a;
        event.arg_b = b;
        event.process = process;
        event.peer = peer;
        event.kind = kind;
        if (sink != nullptr) sink->record(event);
        if (recorder != nullptr) recorder->record(event);
    };
    // Logical-time arguments for trace records: a width-d sum, so it is
    // computed only when something records it. Null-safe: with crash
    // rules armed, a frame can reach an engine that currently has no
    // clock (its process is absent from its epoch's graph, or it is
    // mid-restart).
    const auto logical_total =
        [tracing](std::span<const std::uint64_t> clock) -> std::uint64_t {
        return tracing ? ts::total(clock) : 0;
    };
    const auto logical = [&](const Engine& engine) -> std::uint64_t {
        return engine.clock ? logical_total(engine.clock->current_span()) : 0;
    };

    AsyncSimulator network(n_max, options.seed);
    network.set_uniform_latency(options.latency_lo, options.latency_hi);
    network.set_fault_plan(options.faults);

    // Retransmission is armed whenever the network can lose or corrupt a
    // packet (or the caller asks for it explicitly); on a reliable network
    // it stays off so the wire profile is exactly 2 packets per message.
    const bool retransmission = options.retransmit_timeout > 0 ||
                                options.faults.active();
    const std::uint64_t base_rto =
        options.retransmit_timeout > 0
            ? options.retransmit_timeout
            : 4 * (options.latency_hi + options.faults.max_extra_delay) + 1;
    const std::uint64_t max_rto = base_rto << options.max_backoff_exponent;

    std::vector<Engine> engines(n_max);
    for (ProcessId p = 0; p < n_max; ++p) engines[p].self = p;

    std::vector<DurableStore> stores;
    stores.reserve(n_max);
    for (ProcessId p = 0; p < n_max; ++p) {
        stores.push_back(
            DurableStore{{}, Wal(options.recovery.wal_flush_interval)});
    }

    // ---- Epoch-region memory (docs/MEMORY.md) -------------------------
    // Every epoch's committed stamps live in a region drawn from one
    // slab pool, and per-process clocks are leased from one engine
    // stock. A caller running many protocols in sequence can pass both
    // in through the options so even cross-run churn reuses capacity;
    // by default each gets a run-local instance. External pools/stocks
    // are attached to a registry (or not) by their owner.
    SlabPool local_pool;
    SlabPool& pool =
        options.slab_pool != nullptr ? *options.slab_pool : local_pool;
    EngineStock local_stock;
    EngineStock& stock = options.engine_stock != nullptr
                             ? *options.engine_stock
                             : local_stock;
    if (options.metrics != nullptr) {
        if (options.slab_pool == nullptr) {
            local_pool.attach_metrics(*options.metrics);
        }
        if (options.engine_stock == nullptr) {
            local_stock.attach_metrics(*options.metrics);
        }
    }
    RegionStore regions(pool);
    if (options.metrics != nullptr) {
        regions.attach_metrics(*options.metrics);
    }

    // ---- Extended wire path (docs/PROTOCOL.md) ------------------------
    // Batching, ACK coalescing, delta vectors, and bandwidth scheduling
    // all route sends through per-destination TX queues flushed by
    // same-tick (REQ) or bounded-delay (coalesced ACK) timers. With
    // every knob off, tx_send degenerates to a direct network.send plus
    // byte accounting — the classic one-frame-per-packet profile,
    // bit-for-bit. Timestamps are identical either way: they depend
    // only on script order, never on packet count or delivery schedule.
    const ProtocolOptions& proto = options.protocol;
    const bool wire_ext = proto.active();
    std::optional<BandwidthScheduler> bsched;
    if (proto.bandwidth.enabled) bsched.emplace(proto.bandwidth, n_max);
    std::vector<TxProc> tx;
    if (wire_ext) tx.resize(n_max);
    // ACKs wait at most this long for a ride; well under any RTO
    // (base_rto >= 4 * latency_hi + 1), so coalescing never races a
    // peer's retransmission timer.
    const std::uint64_t coalesce_delay =
        proto.max_coalesce_delay != 0
            ? proto.max_coalesce_delay
            : std::max<std::uint64_t>(options.latency_hi, 1);

    /// Every packet leaves through here: wire accounting, then the
    /// network. (The network's fault injector sits underneath, so these
    /// tallies count *sent* traffic — under drops they exceed the
    /// delivered-packet count.)
    const auto post = [&](std::uint64_t now, Packet&& packet) {
        ++tally.wire_packets;
        tally.bytes_sent += packet.body.size();
        network.send(now, std::move(packet));
    };

    /// A packet whose body is a recycled network buffer (empty; the caller
    /// encodes or copies the frame into it).
    const auto make_packet = [&](ProcessId source, ProcessId destination,
                                 std::uint32_t kind, std::uint64_t tag) {
        return Packet{source, destination, kind, tag, network.take_body()};
    };
    /// As make_packet, carrying a copy of `frame`.
    const auto frame_packet = [&](ProcessId source, ProcessId destination,
                                  std::uint32_t kind, std::uint64_t tag,
                                  std::span<const std::uint8_t> frame) {
        Packet packet = make_packet(source, destination, kind, tag);
        copy_frame(frame, packet.body);
        return packet;
    };

    /// Flushes every due queue of `src` in deficit-round-robin order: a
    /// single live entry goes out as a bare frame packet (no container
    /// overhead, v1/v2-compatible), several go out as one v4 batch. A
    /// flush the bandwidth buckets refuse earns the queue quantum
    /// deficit and is deferred to the buckets' ready time (std::function
    /// so the deferral timer can re-enter it).
    std::function<void(std::uint64_t, ProcessId)> tx_flush =
        [&](std::uint64_t when, ProcessId src) {
            TxProc& proc = tx[src];
            const std::size_t count = proc.ring.size();
            if (count == 0) return;
            for (std::size_t step = 0; step < count; ++step) {
                const std::size_t slot = (proc.cursor + step) % count;
                const ProcessId dst = proc.ring[slot];
                TxQueue& q = proc.queues.at(dst);
                if (q.batch.empty() || q.deadline > when) continue;
                Packet pkt = make_packet(src, dst, 0, 0);
                const std::size_t frames = q.batch.size();
                if (frames == 1) {
                    const BatchFrame::Entry entry = q.batch.front();
                    pkt.kind = static_cast<std::uint32_t>(entry.kind);
                    pkt.tag = entry.tag;
                    copy_frame(entry.body, pkt.body);
                } else {
                    pkt.kind = kBatch;
                    pkt.tag = frames;
                    q.batch.encode_batch_into(pkt.body);
                }
                if (bsched && !bsched->admit(src, dst, pkt.body.size(), when,
                                             q.deficit)) {
                    q.deficit += proto.bandwidth.quantum;
                    const std::uint64_t ready =
                        bsched->ready_time(src, dst, pkt.body.size(), when);
                    q.deadline = ready;
                    ++tally.bsched_deferrals;
                    trace(obs::TraceEventKind::bsched_defer, when, src, dst,
                          frames, ready - when, 0);
                    const std::uint64_t incarnation =
                        engines[src].incarnation;
                    network.schedule(
                        ready, [&, src, incarnation](std::uint64_t at) {
                            if (engines[src].incarnation != incarnation ||
                                engines[src].down) {
                                return;
                            }
                            tx_flush(at, src);
                        });
                    continue;
                }
                if (frames > 1) {
                    ++tally.batch_packets;
                    tally.batch_frames += frames;
                    trace(obs::TraceEventKind::batch, when, src, dst, frames,
                          pkt.body.size(), 0);
                }
                q.batch.clear();
                post(when, std::move(pkt));
            }
            proc.cursor = (proc.cursor + 1) % count;
        };

    /// Routes a REQ/ACK through the TX queues (extended path) or sends
    /// it directly (classic path). `delay` is how long the frame may
    /// wait for companions — 0 for REQs and replays (flushed at the end
    /// of the current tick, so same-tick traffic to one peer still
    /// shares a packet), `coalesce_delay` for coalescible ACKs. A newer
    /// ACK for the same rendezvous supersedes a queued one — and *only*
    /// the same rendezvous: a crash-rewound sender can legitimately
    /// need ACK(s) while ACK(s+1) sits queued, so distinct sequences
    /// all ship (docs/PROTOCOL.md).
    const auto tx_send = [&](std::uint64_t now, Packet&& packet,
                             std::uint64_t delay) {
        if (!wire_ext) {
            post(now, std::move(packet));
            return;
        }
        TxProc& proc = tx[packet.source];
        const auto [it, inserted] =
            proc.queues.try_emplace(packet.destination, &pool);
        TxQueue& q = it->second;
        if (inserted) proc.ring.push_back(packet.destination);
        if (proto.coalesce_acks && packet.kind == kAck &&
            q.batch.supersede(kAck, packet.tag)) {
            ++tally.acks_coalesced;
            trace(obs::TraceEventKind::coalesce, now, packet.source,
                  packet.destination, packet.tag, 0, 0);
        }
        const bool was_empty = q.batch.empty();
        q.batch.add(packet.kind, packet.tag, packet.body);
        const std::uint64_t deadline = now + delay;
        if (was_empty || deadline < q.deadline) q.deadline = deadline;
        // Timers cannot be cancelled; arm one per enqueue and let stale
        // ones find an empty or not-yet-due queue. The incarnation
        // check keeps a pre-crash timer from flushing a reborn queue.
        const ProcessId src = packet.source;
        const std::uint64_t incarnation = engines[src].incarnation;
        network.schedule(q.deadline,
                         [&, src, incarnation](std::uint64_t when) {
                             if (engines[src].incarnation != incarnation ||
                                 engines[src].down) {
                                 return;
                             }
                             tx_flush(when, src);
                         });
    };

    /// Whether `shadow` is the base the delta codec needs for the next
    /// frame: same epoch, exactly the previous sequence, same width.
    const auto delta_ready = [](const ShadowVector& shadow, EpochId epoch,
                                std::uint64_t sequence, std::size_t width) {
        return shadow.valid && shadow.epoch == epoch &&
               shadow.sequence + 1 == sequence &&
               shadow.stamp.size() == width;
    };

    /// Monotone shadow update: a frame older than what the shadow holds
    /// (a window replay of a pre-rewind sequence) never regresses it.
    const auto update_shadow = [](ShadowVector& shadow, EpochId epoch,
                                  std::uint64_t sequence,
                                  std::span<const std::uint64_t> stamp) {
        if (shadow.valid && shadow.epoch == epoch &&
            sequence < shadow.sequence) {
            return;
        }
        shadow.stamp.assign(stamp.begin(), stamp.end());
        shadow.sequence = sequence;
        shadow.epoch = epoch;
        shadow.valid = true;
    };

    // The barrier state: every live, caught-up engine stamps, frames, and
    // validates against this one epoch. A restarted engine may lag behind
    // it until its rejoin fast-forwards.
    EpochId current_epoch = 0;

    // Segments are created lazily (a message-free epoch never opens a
    // region) and retired eagerly: once the stability frontier passes an
    // epoch, its results are materialized and its region's slabs return
    // to the pool, so a 1000-epoch run holds O(live width) arena bytes,
    // not O(epochs).
    std::vector<std::unique_ptr<SegmentState>> segments(num_epochs);
    const auto segment_for = [&](EpochId e) -> SegmentState& {
        std::unique_ptr<SegmentState>& slot = segments[e];
        if (slot == nullptr) {
            const Epoch& epoch = topology.epoch(e);
            slot = std::make_unique<SegmentState>(epoch.graph(),
                                                  scripts[e].num_messages());
            slot->arena = &regions.open(e, epoch.width(),
                                        scripts[e].num_messages());
        }
        return *slot;
    };

    // Drummond–Barbosa stability frontier: the lowest epoch any process
    // could still rewind into. With recovery armed that is the lowest
    // durable-snapshot epoch across processes — a crashed process
    // restarts from its snapshot and re-executes forward, and every
    // recommit verifies bit-identity against the original stamp, so
    // regions at or above a durable epoch must stay live. Without
    // recovery nothing ever rewinds and the frontier is the barrier
    // epoch itself. Each process holds a region pin on its durable
    // epoch as defense in depth: were the frontier arithmetic ever
    // wrong, close() would defer instead of dangling a replay read.
    constexpr EpochId kNoDurableEpoch = std::numeric_limits<EpochId>::max();
    std::vector<EpochId> durable_epoch(n_max, kNoDurableEpoch);

    std::vector<EpochSegmentResult> flushed;
    flushed.reserve(num_epochs);
    EpochId flushed_below = 0;

    /// Materializes epoch `e`'s results and retires its region — every
    /// slab returns to the pool in O(1). Only called once the frontier
    /// has passed `e`, so no engine, late frame, or recovery replay can
    /// touch the segment again (the region analogue of WAL truncation
    /// at a snapshot: both discard exactly the state no surviving
    /// rewind can reach).
    const auto flush_segment = [&](EpochId e) {
        if (segments[e] == nullptr) {
            // Never touched: only legal for a message-free epoch.
            SYNCTS_ENSURE(scripts[e].num_messages() == 0,
                          "epoch flushed with unrealized messages");
            flushed.push_back(EpochSegmentResult{
                e, SyncComputation(topology.epoch(e).graph()), {}, {}});
            return;
        }
        SegmentState& segment = *segments[e];
        SYNCTS_ENSURE(segment.computation.num_messages() ==
                          scripts[e].num_messages(),
                      "epoch flushed with unrealized messages");
        std::vector<VectorTimestamp> stamps;
        stamps.reserve(segment.arena->size());
        for (std::size_t i = 0; i < segment.arena->size(); ++i) {
            stamps.emplace_back(segment.arena->span(static_cast<TsHandle>(i)));
        }
        flushed.push_back(EpochSegmentResult{
            e, std::move(segment.computation), std::move(stamps),
            std::move(segment.script_message)});
        segments[e].reset();
        regions.close(e);
    };

    /// Retires every epoch the stability frontier has passed.
    /// `barrier_bound` is the non-recovery frontier (the current barrier
    /// epoch); durable snapshots can only pull it down, never past it.
    const auto retire_stable = [&](EpochId barrier_bound) {
        EpochId frontier = barrier_bound;
        if (recovery_active) {
            for (ProcessId p = 0; p < n_max; ++p) {
                if (durable_epoch[p] != kNoDurableEpoch) {
                    frontier = std::min(frontier, durable_epoch[p]);
                }
            }
        }
        while (flushed_below < frontier) {
            flush_segment(flushed_below);
            ++flushed_below;
        }
        // The flight recorder tracks the same frontier: retained events
        // older than the last stably-retired epoch's entry cannot matter
        // to any surviving rewind, so the black box sheds them too.
        if (recorder != nullptr) recorder->note_frontier(frontier);
    };

    // Without recovery a single cached ACK per channel suffices (the
    // classic lost-ACK replay); a capacity-1 window keeps that exact
    // behaviour. With recovery the window must absorb crash rewinds.
    const std::size_t window_capacity =
        recovery_active ? options.recovery.window : 1;
    const auto in_channel = [&](Engine& engine,
                                ProcessId peer) -> InChannel& {
        auto it = engine.in.find(peer);
        if (it == engine.in.end()) {
            it = engine.in
                     .emplace(peer, InChannel{0, std::nullopt, {},
                                              FrameWindow(window_capacity)})
                     .first;
        }
        return it->second;
    };
    const auto out_channel = [&](Engine& engine,
                                 ProcessId peer) -> OutChannel& {
        auto it = engine.out.find(peer);
        if (it == engine.out.end()) {
            it = engine.out
                     .emplace(peer,
                              OutChannel{0, FrameWindow(window_capacity)})
                     .first;
        }
        return it->second;
    };

    /// (Re)loads per-process state for epoch `e`: the epoch's script
    /// slice, a clock leased from the stock (a recycled one rebound to
    /// the epoch's decomposition when available — bit-identical to a
    /// fresh construction), and width-d scratch. Channel maps are
    /// deliberately left alone.
    const auto load_engine = [&](ProcessId p, EpochId e) {
        Engine& engine = engines[p];
        const std::shared_ptr<const EdgeDecomposition> decomposition =
            topology.decomposition(e);
        const std::size_t n = decomposition->graph().num_vertices();
        const std::size_t d = decomposition->size();
        engine.epoch = e;
        engine.script.clear();
        engine.cursor = 0;
        if (p >= n) {
            // Not a member of this epoch: park the clock for whoever
            // loads next.
            stock.restock_clock(std::move(engine.clock));
            return;
        }
        for (const ProcessEvent& event : scripts[e].process_events(p)) {
            if (event.kind == ProcessEvent::Kind::message) {
                engine.script.push_back(event);
            }
        }
        stock.restock_clock(std::move(engine.clock));
        engine.clock = stock.lease_clock(p, decomposition);
        engine.rx_stamp.resize(d);
        engine.ack_scratch.resize(d);
        engine.stamp_scratch.resize(d);
    };
    for (ProcessId p = 0; p < n_max; ++p) load_engine(p, 0);

    /// Serializes the engine's full durable state (docs/RECOVERY.md).
    /// Channels are sorted by peer so the snapshot bytes are a pure
    /// function of the protocol state, never of map iteration order.
    const auto capture_state = [&](ProcessId p) {
        const Engine& engine = engines[p];
        ProcessState state;
        state.self = p;
        state.epoch = engine.epoch;
        state.cursor = engine.cursor;
        state.steps = engine.steps;
        const std::span<const std::uint64_t> clock =
            engine.clock->current_span();
        state.clock.assign(clock.begin(), clock.end());
        for (const auto& [peer, channel] : engine.out) {
            state.out.push_back(OutChannelState{peer, channel.next_sequence,
                                                channel.req_window});
        }
        std::sort(state.out.begin(), state.out.end(),
                  [](const OutChannelState& a, const OutChannelState& b) {
                      return a.peer < b.peer;
                  });
        for (const auto& [peer, channel] : engine.in) {
            state.in.push_back(InChannelState{peer, channel.last_committed,
                                              channel.ack_window});
        }
        std::sort(state.in.begin(), state.in.end(),
                  [](const InChannelState& a, const InChannelState& b) {
                      return a.peer < b.peer;
                  });
        if (engine.outstanding) {
            state.outstanding.active = true;
            state.outstanding.receiver = engine.outstanding->receiver;
            state.outstanding.sequence = engine.outstanding->sequence;
            state.outstanding.message = engine.outstanding->mid;
            state.outstanding.frame = engine.outstanding->frame;
        }
        return state;
    };

    /// Checkpoint: flush the WAL (a snapshot is a flush point), write the
    /// snapshot, then truncate the log prefix it folded in — the
    /// Drummond–Barbosa stability rule, which bounds log growth. The
    /// region side mirrors it exactly: the process's durable epoch
    /// advances, its region pin moves with it, and every epoch the
    /// frontier has now passed is retired to the pool.
    const auto take_snapshot = [&](ProcessId p) {
        if (!recovery_active) return;
        Engine& engine = engines[p];
        if (engine.clock == nullptr) return;  // not part of this epoch
        DurableStore& store = stores[p];
        store.wal.flush();
        Snapshot snapshot;
        snapshot.state = capture_state(p);
        snapshot.wal_lsn = store.wal.next_lsn();
        store.snapshot.clear();  // the encoder appends
        encode_snapshot_into(snapshot, store.snapshot);
        store.wal.truncate(snapshot.wal_lsn);
        engine.steps_since_snapshot = 0;
        ++tally.snapshots;
        if (snapshot_bytes_hist != nullptr) {
            snapshot_bytes_hist->record(store.snapshot.size());
        }
        if (durable_epoch[p] != engine.epoch) {
            // This snapshot is now the process's rewind floor: pin its
            // epoch's region (a crash replays into it and recommits
            // verify against the original stamps), release the previous
            // floor, and retire whatever became stable.
            segment_for(engine.epoch);
            regions.pin(engine.epoch);
            if (durable_epoch[p] != kNoDurableEpoch) {
                regions.unpin(durable_epoch[p]);
            }
            durable_epoch[p] = engine.epoch;
            retire_stable(current_epoch);
        }
    };

    const auto wal_append = [&](ProcessId p, WalRecord record) {
        if (recovery_active) stores[p].wal.append(std::move(record));
    };

    // restart_process is assigned below; crash timers capture it by
    // reference through the enclosing scope.
    std::function<void(std::uint64_t, ProcessId)> restart_process;

    /// Executes one crash rule: the process loses everything volatile
    /// (clock, channels, buffered and in-flight protocol state) and its
    /// WAL loses the unflushed tail. A timer restarts it after the
    /// rule's downtime.
    const auto crash_now = [&](std::uint64_t now, ProcessId p,
                               const CrashRule& rule) {
        Engine& engine = engines[p];
        network.note_crash();
        ++engine.incarnation;
        trace(obs::TraceEventKind::crash, now, p, p, engine.steps,
              engine.incarnation, logical(engine));
        stores[p].wal.drop_unflushed();
        if (recorder != nullptr) {
            // The black box captures the crash instant: WAL position
            // *after* the unflushed tail is gone (what recovery will
            // actually see) and the ring ending at the crash event just
            // traced. Recovery replay cross-checks both.
            recorder->dump(obs::PostmortemReason::crash, p, engine.steps,
                           engine.epoch, stores[p].wal.next_lsn(), now,
                           options.metrics);
        }
        // The crash wipes the clock's *state*; its buffers are reusable,
        // so park it for the next lease (rebind() resets it in full).
        stock.restock_clock(std::move(engine.clock));
        engine.outstanding.reset();
        engine.in.clear();
        engine.out.clear();
        engine.script.clear();
        engine.cursor = 0;
        engine.steps = 0;
        engine.steps_since_snapshot = 0;
        engine.rejoining = false;
        engine.awaiting_hello.clear();
        if (wire_ext) {
            // Queued-but-unflushed frames are volatile state too: they
            // die with the process, exactly like frames lost in flight
            // — peers recover them through retransmission and rejoin.
            for (auto& [dst, q] : tx[p].queues) q.batch.clear();
        }
        engine.down = true;
        network.set_down(p, true);
        const std::uint64_t downtime = std::max<std::uint64_t>(rule.downtime, 1);
        const std::uint64_t incarnation = engine.incarnation;
        network.schedule(now + downtime,
                         [&, p, incarnation](std::uint64_t when) {
                             if (engines[p].incarnation != incarnation) return;
                             restart_process(when, p);
                         });
    };

    /// Fires the next crash rule once the process's step counter reaches
    /// it. Rules fire in at_step order; the rewound counter re-advancing
    /// through an already-fired step does not re-fire its rule.
    const auto maybe_crash = [&](std::uint64_t now, ProcessId p) -> bool {
        Engine& engine = engines[p];
        if (engine.down) return false;
        const std::vector<CrashRule>& rules = crash_rules[p];
        if (engine.next_crash >= rules.size()) return false;
        if (engine.steps < rules[engine.next_crash].at_step) return false;
        const CrashRule rule = rules[engine.next_crash++];
        crash_now(now, p, rule);
        return true;
    };

    /// Bookkeeping after one protocol step (a commit or an accepted
    /// ACK): interval snapshots, then crash rules. Returns true when the
    /// step ended in a crash — the caller must stop touching the engine.
    const auto after_step = [&](std::uint64_t now, ProcessId p) -> bool {
        Engine& engine = engines[p];
        ++engine.steps;
        if (recovery_active &&
            ++engine.steps_since_snapshot >=
                options.recovery.snapshot_interval) {
            take_snapshot(p);
        }
        if (recorder != nullptr && options.metrics != nullptr) {
            recorder->tick(*options.metrics);
        }
        return maybe_crash(now, p);
    };

    // Re-arms the retransmission timer for the sender's current
    // outstanding REQ. Timers are never cancelled; a fired timer checks
    // that the exact (receiver, sequence) it was armed for is still
    // outstanding — which also neutralizes timers armed in an earlier
    // epoch — and that the process has not crashed since (incarnation).
    std::function<void(std::uint64_t, ProcessId)> arm_timer =
        [&](std::uint64_t now, ProcessId p) {
            const Engine& armed = engines[p];
            const Outstanding& out = *armed.outstanding;
            const ProcessId receiver = out.receiver;
            const std::uint64_t sequence = out.sequence;
            const std::uint64_t incarnation = armed.incarnation;
            network.schedule(now + out.rto, [&, p, receiver, sequence,
                                             incarnation](std::uint64_t when) {
                Engine& engine = engines[p];
                if (engine.incarnation != incarnation) return;  // crashed
                if (!engine.outstanding ||
                    engine.outstanding->receiver != receiver ||
                    engine.outstanding->sequence != sequence) {
                    return;  // ACK arrived; stale timer
                }
                Outstanding& out_now = *engine.outstanding;
                ++tally.timeouts;
                trace(obs::TraceEventKind::timeout, when, p, receiver,
                      sequence, out_now.mid,
                      logical(engine));
                if (out_now.retransmits >= options.max_retransmits) {
                    if (recorder != nullptr) {
                        recorder->dump(obs::PostmortemReason::error, p,
                                       engine.steps, engine.epoch,
                                       recovery_active
                                           ? stores[p].wal.next_lsn()
                                           : 0,
                                       when, options.metrics);
                    }
                    throw SynchronizerStalled(
                        "message " + std::to_string(out_now.mid) +
                        " from P" + std::to_string(p) + " to P" +
                        std::to_string(receiver) + " exhausted " +
                        std::to_string(options.max_retransmits) +
                        " retransmissions");
                }
                ++out_now.retransmits;
                ++tally.retransmits;
                trace(obs::TraceEventKind::retransmit, when, p, receiver,
                      sequence, out_now.mid,
                      logical(engine));
                // Always the canonical full frame, even with delta on:
                // a retransmission doubles as the shadow resync the
                // receiver may be waiting for.
                Packet req = frame_packet(p, receiver, kReq, out_now.mid,
                                          out_now.frame);
                ++tally.full_frames;
                tx_send(when, std::move(req), 0);
                out_now.rto = std::min(out_now.rto * 2, max_rto);
                arm_timer(when, p);
            });
        };

    // Stamp buffers of committed REQs, reused by the next buffered REQ.
    std::vector<std::vector<std::uint64_t>> spare_stamps;
    /// Buffers a fresh REQ until the program reaches the matching
    /// receive: the stamp is copied out of the decode scratch into a
    /// buffer from the free list — the only copy on the fresh-REQ path.
    const auto buffer_req = [&](InChannel& channel, const FrameHeader& header,
                                std::span<const std::uint64_t> stamp) {
        std::vector<std::uint64_t> buffer;
        if (!spare_stamps.empty()) {
            buffer = std::move(spare_stamps.back());
            spare_stamps.pop_back();
        }
        buffer.assign(stamp.begin(), stamp.end());
        channel.pending =
            PendingReq{header.sequence, header.message, std::move(buffer)};
    };

    // Forward declaration dance: progress() sends packets and is called
    // from the delivery handler.
    std::function<void(std::uint64_t, ProcessId)> progress =
        [&](std::uint64_t now, ProcessId p) {
            Engine& engine = engines[p];
            if (engine.down) return;
            const SyncComputation& script = scripts[engine.epoch];
            while (engine.cursor < engine.script.size()) {
                const MessageId mid = engine.script[engine.cursor].index;
                const SyncMessage& m = script.message(mid);
                if (m.sender == p) {
                    if (engine.outstanding) return;  // blocked on the wire
                    // Sequences are 1-based per directed channel. Clock
                    // and sequence rewind together after a crash, so a
                    // re-executed send reproduces this frame byte for
                    // byte under the same sequence — the receiver's
                    // duplicate suppression stays sound.
                    OutChannel& channel = out_channel(engine, m.receiver);
                    const std::uint64_t sequence = ++channel.next_sequence;
                    std::vector<std::uint8_t> frame =
                        std::move(engine.spare_frame);
                    encode_epoch_frame_into(engine.epoch, sequence, mid,
                                            engine.clock->current_span(),
                                            frame);
                    if (recovery_active) {
                        channel.req_window.put(sequence, frame);
                        WalRecord record;
                        record.type = WalRecordType::send;
                        record.peer = m.receiver;
                        record.sequence = sequence;
                        record.message = mid;
                        record.epoch = engine.epoch;
                        record.frame = frame;
                        wal_append(p, std::move(record));
                    }
                    engine.outstanding = Outstanding{
                        .receiver = m.receiver,
                        .mid = mid,
                        .sequence = sequence,
                        .frame = std::move(frame),
                        .retransmits = 0,
                        .rto = base_rto,
                        .first_send_time = now};
                    ++tally.req_sent;
                    trace(obs::TraceEventKind::send, now, p, m.receiver,
                          sequence, mid,
                          logical(engine));
                    // The window, WAL, and outstanding record above all
                    // hold the canonical full encoding; only the wire
                    // body may shrink to a delta against the channel's
                    // last-sent shadow. Every resend/replay path sends
                    // full frames, so any shadow break converges.
                    Packet req = make_packet(p, m.receiver, kReq, mid);
                    if (wire_ext && proto.delta &&
                        delta_ready(channel.req_shadow, engine.epoch,
                                    sequence,
                                    engine.clock->current_span().size()) &&
                        encode_delta_frame_into(engine.epoch, sequence, mid,
                                                channel.req_shadow.stamp,
                                                engine.clock->current_span(),
                                                req.body)) {
                        ++tally.delta_frames;
                    } else {
                        copy_frame(engine.outstanding->frame, req.body);
                        ++tally.full_frames;
                    }
                    if (wire_ext) {
                        update_shadow(channel.req_shadow, engine.epoch,
                                      sequence,
                                      engine.clock->current_span());
                    }
                    tx_send(now, std::move(req), 0);
                    if (retransmission) arm_timer(now, p);
                    return;
                }
                // Receive action: consume the buffered fresh REQ if any.
                InChannel& channel = in_channel(engine, m.sender);
                if (!channel.pending && !channel.future.empty()) {
                    // Earlier commits (or a barrier this engine just
                    // crossed) may have brought the commit point and the
                    // epoch up to a parked out-of-order frame: promote it
                    // as if it had just arrived.
                    channel.future.erase(
                        channel.future.begin(),
                        channel.future.upper_bound(channel.last_committed));
                    const auto next =
                        channel.future.find(channel.last_committed + 1);
                    if (next != channel.future.end() &&
                        peek_epoch_frame_header(next->second).epoch ==
                            engine.epoch) {
                        const FrameHeader header = decode_epoch_frame_into(
                            next->second, engine.rx_stamp);
                        buffer_req(channel, header, engine.rx_stamp);
                        channel.future.erase(next);
                        trace(obs::TraceEventKind::receive, now, p,
                              m.sender, header.sequence, header.message,
                              logical(engine));
                    }
                }
                if (!channel.pending) return;  // wait for the REQ packet
                PendingReq req = std::move(*channel.pending);
                channel.pending.reset();
                SYNCTS_ENSURE(req.message == mid,
                              "REQ does not match the scripted receive");
                engine.clock->on_receive_into(m.sender, req.stamp,
                                              engine.ack_scratch,
                                              engine.stamp_scratch);
                // Commit: the rendezvous instant, exactly once per
                // sequence — duplicates never reach this line. A
                // restarted process re-executing a commit it lost must
                // reproduce the original stamp exactly; the realized
                // computation keeps the first commit's record.
                channel.last_committed = req.sequence;
                channel.replay_attempts = 0;  // the watchdog saw progress
                encode_epoch_frame_into(engine.epoch, req.sequence, mid,
                                        engine.ack_scratch,
                                        engine.ack_bytes);
                SegmentState& segment = segment_for(engine.epoch);
                if (segment.handle_by_script[mid] == kNoTimestamp) {
                    ++tally.commits;
                    trace(obs::TraceEventKind::commit, now, p, m.sender,
                          req.sequence, mid,
                          logical_total(engine.stamp_scratch));
                    segment.computation.add_message(m.sender, m.receiver);
                    segment.script_message.push_back(mid);
                    segment.handle_by_script[mid] =
                        segment.arena->allocate(engine.stamp_scratch);
                } else {
                    // A replayed commit validates against the original
                    // stamp through the region store: the {epoch, index}
                    // read throws a typed RegionError rather than
                    // returning a dangling span if stability-driven
                    // retirement were ever wrong about this epoch.
                    SYNCTS_ENSURE(
                        ts::equal(engine.stamp_scratch,
                                  regions.span(RegionHandle{
                                      engine.epoch,
                                      segment.handle_by_script[mid]})),
                        "recovered replay diverged from the original commit");
                    ++tally.recommits;
                    trace(obs::TraceEventKind::commit, now, p, m.sender,
                          req.sequence, mid,
                          logical_total(engine.stamp_scratch));
                }
                channel.ack_window.put(req.sequence, engine.ack_bytes);
                if (recovery_active) {
                    WalRecord record;
                    record.type = WalRecordType::commit;
                    record.peer = m.sender;
                    record.sequence = req.sequence;
                    record.message = mid;
                    record.epoch = engine.epoch;
                    // Canonical re-encoding of the REQ — byte-identical
                    // to the frame the sender put on the wire.
                    encode_epoch_frame_into(engine.epoch, req.sequence, mid,
                                            req.stamp, engine.req_bytes);
                    record.frame = engine.req_bytes;
                    record.aux = engine.ack_bytes;
                    wal_append(p, std::move(record));
                }
                spare_stamps.push_back(std::move(req.stamp));
                Packet ack = make_packet(p, m.sender, kAck, mid);
                // ack_window and the WAL keep the canonical full ACK
                // (recovery byte-verifies against it); only the wire
                // body may be a delta.
                if (wire_ext && proto.delta &&
                    delta_ready(channel.ack_sent_shadow, engine.epoch,
                                req.sequence, engine.ack_scratch.size()) &&
                    encode_delta_frame_into(engine.epoch, req.sequence, mid,
                                            channel.ack_sent_shadow.stamp,
                                            engine.ack_scratch, ack.body)) {
                    ++tally.delta_frames;
                } else {
                    copy_frame(engine.ack_bytes, ack.body);
                    ++tally.full_frames;
                }
                if (wire_ext) {
                    update_shadow(channel.ack_sent_shadow, engine.epoch,
                                  req.sequence, engine.ack_scratch);
                }
                tx_send(now, std::move(ack),
                        proto.coalesce_acks ? coalesce_delay : 0);
                ++engine.cursor;
                if (after_step(now, p)) return;  // crashed on this step
            }
        };

    /// True when every live engine has discharged its
    /// epoch-`current_epoch` obligations: caught up to the barrier
    /// epoch, script done, nothing on the wire, no rejoin in flight.
    /// Down engines are exempt — they rejoin into the new epoch later
    /// (their unfinished steps are re-executions of already-realized
    /// messages; maybe_transition checks that).
    const auto epoch_complete = [&] {
        for (const Engine& engine : engines) {
            if (engine.down) continue;
            if (engine.rejoining || engine.epoch != current_epoch) {
                return false;
            }
            if (engine.cursor != engine.script.size()) return false;
            if (engine.outstanding) return false;
        }
        return true;
    };

    /// Crosses as many barriers as are due at virtual time `now`
    /// (several in a row when later epochs script no messages). Live
    /// engines checkpoint at each barrier, so a later crash never
    /// rewinds across it.
    const auto maybe_transition = [&](std::uint64_t now) {
        while (current_epoch + 1 < num_epochs && epoch_complete()) {
            const bool realized =
                scripts[current_epoch].num_messages() == 0 ||
                (segments[current_epoch] != nullptr &&
                 segments[current_epoch]->computation.num_messages() ==
                     scripts[current_epoch].num_messages());
            if (!realized) {
                SYNCTS_ENSURE(recovery_active,
                              "epoch barrier crossed with unrealized "
                              "messages");
                // A down process still owes commits; the barrier waits
                // for its restart to realize them.
                return;
            }
            for (const Engine& engine : engines) {
                for (const auto& [peer, channel] : engine.in) {
                    SYNCTS_ENSURE(!channel.pending,
                                  "epoch barrier crossed with a buffered REQ");
                }
            }
            const EpochTransition& transition =
                topology.transition_into(current_epoch + 1);
            ++current_epoch;
            // The global barrier event uses the out-of-range peer n_max
            // as its marker, distinguishing it from the per-process
            // fast-forward epoch events (process == peer) — the causal
            // profiler keys barrier-stall attribution off this shape.
            trace(obs::TraceEventKind::epoch, now, 0,
                  static_cast<ProcessId>(n_max), current_epoch,
                  transition.preserved_groups, 0);
            for (ProcessId p = 0; p < n_max; ++p) {
                if (engines[p].down) continue;  // fast-forwards on restart
                if (recovery_active) {
                    WalRecord record;
                    record.type = WalRecordType::epoch;
                    record.epoch = current_epoch;
                    wal_append(p, std::move(record));
                }
                load_engine(p, current_epoch);
                take_snapshot(p);
            }
            // The barrier is the stability point: without recovery every
            // earlier epoch is unreachable now; with recovery the
            // per-process snapshots above advanced the durable frontier.
            retire_stable(current_epoch);
            const std::size_t n =
                topology.epoch(current_epoch).num_processes();
            for (ProcessId p = 0; p < n; ++p) {
                if (!engines[p].down) progress(now, p);
            }
        }
    };

    /// Walks a lagging (restarted) engine through the barriers the
    /// system crossed while it was down, one epoch at a time, with a
    /// WAL record and a checkpoint at each — exactly what the engine
    /// would have done live.
    const auto fast_forward = [&](std::uint64_t now, ProcessId p) {
        Engine& engine = engines[p];
        bool moved = false;
        while (engine.epoch < current_epoch && !engine.rejoining &&
               engine.cursor == engine.script.size() &&
               !engine.outstanding) {
            const EpochId next = engine.epoch + 1;
            WalRecord record;
            record.type = WalRecordType::epoch;
            record.epoch = next;
            wal_append(p, std::move(record));
            load_engine(p, next);
            take_snapshot(p);
            ++tally.fast_forwards;
            trace(obs::TraceEventKind::epoch, now, p, p, next, 0, 0);
            moved = true;
        }
        if (moved) {
            progress(now, p);
            maybe_transition(now);
        }
    };

    /// The rejoin handshake is settled: resume the interrupted
    /// rendezvous (original bytes) or the script, then catch up to the
    /// barrier epoch.
    const auto complete_rejoin = [&](std::uint64_t now, ProcessId p) {
        Engine& engine = engines[p];
        engine.rejoining = false;
        engine.awaiting_hello.clear();
        if (engine.outstanding) {
            Outstanding& out = *engine.outstanding;
            ++tally.retransmits;
            trace(obs::TraceEventKind::retransmit, now, p, out.receiver,
                  out.sequence, out.mid,
                  logical(engine));
            // The canonical full frame, restored.
            Packet req =
                frame_packet(p, out.receiver, kReq, out.mid, out.frame);
            ++tally.full_frames;
            tx_send(now, std::move(req), 0);
            if (retransmission) arm_timer(now, p);
        } else {
            progress(now, p);
        }
        fast_forward(now, p);
        maybe_transition(now);
    };

    /// Sends (or re-sends) rejoin HELLOs. A HELLO is an epoch frame at
    /// the rejoiner's recovered epoch whose width-1 "stamp" carries its
    /// committed high-water mark on the channel from the addressee, so
    /// the peer can replay exactly the REQs the rejoiner lost. The
    /// sequence field numbers handshake attempts.
    std::function<void(std::uint64_t, ProcessId)> send_hellos =
        [&](std::uint64_t now, ProcessId p) {
            Engine& engine = engines[p];
            if (engine.awaiting_hello.empty()) {
                const Graph& graph = topology.epoch(engine.epoch).graph();
                if (p < graph.num_vertices()) {
                    const std::span<const ProcessId> neighbors =
                        graph.neighbors(p);
                    engine.awaiting_hello.assign(neighbors.begin(),
                                                 neighbors.end());
                }
                if (engine.awaiting_hello.empty()) {
                    complete_rejoin(now, p);
                    return;
                }
                engine.hello_attempts = 0;
            }
            if (engine.hello_attempts >= options.max_retransmits) {
                throw SynchronizerStalled(
                    "process P" + std::to_string(p) +
                    " exhausted its rejoin handshake attempts");
            }
            ++engine.hello_attempts;
            const std::uint64_t sequence = engine.hello_attempts;
            for (const ProcessId q : engine.awaiting_hello) {
                std::uint64_t last = 0;
                if (const auto it = engine.in.find(q);
                    it != engine.in.end()) {
                    last = it->second.last_committed;
                }
                Packet hello = make_packet(p, q, kHello, 0);
                encode_epoch_frame_into(
                    engine.epoch, sequence, 0,
                    std::span<const std::uint64_t>(&last, 1), hello.body);
                ++tally.hellos;
                trace(obs::TraceEventKind::hello, now, p, q, sequence, last,
                      logical(engine));
                post(now, std::move(hello));
            }
            const std::uint64_t incarnation = engine.incarnation;
            network.schedule(now + base_rto,
                             [&, p, incarnation](std::uint64_t when) {
                                 Engine& e = engines[p];
                                 if (e.incarnation != incarnation) return;
                                 if (!e.rejoining) return;
                                 send_hellos(when, p);
                             });
        };

    /// Chases a replay gap: while `last_committed` on the channel from
    /// `peer` lags the frontier its HELLO_ACK announced, the owed frames
    /// can only come from the peer's one-shot window replay — which the
    /// network may drop, and which the peer never re-times (it considers
    /// those rendezvous complete). So the *receiver* drives: re-HELLO
    /// the peer until the gap closes, bounded like a retransmission and
    /// backing off like one — after `attempts` re-HELLOs it waits
    /// min(base_rto << min(attempts, max_backoff_exponent), max_rto), so
    /// a replay that is slow rather than lost (a shaped, lossy link) is
    /// not mistaken for a dead channel.
    std::function<void(std::uint64_t, ProcessId, ProcessId, std::uint32_t)>
        arm_replay_watchdog = [&](std::uint64_t now, ProcessId p,
                                  ProcessId peer, std::uint32_t attempts) {
            const std::uint64_t incarnation = engines[p].incarnation;
            const std::uint64_t wait = std::min(
                base_rto << std::min(attempts, options.max_backoff_exponent),
                max_rto);
            network.schedule(
                now + wait,
                [&, p, peer, incarnation](std::uint64_t when) {
                    Engine& e = engines[p];
                    if (e.incarnation != incarnation || e.down) return;
                    const auto it = e.in.find(peer);
                    if (it == e.in.end()) return;
                    InChannel& channel = it->second;
                    if (channel.last_committed >= channel.replay_target) {
                        channel.watchdog_armed = false;
                        return;  // caught up; the watchdog retires
                    }
                    if (channel.replay_attempts >= options.max_retransmits) {
                        throw SynchronizerStalled(
                            "process P" + std::to_string(p) +
                            " exhausted its replay requests to P" +
                            std::to_string(peer));
                    }
                    ++channel.replay_attempts;
                    std::uint64_t last = channel.last_committed;
                    Packet hello = make_packet(p, peer, kHello, 0);
                    encode_epoch_frame_into(
                        e.epoch, channel.replay_attempts, 0,
                        std::span<const std::uint64_t>(&last, 1), hello.body);
                    ++tally.hellos;
                    trace(obs::TraceEventKind::hello, when, p, peer,
                          channel.replay_attempts, last,
                          logical(e));
                    post(when, std::move(hello));
                    arm_replay_watchdog(when, p, peer,
                                        channel.replay_attempts);
                });
        };

    /// Brings a crashed process back: recover the durable state, rebuild
    /// the live engine from it, then either rejoin (handshake with the
    /// neighbors so lost frames are replayed) or, when every step of the
    /// recovered epoch was durable, fast-forward straight to the barrier
    /// epoch.
    restart_process = [&](std::uint64_t now, ProcessId p) {
        Engine& engine = engines[p];
        engine.down = false;
        network.set_down(p, false);
        RecoverOutcome outcome = RecoveryManager::recover(
            stores[p].snapshot, stores[p].wal,
            [&](EpochId e) { return topology.decomposition(e); });
        ProcessState& state = outcome.state;
        // The snapshot's epoch is the rewind floor the durable pin has
        // been holding since the snapshot was taken; replay can only
        // have moved the live epoch forward from it, so every region
        // the re-execution will touch is still live.
        SYNCTS_ENSURE(durable_epoch[p] == outcome.stable_epoch,
                      "recovered snapshot epoch disagrees with the durable "
                      "frontier");
        SYNCTS_ENSURE(state.epoch >= outcome.stable_epoch,
                      "WAL replay rewound past the snapshot epoch");
        // The replayed history must land exactly on the live log's tail:
        // the snapshot's stability point plus every replayed record is
        // the next LSN the WAL will assign. This is also the position
        // the flight recorder dumped at the crash instant, so a SYFR
        // post-mortem and the recovery that follows it cross-validate.
        SYNCTS_ENSURE(outcome.wal_next_lsn == stores[p].wal.next_lsn(),
                      "recovery replay disagrees with the WAL position");
        load_engine(p, state.epoch);
        SYNCTS_ENSURE(engine.clock != nullptr &&
                          state.clock.size() == engine.clock->width(),
                      "recovered clock does not match the epoch topology");
        engine.clock->restore_from(state.clock);
        engine.cursor = static_cast<std::size_t>(state.cursor);
        SYNCTS_ENSURE(engine.cursor <= engine.script.size(),
                      "recovered cursor beyond the epoch script");
        engine.steps = state.steps;
        engine.steps_since_snapshot = 0;
        engine.out.clear();
        for (OutChannelState& channel : state.out) {
            engine.out.emplace(channel.peer,
                               OutChannel{channel.next_sequence,
                                          std::move(channel.req_window)});
        }
        engine.in.clear();
        for (InChannelState& channel : state.in) {
            engine.in.emplace(channel.peer,
                              InChannel{channel.last_committed, std::nullopt,
                                        {}, std::move(channel.ack_window)});
        }
        engine.outstanding.reset();
        if (state.outstanding.active) {
            SYNCTS_ENSURE(state.outstanding.message <=
                              std::numeric_limits<MessageId>::max(),
                          "recovered message id out of range");
            engine.outstanding = Outstanding{
                .receiver = state.outstanding.receiver,
                .mid = static_cast<MessageId>(state.outstanding.message),
                .sequence = state.outstanding.sequence,
                .frame = std::move(state.outstanding.frame),
                .retransmits = 0,
                .rto = base_rto,
                .first_send_time = now};
        }
        ++tally.restarts;
        tally.replayed_records += outcome.replayed_records;
        if (replay_hist != nullptr) {
            replay_hist->record(outcome.replayed_records);
        }
        trace(obs::TraceEventKind::restart, now, p, p,
              outcome.replayed_records, engine.epoch,
              logical(engine));
        if (engine.cursor == engine.script.size() && !engine.outstanding) {
            // Every step of the recovered epoch was durable: nothing to
            // re-execute, so no handshake — just catch up to the barrier.
            fast_forward(now, p);
            maybe_transition(now);
            return;
        }
        engine.rejoining = true;
        send_hellos(now, p);
    };

    const auto handle_req = [&](std::uint64_t now, ProcessId p,
                                const Packet& packet,
                                const FrameHeader& header) {
        Engine& engine = engines[p];
        InChannel& channel = in_channel(engine, packet.source);
        if (header.sequence == channel.last_committed + 1) {
            if (channel.pending) {
                // Duplicate of a REQ already buffered for the program.
                SYNCTS_ENSURE(channel.pending->sequence == header.sequence,
                              "two distinct uncommitted REQs on one channel");
                ++tally.req_duplicates;
                trace(obs::TraceEventKind::duplicate_drop, now, p,
                      packet.source, header.sequence, header.message,
                      logical(engine));
                return;
            }
            // The program may not have reached the matching receive yet.
            buffer_req(channel, header, engine.rx_stamp);
            trace(obs::TraceEventKind::receive, now, p, packet.source,
                  header.sequence, header.message,
                  logical(engine));
            progress(now, p);
            fast_forward(now, p);
            maybe_transition(now);
            return;
        }
        if (header.sequence <= channel.last_committed &&
            channel.last_committed > 0) {
            // The sender retransmitted after commit: its ACK was lost, or
            // this REQ copy was duplicated in flight — or a restarted
            // sender rewound and re-executed the send. Replay the ACK as
            // originally encoded; the clock is not touched, so no double
            // increment, and the sender's re-merge is bit-identical.
            const std::vector<std::uint8_t>* cached =
                channel.ack_window.find(header.sequence);
            if (cached != nullptr) {
                // Counted once: the REQ copy is answered (with the cached
                // ACK), not suppressed, so it is an ack_replay and *not*
                // also a req_duplicate. Replays of pre-rewind sequences
                // are counted separately.
                if (header.sequence == channel.last_committed) {
                    ++tally.ack_replays;
                } else {
                    ++tally.window_ack_replays;
                }
                trace(obs::TraceEventKind::ack_replay, now, p, packet.source,
                      header.sequence, header.message,
                      logical(engine));
                // Original full bytes — the resync.
                Packet ack =
                    frame_packet(p, packet.source, kAck, packet.tag, *cached);
                ++tally.full_frames;
                tx_send(now, std::move(ack), 0);
                return;
            }
            // The newest commit's ACK is always retained, so only
            // sequences older than the window can miss.
            SYNCTS_ENSURE(header.sequence < channel.last_committed,
                          "committed channel has no cached ACK");
            ++tally.req_duplicates;
            trace(obs::TraceEventKind::duplicate_drop, now, p, packet.source,
                  header.sequence, header.message,
                  logical(engine));
            return;
        }
        // A sender never advances past an unacknowledged sequence — but a
        // *rejoining* receiver's channel state is rewound, so a live
        // sender's current traffic (and the HELLO-driven window replay
        // that fills the gap) can run ahead of the commit point. Park the
        // frame rather than drop it: the sender re-times only the frame
        // it still considers outstanding, so a reordered middle frame
        // would otherwise never be sent again.
        SYNCTS_ENSURE(recovery_active, "REQ sequence from the future");
        if (channel.future.try_emplace(header.sequence, packet.body).second) {
            ++tally.future_buffered;
            trace(obs::TraceEventKind::park, now, p, packet.source,
                  header.sequence, header.message,
                  logical(engine));
        } else {
            ++tally.req_duplicates;
            trace(obs::TraceEventKind::duplicate_drop, now, p, packet.source,
                  header.sequence, header.message,
                  logical(engine));
        }
    };

    const auto handle_ack = [&](std::uint64_t now, ProcessId p,
                                const Packet& packet,
                                const FrameHeader& header) {
        Engine& engine = engines[p];
        if (!engine.outstanding ||
            engine.outstanding->receiver != packet.source ||
            engine.outstanding->sequence != header.sequence) {
            // Duplicate or replayed ACK for a rendezvous already finished.
            ++tally.ack_duplicates;
            trace(obs::TraceEventKind::duplicate_drop, now, p, packet.source,
                  header.sequence, header.message,
                  logical(engine));
            return;
        }
        const MessageId mid = engine.outstanding->mid;
        SegmentState& segment = segment_for(engine.epoch);
        SYNCTS_ENSURE(header.message == mid,
                      "ACK does not match the pending send");
        engine.clock->on_ack_into(packet.source, engine.rx_stamp,
                                  engine.stamp_scratch);
        SYNCTS_ENSURE(
            segment.handle_by_script[mid] != kNoTimestamp &&
                ts::equal(engine.stamp_scratch,
                          segment.arena->span(segment.handle_by_script[mid])),
            "sender and receiver disagree on a timestamp");
        trace(obs::TraceEventKind::ack, now, p, packet.source,
              header.sequence, mid, logical_total(engine.stamp_scratch));
        if (rendezvous_hist != nullptr) {
            rendezvous_hist->record(now -
                                    engine.outstanding->first_send_time);
            attempts_hist->record(engine.outstanding->retransmits + 1);
        }
        if (recovery_active) {
            WalRecord record;
            record.type = WalRecordType::ack;
            record.peer = packet.source;
            record.sequence = header.sequence;
            record.message = mid;
            record.epoch = engine.epoch;
            // Canonical full re-encoding of the ACK: the wire body may
            // be a delta (v3), but replay feeds record.aux to the
            // full-frame reader. Deterministic encoding makes this
            // byte-identical to the body on the classic path.
            encode_epoch_frame_into(engine.epoch, header.sequence, mid,
                                    engine.rx_stamp, engine.ack_bytes);
            record.aux = engine.ack_bytes;
            wal_append(p, std::move(record));
        }
        engine.spare_frame = std::move(engine.outstanding->frame);
        engine.outstanding.reset();
        ++engine.cursor;
        if (after_step(now, p)) return;  // crashed on this step
        progress(now, p);
        fast_forward(now, p);
        // Accepting an ACK can unblock the last sender of the epoch, so
        // this is one place barriers become due (re-executed commits
        // after a restart are the other).
        maybe_transition(now);
    };

    /// A checksum-valid frame from an epoch other than the engine's own.
    /// Frames from *ahead* are legitimate only while this engine is
    /// itself behind the barrier epoch (catching up after a restart);
    /// they are dropped and re-delivered by the sender's timer. Stale
    /// REQs are first checked against the ACK window — a restarted peer
    /// re-executing pre-barrier sends must receive the *original* ACK
    /// bytes — and otherwise answered with a NACK naming this engine's
    /// epoch. Stale ACKs and NACKs are dropped.
    const auto handle_epoch_mismatch = [&](std::uint64_t now, ProcessId p,
                                           const Packet& packet,
                                           const FrameHeader& header) {
        Engine& engine = engines[p];
        if (header.epoch > engine.epoch) {
            SYNCTS_ENSURE(engine.epoch < current_epoch,
                          "frame from a future epoch");
            trace(obs::TraceEventKind::epoch_reject, now, p, packet.source,
                  header.sequence, header.message, header.epoch);
            // A window replay answering this engine's HELLO can span
            // barriers it has not crossed yet; park later-epoch REQs just
            // like same-epoch out-of-order ones — the sender will not
            // re-send a frame it no longer considers outstanding.
            if (packet.kind == kReq) {
                InChannel& channel = in_channel(engine, packet.source);
                if (header.sequence > channel.last_committed &&
                    channel.future.try_emplace(header.sequence, packet.body)
                        .second) {
                    ++tally.future_buffered;
                    trace(obs::TraceEventKind::park, now, p, packet.source,
                          header.sequence, header.message, header.epoch);
                }
            }
            return;
        }
        ++tally.epoch_rejects;
        trace(obs::TraceEventKind::epoch_reject, now, p, packet.source,
              header.sequence, header.message, header.epoch);
        if (packet.kind != kReq) return;
        if (const auto it = engine.in.find(packet.source);
            it != engine.in.end()) {
            if (header.sequence <= it->second.last_committed) {
                if (const std::vector<std::uint8_t>* cached =
                        it->second.ack_window.find(header.sequence)) {
                    ++tally.window_ack_replays;
                    trace(obs::TraceEventKind::ack_replay, now, p,
                          packet.source, header.sequence, header.message,
                          logical(engine));
                    Packet ack = frame_packet(p, packet.source, kAck,
                                              packet.tag, *cached);
                    ++tally.full_frames;
                    tx_send(now, std::move(ack), 0);
                    return;
                }
            }
        }
        Packet nack = make_packet(p, packet.source, kNack, packet.tag);
        // A NACK is a header-only frame: this engine's epoch plus the
        // rejected (sequence, message), no timestamp payload.
        encode_epoch_frame_into(engine.epoch, header.sequence,
                                header.message, {}, nack.body);
        ++tally.nacks_sent;
        trace(obs::TraceEventKind::nack, now, p, packet.source,
              header.sequence, header.message, engine.epoch);
        post(now, std::move(nack));
    };

    /// NACK at the sender: if the rejected (channel, sequence) is still
    /// the in-flight send, re-encode it at the engine's epoch and resend
    /// immediately (the retransmission timer stays armed for it).
    /// Otherwise the rendezvous already completed — the NACK answered a
    /// duplicate copy — and it is dropped.
    const auto handle_nack = [&](std::uint64_t now, ProcessId p,
                                 const Packet& packet,
                                 const FrameHeader& header) {
        Engine& engine = engines[p];
        if (header.epoch != engine.epoch || !engine.outstanding ||
            engine.outstanding->receiver != packet.source ||
            engine.outstanding->sequence != header.sequence) {
            ++tally.nack_drops;
            trace(obs::TraceEventKind::nack, now, p, packet.source,
                  header.sequence, header.message, header.epoch);
            return;
        }
        Outstanding& out = *engine.outstanding;
        encode_epoch_frame_into(engine.epoch, out.sequence, out.mid,
                                engine.clock->current_span(), out.frame);
        if (wire_ext) {
            // Full-vector resync on NACK: the channel just crossed an
            // epoch boundary under the sender's feet, so the old-epoch
            // shadow (and any claim to sequence continuity) is void.
            out_channel(engine, packet.source).req_shadow.valid = false;
        }
        ++tally.nack_retransmits;
        trace(obs::TraceEventKind::retransmit, now, p, packet.source,
              out.sequence, out.mid,
              logical(engine));
        Packet req = frame_packet(p, out.receiver, kReq, out.mid, out.frame);
        ++tally.full_frames;
        tx_send(now, std::move(req), 0);
    };

    /// A restarted neighbor announced itself: replay every REQ in the
    /// send window beyond its committed high-water mark (original bytes,
    /// original epoch tags) and acknowledge the handshake.
    const auto handle_hello = [&](std::uint64_t now, ProcessId p,
                                  const Packet& packet) {
        Engine& engine = engines[p];
        std::uint64_t peer_committed = 0;
        FrameHeader header;
        try {
            header = decode_epoch_frame_into(
                packet.body, std::span<std::uint64_t>(&peer_committed, 1));
        } catch (const WireError&) {
            ++tally.corrupt_rejects;
            trace(obs::TraceEventKind::corrupt_reject, now, p, packet.source,
                  packet.kind, packet.tag,
                  logical(engine));
            return;
        }
        trace(obs::TraceEventKind::hello, now, p, packet.source,
              header.sequence, peer_committed,
              logical(engine));
        if (const auto it = engine.out.find(packet.source);
            it != engine.out.end()) {
            it->second.req_window.for_each([&](const FrameWindow::Entry&
                                                   entry) {
                if (entry.sequence <= peer_committed) return;
                const FrameHeader cached = peek_epoch_frame_header(entry.frame);
                Packet req = frame_packet(p, packet.source, kReq,
                                          cached.message, entry.frame);
                ++tally.window_retransmits;
                trace(obs::TraceEventKind::retransmit, now, p, packet.source,
                      entry.sequence, cached.message,
                      logical(engine));
                // A replay burst to one destination batches naturally:
                // every frame here shares the rejoiner's address.
                ++tally.full_frames;
                tx_send(now, std::move(req), 0);
            });
        }
        Packet reply = make_packet(p, packet.source, kHelloAck, 0);
        // Echo of the handshake attempt whose width-1 "stamp" carries
        // this engine's send frontier toward the rejoiner — the highest
        // sequence it has assigned on that channel. The rejoiner is owed
        // every frame up to it and uses the figure to watchdog the
        // (droppable, never re-timed) window replay above.
        std::uint64_t frontier = 0;
        if (const auto it = engine.out.find(packet.source);
            it != engine.out.end()) {
            frontier = it->second.next_sequence;
        }
        encode_epoch_frame_into(engine.epoch, header.sequence, 0,
                                std::span<const std::uint64_t>(&frontier, 1),
                                reply.body);
        ++tally.hello_acks;
        post(now, std::move(reply));
    };

    const auto handle_hello_ack = [&](std::uint64_t now, ProcessId p,
                                      const Packet& packet) {
        Engine& engine = engines[p];
        FrameHeader header;
        std::uint64_t frontier = 0;
        try {
            header = decode_epoch_frame_into(
                packet.body, std::span<std::uint64_t>(&frontier, 1));
        } catch (const WireError&) {
            ++tally.corrupt_rejects;
            trace(obs::TraceEventKind::corrupt_reject, now, p, packet.source,
                  packet.kind, packet.tag,
                  logical(engine));
            return;
        }
        // Record the peer's frontier even on a late/duplicate ACK: the
        // owed-frame gap it reveals is real regardless of handshake
        // bookkeeping, and only a watchdog will close it if the window
        // replay is lost.
        InChannel& channel = in_channel(engine, packet.source);
        if (frontier > channel.replay_target) {
            channel.replay_target = frontier;
        }
        if (channel.last_committed < channel.replay_target &&
            !channel.watchdog_armed) {
            channel.watchdog_armed = true;
            arm_replay_watchdog(now, p, packet.source,
                                channel.replay_attempts);
        }
        if (!engine.rejoining) return;  // late copy of a settled handshake
        const auto it = std::find(engine.awaiting_hello.begin(),
                                  engine.awaiting_hello.end(),
                                  packet.source);
        if (it == engine.awaiting_hello.end()) return;
        engine.awaiting_hello.erase(it);
        trace(obs::TraceEventKind::hello, now, p, packet.source,
              header.sequence, 1,
              logical(engine));
        if (engine.awaiting_hello.empty()) complete_rejoin(now, p);
    };

    /// Extended-path dispatch of one REQ/ACK/NACK frame — a bare packet
    /// or a batch entry. Classifies with peek_frame_info (checksum +
    /// header, no component decode), validates the kind *semantically*
    /// (a batch entry's kind/tag varints sit outside the inner frame
    /// checksum, so a flipped kind bit could present an ACK as a REQ —
    /// message ids are globally unique, so the script is the
    /// authority), decodes full or delta against the channel shadow,
    /// and hands the existing handlers a pre-filled rx_stamp exactly
    /// like the classic dispatcher. Delta frames whose shadow does not
    /// apply (or that would have to be parked for later) are dropped as
    /// resync misses — the sender's retransmission path always carries
    /// the full frame that re-seeds the shadow.
    const auto deliver_frame = [&](std::uint64_t now, ProcessId p,
                                   const Packet& packet) {
        Engine& engine = engines[p];
        const auto reject = [&] {
            ++tally.corrupt_rejects;
            trace(obs::TraceEventKind::corrupt_reject, now, p, packet.source,
                  packet.kind, packet.tag,
                  logical(engine));
        };
        FrameInfo info;
        try {
            info = peek_frame_info(packet.body);
        } catch (const WireError&) {
            reject();
            return;
        }
        const FrameHeader& header = info.header;
        if (packet.kind == kNack) {
            if (info.delta) {
                reject();  // NACKs are header-only, never delta
                return;
            }
            handle_nack(now, p, packet, header);
            return;
        }
        if (packet.kind == kReq) {
            // The scripted message must exist and run source -> p; a
            // mislabeled ACK always fails this (its message's sender is
            // p itself), as does any corrupted kind/tag.
            if (header.epoch >= num_epochs ||
                header.message >= scripts[header.epoch].num_messages()) {
                reject();
                return;
            }
            const SyncMessage& m = scripts[header.epoch].message(
                static_cast<MessageId>(header.message));
            if (m.sender != packet.source || m.receiver != p) {
                reject();
                return;
            }
        } else if (packet.kind == kAck) {
            // A mislabeled REQ could match the outstanding (receiver,
            // sequence) by coincidence — the sequence spaces of the two
            // directions are independent — but never its message id;
            // pre-check it gracefully where handle_ack would ENSURE.
            if (engine.outstanding &&
                engine.outstanding->receiver == packet.source &&
                engine.outstanding->sequence == header.sequence &&
                engine.outstanding->mid != header.message) {
                reject();
                return;
            }
        } else {
            reject();  // damaged batch-entry kind
            return;
        }
        if (header.epoch != engine.epoch) {
            if (info.delta && header.epoch > engine.epoch) {
                // Would have to be parked for a later epoch, but a
                // parked delta has no decodable base by promotion time.
                ++tally.delta_resyncs;
                trace(obs::TraceEventKind::delta_resync, now, p,
                      packet.source, header.sequence, header.message,
                      logical(engine));
                return;
            }
            // Stale frames never need their stamp decoded (window
            // replay and NACK are header-driven), so delta and full
            // take the same path here.
            handle_epoch_mismatch(now, p, packet, header);
            return;
        }
        if (packet.kind == kReq) {
            InChannel& channel = in_channel(engine, packet.source);
            const bool fresh =
                header.sequence == channel.last_committed + 1 &&
                !channel.pending;
            if (fresh) {
                // Pre-fill engine.rx_stamp for handle_req's fresh path.
                if (info.delta) {
                    if (!delta_ready(channel.rx_shadow, header.epoch,
                                     header.sequence,
                                     engine.rx_stamp.size())) {
                        ++tally.delta_resyncs;
                        trace(obs::TraceEventKind::delta_resync, now, p,
                              packet.source, header.sequence,
                              header.message, logical(engine));
                        return;
                    }
                    try {
                        decode_delta_frame_into(packet.body,
                                                channel.rx_shadow.stamp,
                                                engine.rx_stamp);
                    } catch (const WireError&) {
                        reject();
                        return;
                    }
                } else {
                    try {
                        decode_epoch_frame_into(packet.body,
                                                engine.rx_stamp);
                    } catch (const WireError&) {
                        reject();
                        return;
                    }
                }
                update_shadow(channel.rx_shadow, header.epoch,
                              header.sequence, engine.rx_stamp);
            } else if (info.delta &&
                       header.sequence > channel.last_committed + 1) {
                // Parking a delta body would strand it (see above).
                ++tally.delta_resyncs;
                trace(obs::TraceEventKind::delta_resync, now, p,
                      packet.source, header.sequence, header.message,
                      logical(engine));
                return;
            }
            // Duplicate/stale/park branches never read rx_stamp.
            handle_req(now, p, packet, header);
            return;
        }
        // kAck: decode (pre-filling rx_stamp for on_ack_into), then let
        // handle_ack match or drop exactly as the classic path does.
        OutChannel& channel = out_channel(engine, packet.source);
        if (info.delta) {
            if (!delta_ready(channel.ack_rx_shadow, header.epoch,
                             header.sequence, engine.rx_stamp.size())) {
                ++tally.delta_resyncs;
                trace(obs::TraceEventKind::delta_resync, now, p,
                      packet.source, header.sequence, header.message,
                      logical(engine));
                return;
            }
            try {
                decode_delta_frame_into(packet.body,
                                        channel.ack_rx_shadow.stamp,
                                        engine.rx_stamp);
            } catch (const WireError&) {
                reject();
                return;
            }
        } else {
            try {
                decode_epoch_frame_into(packet.body, engine.rx_stamp);
            } catch (const WireError&) {
                reject();
                return;
            }
        }
        update_shadow(channel.ack_rx_shadow, header.epoch, header.sequence,
                      engine.rx_stamp);
        handle_ack(now, p, packet, header);
    };

    // Sub-packet scratch for batch entries, reused across containers
    // (deliveries never nest, so one suffices).
    Packet batch_entry;
    for (ProcessId p = 0; p < n_max; ++p) {
        network.on_deliver(p, [&, p](std::uint64_t now, const Packet& packet) {
            Engine& engine = engines[p];
            if (engine.down) return;  // the network already drops these
            if (packet.kind == kHello) {
                handle_hello(now, p, packet);
                return;
            }
            if (packet.kind == kHelloAck) {
                handle_hello_ack(now, p, packet);
                return;
            }
            if (wire_ext) {
                if (packet.kind == kBatch) {
                    // Unpack the container and run each entry through
                    // the frame dispatcher as its own sub-packet. The
                    // outer checksum is advisory — per-entry inner
                    // checksums decide survival — but a structural
                    // break (corrupted length/varint) loses the
                    // remainder; retransmission recovers it like a
                    // lost packet.
                    try {
                        BatchReader reader(packet.body);
                        BatchFrame::Entry entry;
                        Packet& sub = batch_entry;
                        sub.source = packet.source;
                        sub.destination = packet.destination;
                        while (reader.next(entry)) {
                            if (engines[p].down) return;  // mid-batch crash
                            if (entry.kind > kHelloAck) {
                                // Damaged kind varint (could alias a
                                // valid kind after u32 truncation).
                                ++tally.corrupt_rejects;
                                trace(obs::TraceEventKind::corrupt_reject,
                                      now, p, packet.source, packet.kind,
                                      entry.kind, logical(engines[p]));
                                continue;
                            }
                            sub.kind = static_cast<std::uint32_t>(entry.kind);
                            sub.tag = entry.tag;
                            copy_frame(entry.body, sub.body);
                            deliver_frame(now, p, sub);
                        }
                    } catch (const WireError&) {
                        ++tally.corrupt_rejects;
                        trace(obs::TraceEventKind::corrupt_reject, now, p,
                              packet.source, packet.kind, packet.tag,
                              logical(engines[p]));
                    }
                    return;
                }
                deliver_frame(now, p, packet);
                return;
            }
            FrameHeader header;
            if (packet.kind == kNack) {
                // NACKs carry no timestamp; read the header only.
                try {
                    header = peek_epoch_frame_header(packet.body);
                } catch (const WireError&) {
                    ++tally.corrupt_rejects;
                    trace(obs::TraceEventKind::corrupt_reject, now, p,
                          packet.source, packet.kind, packet.tag,
                          logical(engine));
                    return;
                }
                handle_nack(now, p, packet, header);
                return;
            }
            try {
                header = decode_epoch_frame_into(packet.body, engine.rx_stamp);
            } catch (const WireError&) {
                // Either corrupted in flight, or a healthy frame from
                // another epoch whose width no longer matches — the
                // checksum-validated header tells the two apart.
                try {
                    header = peek_epoch_frame_header(packet.body);
                } catch (const WireError&) {
                    ++tally.corrupt_rejects;
                    trace(obs::TraceEventKind::corrupt_reject, now, p,
                          packet.source, packet.kind, packet.tag,
                          logical(engine));
                    return;
                }
                if (header.epoch == engine.epoch) {
                    // Same epoch, bad payload: genuinely malformed.
                    ++tally.corrupt_rejects;
                    trace(obs::TraceEventKind::corrupt_reject, now, p,
                          packet.source, packet.kind, packet.tag,
                          logical(engine));
                    return;
                }
                handle_epoch_mismatch(now, p, packet, header);
                return;
            }
            if (header.epoch != engine.epoch) {
                handle_epoch_mismatch(now, p, packet, header);
                return;
            }
            if (packet.kind == kReq) {
                handle_req(now, p, packet, header);
            } else {
                handle_ack(now, p, packet, header);
            }
        });
    }

    // Kick off every epoch-0 process at time 0; leading message-free
    // epochs transition immediately. With recovery armed, every process
    // checkpoints its initial state first, so even a crash on the very
    // first step has a snapshot to restart from.
    {
        if (recovery_active) {
            for (ProcessId p = 0; p < n_max; ++p) take_snapshot(p);
        }
        const std::size_t n = topology.epoch(0).num_processes();
        for (ProcessId p = 0; p < n; ++p) progress(0, p);
        maybe_transition(0);
    }
    ReconfigurableRunResult result;
    result.virtual_duration = network.run();
    result.packets = network.packets_delivered();
    result.network_faults = network.fault_stats();
    result.protocol = ProtocolStats{
        .bytes_sent = tally.bytes_sent,
        .wire_packets = tally.wire_packets,
        .batch_packets = tally.batch_packets,
        .batch_frames = tally.batch_frames,
        .acks_coalesced = tally.acks_coalesced,
        .delta_frames = tally.delta_frames,
        .full_frames = tally.full_frames,
        .delta_resyncs = tally.delta_resyncs,
        .bsched_deferrals = tally.bsched_deferrals};

    if (options.metrics != nullptr) {
        obs::MetricsRegistry& m = *options.metrics;
        m.counter("sync_req_sent").inc(tally.req_sent);
        m.counter("sync_commits").inc(tally.commits);
        m.counter("sync_retransmits").inc(tally.retransmits);
        m.counter("sync_timeouts").inc(tally.timeouts);
        m.counter("sync_req_duplicates").inc(tally.req_duplicates);
        m.counter("sync_ack_duplicates").inc(tally.ack_duplicates);
        m.counter("sync_ack_replays").inc(tally.ack_replays);
        m.counter("sync_frames_corrupt_rejected").inc(tally.corrupt_rejects);
        m.counter("sync_packets_delivered").inc(result.packets);
        m.counter("sync_runs").inc();
        m.counter("sync_epoch_transitions").inc(num_epochs - 1);
        m.counter("sync_epoch_rejects").inc(tally.epoch_rejects);
        m.counter("sync_nacks_sent").inc(tally.nacks_sent);
        m.counter("sync_nack_drops").inc(tally.nack_drops);
        m.counter("sync_nack_retransmits").inc(tally.nack_retransmits);
        m.gauge("sync_virtual_ticks")
            .set(static_cast<std::int64_t>(result.virtual_duration));
        m.counter("sync_bytes_sent").inc(tally.bytes_sent);
        m.counter("sync_wire_packets").inc(tally.wire_packets);
        if (wire_ext) {
            m.counter("sync_batch_packets").inc(tally.batch_packets);
            m.counter("sync_batch_frames").inc(tally.batch_frames);
            m.counter("sync_acks_coalesced").inc(tally.acks_coalesced);
            m.counter("wire_delta_frames").inc(tally.delta_frames);
            m.counter("wire_full_frames").inc(tally.full_frames);
            m.counter("wire_delta_resyncs").inc(tally.delta_resyncs);
        }
        if (bsched) {
            m.counter("bsched_admitted").inc(bsched->counters().admitted);
            m.counter("bsched_refused").inc(bsched->counters().refused);
            m.counter("bsched_bytes_admitted")
                .inc(bsched->counters().bytes_admitted);
            m.counter("bsched_deferrals").inc(tally.bsched_deferrals);
        }
        m.counter("net_packets_dropped")
            .inc(result.network_faults.dropped +
                 result.network_faults.targeted_drops);
        m.counter("net_packets_duplicated")
            .inc(result.network_faults.duplicated);
        m.counter("net_packets_corrupted")
            .inc(result.network_faults.corrupted);
        m.counter("net_packets_delayed").inc(result.network_faults.delayed);
        if (recovery_active) {
            m.counter("recover_crashes").inc(result.network_faults.crashes);
            m.counter("recover_restarts").inc(tally.restarts);
            m.counter("recover_replayed_records").inc(tally.replayed_records);
            m.counter("recover_snapshots").inc(tally.snapshots);
            m.counter("recover_recommits").inc(tally.recommits);
            m.counter("recover_window_ack_replays")
                .inc(tally.window_ack_replays);
            m.counter("recover_window_retransmits")
                .inc(tally.window_retransmits);
            m.counter("recover_hellos").inc(tally.hellos);
            m.counter("recover_hello_acks").inc(tally.hello_acks);
            m.counter("recover_future_buffered").inc(tally.future_buffered);
            m.counter("recover_fast_forwards").inc(tally.fast_forwards);
            m.counter("net_down_drops").inc(result.network_faults.down_drops);
            std::uint64_t wal_appends = 0;
            std::uint64_t wal_flushes = 0;
            std::uint64_t wal_truncated = 0;
            std::uint64_t wal_dropped = 0;
            for (const DurableStore& store : stores) {
                wal_appends += store.wal.appends();
                wal_flushes += store.wal.flushes();
                wal_truncated += store.wal.truncated_records();
                wal_dropped += store.wal.dropped_records();
            }
            m.counter("recover_wal_appends").inc(wal_appends);
            m.counter("recover_wal_flushes").inc(wal_flushes);
            m.counter("recover_wal_truncated").inc(wal_truncated);
            m.counter("recover_wal_dropped").inc(wal_dropped);
        }
        if (sink != nullptr) {
            // Ring-pressure diagnostics: how many events wrapped away and
            // the retention high-water mark, so an undersized sink is
            // visible in every report instead of silently profiling a
            // truncated window.
            m.counter("trace_dropped")
                .inc(sink->dropped() - sink_dropped_before);
            m.gauge("trace_peak_events")
                .set_max(static_cast<std::int64_t>(sink->peak_size()));
        }
        if (recorder != nullptr) recorder->publish_metrics(m);
    }

    SYNCTS_ENSURE(current_epoch == num_epochs - 1,
                  "protocol finished before the last epoch");
    for (const Engine& engine : engines) {
        SYNCTS_ENSURE(!engine.down, "protocol finished with a process down");
        SYNCTS_ENSURE(!engine.rejoining, "protocol finished mid-rejoin");
        SYNCTS_ENSURE(engine.epoch == current_epoch,
                      "protocol finished with a lagging process");
        SYNCTS_ENSURE(engine.cursor == engine.script.size(),
                      "protocol finished with unexecuted script actions");
        SYNCTS_ENSURE(!engine.outstanding, "protocol finished mid-rendezvous");
    }
    for (const TxProc& proc : tx) {
        for (const auto& [dst, q] : proc.queues) {
            SYNCTS_ENSURE(q.batch.empty(),
                          "protocol finished with queued frames");
        }
    }

    // The run finished cleanly, so nothing can rewind anymore: release
    // every durable pin, then flush whatever the frontier had not yet
    // retired, in epoch order behind the already-retired prefix.
    if (recovery_active) {
        for (ProcessId p = 0; p < n_max; ++p) {
            if (durable_epoch[p] != kNoDurableEpoch) {
                regions.unpin(durable_epoch[p]);
                durable_epoch[p] = kNoDurableEpoch;
            }
        }
    }
    while (flushed_below < num_epochs) {
        flush_segment(flushed_below);
        ++flushed_below;
    }
    SYNCTS_ENSURE(regions.live_regions() == 0,
                  "run finished with live regions");
    // Park every live process clock so a caller-owned stock carries the
    // engines into the next run (a run-local stock dies here anyway).
    for (Engine& engine : engines) {
        stock.restock_clock(std::move(engine.clock));
    }
    result.segments = std::move(flushed);
    return result;
}

}  // namespace syncts
