#include "runtime/reconfig_runtime.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "clocks/wire.hpp"
#include "common/check.hpp"
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

/// What a Timer record asks its process to do when it fires.
enum class TimerKind : std::uint32_t {
    flush,       ///< flush the TX queues
    restart,     ///< restart after a crash
    retransmit,  ///< resend the REQ (a = receiver, b = sequence)
    hello,       ///< re-send rejoin HELLOs while still rejoining
    watchdog,    ///< chase a replay gap (a = peer)
};

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
    std::uint64_t corrupt_rejects = 0;    ///< at most one per packet
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
    /// Wire-path tallies (docs/PROTOCOL.md), published as sync_bytes_sent,
    /// sync_wire_packets, sync_batch_*, wire_* and bsched_deferrals.
    ProtocolStats wire;
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
    /// Delta shadows (kept with delta on only): the last REQ stamp
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
    /// Delta shadows (kept with delta on only): the last REQ stamp sent
    /// on this channel and the last ACK stamp decoded off its reverse
    /// direction. Trailing members — see InChannel.
    ShadowVector req_shadow{};
    ShadowVector ack_rx_shadow{};
};

/// Per-process protocol engine: walks the process's script for its
/// current epoch, issuing REQs for sends and consuming buffered REQs for
/// receives. Channel state persists across epochs; clock and scratch are
/// rebound at each barrier. `epoch` is the engine's own epoch — equal to
/// the global barrier epoch except while the process is catching up
/// after a crash.
struct Engine {
    ProcessId self = 0;
    EpochId epoch = 0;
    std::vector<ProcessEvent> script;  // current epoch's message events
    std::size_t cursor = 0;
    /// The process's Fig. 5 clock; empty while the process is down or
    /// outside its epoch's graph.
    std::optional<OnlineProcessClock> clock;
    std::optional<Outstanding> outstanding;
    /// The last completed send's frame buffer, reused by the next send.
    std::vector<std::uint8_t> spare_frame;
    /// Outgoing-channel state by receiver.
    std::unordered_map<ProcessId, OutChannel> out;
    /// Incoming-channel state by sender.
    std::unordered_map<ProcessId, InChannel> in;
    /// Width-d scratch for the span protocol hooks: decoded inbound
    /// stamp, outbound acknowledgement, and the stamp a recommit or an
    /// ACK computes to check against the committed one. Resized at each
    /// epoch barrier so the per-packet path allocates nothing.
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
    /// Bumped at every crash; timer records carry it and fire() drops a
    /// mismatch, so a restarted incarnation never executes a dead one's
    /// timers.
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

/// One per-destination TX queue (any ProtocolOptions knob on): the frames a
/// process has queued toward one peer, the earliest deadline any of
/// them carries, and the queue's deficit-round-robin service credit
/// with the bandwidth scheduler. The BatchFrame doubles as the queue
/// storage — supersede() retires coalesced ACKs in place.
struct TxQueue {
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
/// stamps (slot = realized-message index) and the script-id mapping.
/// Created lazily at the epoch's first commit; once the stability
/// frontier passes the epoch, all three move into the run's result
/// (docs/MEMORY.md). The receiver's clock hook writes each first-commit
/// stamp straight into its slot, so a stamp is written once.
struct SegmentState {
    SyncComputation computation;
    /// Reserved to the script's size, so a commit never moves a slot.
    std::vector<VectorTimestamp> stamps;
    std::vector<TsHandle> handle_by_script;
    std::vector<MessageId> script_message;

    SegmentState(const Graph& graph, std::size_t messages)
        : computation(graph), handle_by_script(messages, kNoTimestamp) {
        stamps.reserve(messages);
    }
};

/// Backoff doubles per attempt, capped at base_rto << kMaxBackoffExponent.
constexpr std::uint32_t kMaxBackoffExponent = 6;

constexpr EpochId kNoDurableEpoch = std::numeric_limits<EpochId>::max();

/// Rejects scripts and options a run cannot execute, before any state
/// is built.
void validate_run(const TopologyManager& topology,
                  std::span<const SyncComputation> scripts,
                  const SynchronizerOptions& options) {
    SYNCTS_REQUIRE(scripts.size() == topology.num_epochs(),
                   "need exactly one script per topology epoch");
    SYNCTS_REQUIRE(options.max_retransmits > 0,
                   "max_retransmits must be positive");
    for (EpochId e = 0; e < topology.num_epochs(); ++e) {
        const Graph& graph = topology.epoch(e).graph();
        SYNCTS_REQUIRE(scripts[e].num_processes() == graph.num_vertices(),
                       "script and epoch disagree on process count");
        for (const SyncMessage& m : scripts[e].messages()) {
            SYNCTS_REQUIRE(graph.has_edge(m.sender, m.receiver),
                           "script uses a channel its epoch does not have");
        }
    }
    SYNCTS_REQUIRE(options.recovery.wal_flush_interval >= 1,
                   "wal_flush_interval must be >= 1");
    SYNCTS_REQUIRE(options.recovery.snapshot_interval >= 1,
                   "snapshot_interval must be >= 1");
    if (options.recovery.enabled || !options.faults.crashes.empty()) {
        // A restarted peer rewinds at most one flush interval of
        // rendezvous per channel, so this bound is what guarantees every
        // rejoin replay hits the window (docs/RECOVERY.md).
        SYNCTS_REQUIRE(
            options.recovery.window >= options.recovery.wal_flush_interval,
            "the frame window must be at least as deep as the WAL flush "
            "interval");
    }
    for (const CrashRule& rule : options.faults.crashes) {
        SYNCTS_REQUIRE(rule.process < topology.max_num_processes(),
                       "crash rule names an unknown process");
    }
}

/// One run of the protocol: the simulated system (network, engines,
/// durable stores, TX queues, epoch segments) and the handlers that drive
/// it. Every wire profile runs the same send path (send_req / receive)
/// and the same receive path (deliver → deliver_frame); the
/// ProtocolOptions knobs only decide whether packets pass through the TX
/// queues and whether bodies are deltas. Timers are plain records that
/// fire() dispatches. The timer and delivery handlers capture `this`, so
/// the object never moves.
class ProtocolRun {
public:
    ProtocolRun(const TopologyManager& topology,
                std::span<const SyncComputation> scripts,
                const SynchronizerOptions& options);
    ProtocolRun(const ProtocolRun&) = delete;
    ProtocolRun& operator=(const ProtocolRun&) = delete;

    ReconfigurableRunResult run();

private:
    const TopologyManager& topology_;
    const std::span<const SyncComputation> scripts_;
    const SynchronizerOptions& options_;
    const ProtocolOptions& proto_ = options_.protocol;
    const std::size_t num_epochs_ = topology_.num_epochs();
    const std::size_t n_max_ = topology_.max_num_processes();
    /// The crash-recovery layer is armed by crash rules or explicitly.
    const bool recovery_active_ =
        options_.recovery.enabled || !options_.faults.crashes.empty();
    /// Batching, ACK coalescing, delta vectors, and bandwidth scheduling
    /// all route sends through per-destination TX queues flushed by
    /// same-tick (REQ) or bounded-delay (coalesced ACK) timers. With
    /// every knob off, tx_send is a direct network send plus byte
    /// accounting — the classic one-frame-per-packet profile. Timestamps
    /// are identical either way: they depend only on script order, never
    /// on packet count or delivery schedule (docs/PROTOCOL.md).
    const bool wire_ext_ = proto_.active();
    obs::TraceSink* const sink_ = options_.trace;
    obs::FlightRecorder* const recorder_ = options_.recorder;
    const bool tracing_ = sink_ != nullptr || recorder_ != nullptr;
    // Ring losses charged to *this* run: a caller reusing one sink
    // across runs carries its cumulative dropped() in, so the counter
    // publishes the delta.
    const std::uint64_t sink_dropped_before_ =
        sink_ != nullptr ? sink_->dropped() : 0;
    obs::Histogram* rendezvous_hist_ = nullptr;
    obs::Histogram* attempts_hist_ = nullptr;
    obs::Histogram* snapshot_bytes_hist_ = nullptr;
    obs::Histogram* replay_hist_ = nullptr;
    // Retransmission is armed whenever the network can lose or corrupt a
    // packet (or the caller asks for it explicitly); on a reliable network
    // it stays off so the wire profile is exactly 2 packets per message.
    const bool retransmission_ =
        options_.retransmit_timeout > 0 || options_.faults.active();
    const std::uint64_t base_rto_ =
        options_.retransmit_timeout > 0
            ? options_.retransmit_timeout
            : 4 * (options_.latency_hi + options_.faults.max_extra_delay) + 1;
    const std::uint64_t max_rto_ = base_rto_ << kMaxBackoffExponent;
    // ACKs wait at most this long for a ride; well under any RTO
    // (base_rto >= 4 * latency_hi + 1), so coalescing never races a
    // peer's retransmission timer.
    const std::uint64_t coalesce_delay_ =
        std::max<std::uint64_t>(options_.latency_hi, 1);
    // Without recovery a single cached ACK per channel suffices (the
    // classic lost-ACK replay); a capacity-1 window keeps that exact
    // behaviour. With recovery the window must absorb crash rewinds.
    const std::size_t window_capacity_ =
        recovery_active_ ? options_.recovery.window : 1;

    std::vector<std::vector<CrashRule>> crash_rules_;
    Tally tally_;
    AsyncSimulator network_{n_max_, options_.seed};
    std::vector<Engine> engines_;
    std::vector<DurableStore> stores_;

    std::optional<BandwidthScheduler> bsched_;
    std::vector<TxProc> tx_;

    // The barrier state: every live, caught-up engine stamps, frames, and
    // validates against this one epoch. A restarted engine may lag behind
    // it until its rejoin fast-forwards.
    EpochId current_epoch_ = 0;

    // Segments are created lazily (a message-free epoch never builds
    // one) and retired eagerly: once the stability frontier passes an
    // epoch, its segment moves into the result.
    std::vector<std::unique_ptr<SegmentState>> segments_;

    // Drummond–Barbosa stability frontier: the lowest epoch any process
    // could still rewind into. With recovery armed that is the lowest
    // durable-snapshot epoch across processes — a crashed process
    // restarts from its snapshot and re-executes forward, and every
    // recommit verifies bit-identity against the original stamp, so
    // segments at or above a durable epoch must stay unretired. Without
    // recovery nothing ever rewinds and the frontier is the barrier
    // epoch itself. segment_for() rejects a retired epoch as defense in
    // depth: were the frontier arithmetic ever wrong, the run fails
    // loudly instead of recommitting against a moved-out segment.
    std::vector<EpochId> durable_epoch_;

    std::vector<EpochSegmentResult> flushed_;
    EpochId flushed_below_ = 0;

    // Stamp buffers of committed REQs, reused by the next buffered REQ.
    std::vector<std::vector<std::uint64_t>> spare_stamps_;
    // Sub-packet scratch for batch entries, reused across containers
    // (deliveries never nest, so one suffices).
    Packet batch_entry_;

    // ---- Tracing --------------------------------------------------------

    /// One line per protocol event; `logical` is the acting process's
    /// clock-vector total at record time, tying wire activity to causal
    /// progress. The recorder mirrors every event into its own bounded
    /// ring so the black box works with full tracing off.
    void trace(obs::TraceEventKind kind, std::uint64_t now, ProcessId process,
               ProcessId peer, std::uint64_t a, std::uint64_t b,
               std::uint64_t logical) {
        if (!tracing_) return;
        obs::TraceEvent event;
        event.virtual_time = now;
        event.logical = logical;
        event.arg_a = a;
        event.arg_b = b;
        event.process = process;
        event.peer = peer;
        event.kind = kind;
        if (sink_ != nullptr) sink_->record(event);
        if (recorder_ != nullptr) recorder_->record(event);
    }

    /// Logical-time arguments for trace records: a width-d sum, so it is
    /// computed only when something records it.
    std::uint64_t logical_total(std::span<const std::uint64_t> clock) const {
        return tracing_ ? ts::total(clock) : 0;
    }

    /// Null-safe: with crash rules armed, a frame can reach an engine
    /// that currently has no clock (its process is absent from its
    /// epoch's graph, or it is mid-restart).
    std::uint64_t logical(ProcessId p) const {
        const Engine& engine = engines_[p];
        return engine.clock ? logical_total(engine.clock->current_span()) : 0;
    }

    /// A frame event on p's channel with the packet's source.
    void trace_frame(obs::TraceEventKind kind, std::uint64_t now, ProcessId p,
                     const Packet& packet, const FrameHeader& header) {
        trace(kind, now, p, packet.source, header.sequence, header.message,
              logical(p));
    }

    // ---- Sending --------------------------------------------------------

    /// Every packet leaves through here: wire accounting, then the
    /// network. (The network's fault injector sits underneath, so these
    /// tallies count *sent* traffic — under drops they exceed the
    /// delivered-packet count.)
    void post(std::uint64_t now, Packet&& packet) {
        ++tally_.wire.wire_packets;
        tally_.wire.bytes_sent += packet.body.size();
        network_.send(now, std::move(packet));
    }

    /// A packet whose body is a recycled network buffer (empty; the caller
    /// encodes or copies the frame into it).
    Packet make_packet(ProcessId source, ProcessId destination,
                       std::uint32_t kind, std::uint64_t tag) {
        return Packet{source, destination, kind, tag, network_.take_body()};
    }

    /// Sends a copy of a stored canonical full frame: a retransmission,
    /// a replay, or a resync.
    void send_full_frame(std::uint64_t now, ProcessId source,
                         ProcessId destination, std::uint32_t kind,
                         std::uint64_t tag,
                         std::span<const std::uint8_t> frame) {
        Packet packet = make_packet(source, destination, kind, tag);
        copy_frame(frame, packet.body);
        ++tally_.wire.full_frames;
        tx_send(now, std::move(packet), 0);
    }

    /// Sends a fresh REQ or ACK (tag = its message id). The wire body is
    /// a delta against the channel's last-sent shadow when delta is on
    /// and the shadow applies, else `full` — the canonical full frame
    /// that the windows, the WAL and the outstanding record hold. Every
    /// resend or replay path sends full frames, so any shadow break
    /// converges.
    void send_stamped(std::uint64_t now, Packet&& packet, ShadowVector& shadow,
                      EpochId epoch, std::uint64_t sequence,
                      std::span<const std::uint64_t> stamp,
                      std::span<const std::uint8_t> full,
                      std::uint64_t delay) {
        if (proto_.delta &&
            delta_ready(shadow, epoch, sequence, stamp.size()) &&
            encode_delta_frame_into(epoch, sequence, packet.tag, shadow.stamp,
                                    stamp, packet.body)) {
            ++tally_.wire.delta_frames;
        } else {
            copy_frame(full, packet.body);
            ++tally_.wire.full_frames;
        }
        if (proto_.delta) update_shadow(shadow, epoch, sequence, stamp);
        tx_send(now, std::move(packet), delay);
    }

    /// A HELLO or HELLO_ACK: an epoch frame at p's epoch whose width-1
    /// "stamp" carries `value` and whose sequence field numbers
    /// handshake attempts.
    void send_hello(std::uint64_t now, ProcessId p, ProcessId peer,
                    std::uint32_t kind, std::uint64_t sequence,
                    std::uint64_t value) {
        Packet hello = make_packet(p, peer, kind, 0);
        encode_epoch_frame_into(engines_[p].epoch, sequence, 0,
                                std::span<const std::uint64_t>(&value, 1),
                                hello.body);
        ++(kind == kHello ? tally_.hellos : tally_.hello_acks);
        post(now, std::move(hello));
    }

    /// Arms a timer of process p, stamped with p's current incarnation.
    void arm(std::uint64_t when, ProcessId p, TimerKind kind,
             std::uint64_t a = 0, std::uint64_t b = 0) {
        network_.schedule(when, Timer{p, static_cast<std::uint32_t>(kind),
                                      engines_[p].incarnation, a, b});
    }

    /// Every timer fires here. Timers cannot be cancelled; the
    /// incarnation check keeps a dead incarnation's timers from touching
    /// the restarted process (a timer armed before a crash never sees it
    /// down), and each handler checks that its own state still wants it.
    void fire(std::uint64_t now, const Timer& timer) {
        const ProcessId p = timer.process;
        if (engines_[p].incarnation != timer.incarnation) return;
        switch (static_cast<TimerKind>(timer.kind)) {
            case TimerKind::flush:
                tx_flush(now, p);
                return;
            case TimerKind::restart:
                restart_process(now, p);
                return;
            case TimerKind::retransmit:
                retransmit(now, p, static_cast<ProcessId>(timer.a), timer.b);
                return;
            case TimerKind::hello:
                if (engines_[p].rejoining) send_hellos(now, p);
                return;
            case TimerKind::watchdog:
                replay_watchdog(now, p, static_cast<ProcessId>(timer.a));
                return;
        }
    }

    /// Flushes every due queue of `src` in deficit-round-robin order: a
    /// single live entry goes out as a bare frame packet (no container
    /// overhead, v1/v2-compatible), several go out as one v4 batch. A
    /// flush the bandwidth buckets refuse earns the queue quantum
    /// deficit and is deferred to the buckets' ready time.
    void tx_flush(std::uint64_t when, ProcessId src) {
        TxProc& proc = tx_[src];
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
            if (bsched_ && !bsched_->admit(src, dst, pkt.body.size(), when,
                                           q.deficit)) {
                q.deficit += proto_.bandwidth.quantum;
                const std::uint64_t ready =
                    bsched_->ready_time(src, dst, pkt.body.size(), when);
                q.deadline = ready;
                ++tally_.wire.bsched_deferrals;
                trace(obs::TraceEventKind::bsched_defer, when, src, dst,
                      frames, ready - when, 0);
                arm(ready, src, TimerKind::flush);
                continue;
            }
            if (frames > 1) {
                ++tally_.wire.batch_packets;
                tally_.wire.batch_frames += frames;
                trace(obs::TraceEventKind::batch, when, src, dst, frames,
                      pkt.body.size(), 0);
            }
            q.batch.clear();
            post(when, std::move(pkt));
        }
        proc.cursor = (proc.cursor + 1) % count;
    }

    /// Routes a REQ/ACK through the TX queues (any knob on) or sends it
    /// directly (classic profile). `delay` is how long the frame may
    /// wait for companions — 0 for REQs and replays (flushed at the end
    /// of the current tick, so same-tick traffic to one peer still
    /// shares a packet), `coalesce_delay_` for coalescible ACKs. A newer
    /// ACK for the same rendezvous supersedes a queued one — and *only*
    /// the same rendezvous: a crash-rewound sender can legitimately
    /// need ACK(s) while ACK(s+1) sits queued, so distinct sequences
    /// all ship (docs/PROTOCOL.md).
    void tx_send(std::uint64_t now, Packet&& packet, std::uint64_t delay) {
        if (!wire_ext_) {
            post(now, std::move(packet));
            return;
        }
        TxProc& proc = tx_[packet.source];
        const auto [it, inserted] = proc.queues.try_emplace(packet.destination);
        TxQueue& q = it->second;
        if (inserted) proc.ring.push_back(packet.destination);
        if (proto_.coalesce_acks && packet.kind == kAck &&
            q.batch.supersede(kAck, packet.tag)) {
            ++tally_.wire.acks_coalesced;
            trace(obs::TraceEventKind::coalesce, now, packet.source,
                  packet.destination, packet.tag, 0, 0);
        }
        const bool was_empty = q.batch.empty();
        q.batch.add(packet.kind, packet.tag, packet.body);
        // The queue holds a copy, so the body goes back to the network's
        // spare list for the packet tx_flush() builds next.
        network_.recycle(std::move(packet.body));
        const std::uint64_t deadline = now + delay;
        if (was_empty || deadline < q.deadline) q.deadline = deadline;
        // One flush timer per enqueue; stale ones find an empty or
        // not-yet-due queue.
        arm(q.deadline, packet.source, TimerKind::flush);
    }

    /// Whether `shadow` is the base the delta codec needs for the next
    /// frame: same epoch, exactly the previous sequence, same width.
    static bool delta_ready(const ShadowVector& shadow, EpochId epoch,
                            std::uint64_t sequence, std::size_t width) {
        return shadow.valid && shadow.epoch == epoch &&
               shadow.sequence + 1 == sequence &&
               shadow.stamp.size() == width;
    }

    /// Monotone shadow update: a frame older than what the shadow holds
    /// (a window replay of a pre-rewind sequence) never regresses it.
    static void update_shadow(ShadowVector& shadow, EpochId epoch,
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
    }

    // ---- Epoch segments and engines -------------------------------------

    SegmentState& segment_for(EpochId e) {
        SYNCTS_ENSURE(e >= flushed_below_,
                      "a retired epoch's segment was touched");
        std::unique_ptr<SegmentState>& slot = segments_[e];
        if (slot == nullptr) {
            slot = std::make_unique<SegmentState>(topology_.epoch(e).graph(),
                                                  scripts_[e].num_messages());
        }
        return *slot;
    }

    /// Moves epoch `e`'s segment into the result. Only called once the
    /// frontier has passed `e`, so no engine, late frame, or recovery
    /// replay can touch the segment again (the analogue of WAL
    /// truncation at a snapshot: both let go of exactly the state no
    /// surviving rewind can reach).
    void flush_segment(EpochId e) {
        if (segments_[e] == nullptr) {
            // Never touched: only legal for a message-free epoch.
            SYNCTS_ENSURE(scripts_[e].num_messages() == 0,
                          "epoch flushed with unrealized messages");
            flushed_.push_back(EpochSegmentResult{
                e, SyncComputation(topology_.epoch(e).graph()), {}, {}});
            return;
        }
        SegmentState& segment = *segments_[e];
        SYNCTS_ENSURE(segment.computation.num_messages() ==
                          scripts_[e].num_messages(),
                      "epoch flushed with unrealized messages");
        flushed_.push_back(EpochSegmentResult{
            e, std::move(segment.computation), std::move(segment.stamps),
            std::move(segment.script_message)});
        segments_[e].reset();
    }

    /// Retires every epoch the stability frontier has passed.
    /// `barrier_bound` is the non-recovery frontier (the current barrier
    /// epoch); durable snapshots can only pull it down, never past it.
    void retire_stable(EpochId barrier_bound) {
        EpochId frontier = barrier_bound;
        if (recovery_active_) {
            for (ProcessId p = 0; p < n_max_; ++p) {
                if (durable_epoch_[p] != kNoDurableEpoch) {
                    frontier = std::min(frontier, durable_epoch_[p]);
                }
            }
        }
        while (flushed_below_ < frontier) {
            flush_segment(flushed_below_);
            ++flushed_below_;
        }
        // The flight recorder tracks the same frontier: retained events
        // older than the last stably-retired epoch's entry cannot matter
        // to any surviving rewind, so the black box sheds them too.
        if (recorder_ != nullptr) recorder_->note_frontier(frontier);
    }

    InChannel& in_channel(Engine& engine, ProcessId peer) {
        auto it = engine.in.find(peer);
        if (it == engine.in.end()) {
            it = engine.in
                     .emplace(peer, InChannel{0, std::nullopt, {},
                                              FrameWindow(window_capacity_)})
                     .first;
        }
        return it->second;
    }

    OutChannel& out_channel(Engine& engine, ProcessId peer) {
        auto it = engine.out.find(peer);
        if (it == engine.out.end()) {
            it = engine.out
                     .emplace(peer,
                              OutChannel{0, FrameWindow(window_capacity_)})
                     .first;
        }
        return it->second;
    }

    /// (Re)loads per-process state for epoch `e`: the epoch's script
    /// slice, the clock rebound in place to the epoch's decomposition
    /// (reusing its buffers; bit-identical to a fresh construction), and
    /// width-d scratch. Channel maps are deliberately left alone.
    void load_engine(ProcessId p, EpochId e) {
        Engine& engine = engines_[p];
        const std::shared_ptr<const EdgeDecomposition> decomposition =
            topology_.decomposition(e);
        const std::size_t n = decomposition->graph().num_vertices();
        const std::size_t d = decomposition->size();
        engine.epoch = e;
        engine.script.clear();
        engine.cursor = 0;
        if (p >= n) {
            engine.clock.reset();  // not a member of this epoch
            return;
        }
        for (const ProcessEvent& event : scripts_[e].process_events(p)) {
            if (event.kind == ProcessEvent::Kind::message) {
                engine.script.push_back(event);
            }
        }
        if (engine.clock) {
            engine.clock->rebind(p, decomposition);
        } else {
            engine.clock.emplace(p, decomposition);
        }
        engine.rx_stamp.resize(d);
        engine.ack_scratch.resize(d);
        engine.stamp_scratch.resize(d);
    }

    // ---- Durable state (docs/RECOVERY.md) -------------------------------

    /// Serializes the engine's full durable state. Channels are sorted by
    /// peer so the snapshot bytes are a pure function of the protocol
    /// state, never of map iteration order.
    ProcessState capture_state(ProcessId p) const {
        const Engine& engine = engines_[p];
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
    }

    /// Checkpoint: flush the WAL (a snapshot is a flush point), write the
    /// snapshot, then truncate the log prefix it folded in — the
    /// Drummond–Barbosa stability rule, which bounds log growth. The
    /// segments mirror it exactly: the process's durable epoch advances,
    /// and every epoch the frontier has now passed moves into the
    /// result.
    void take_snapshot(ProcessId p) {
        if (!recovery_active_) return;
        Engine& engine = engines_[p];
        if (!engine.clock) return;  // not part of this epoch
        DurableStore& store = stores_[p];
        store.wal.flush();
        Snapshot snapshot;
        snapshot.state = capture_state(p);
        snapshot.wal_lsn = store.wal.next_lsn();
        store.snapshot.clear();  // the encoder appends
        encode_snapshot_into(snapshot, store.snapshot);
        store.wal.truncate(snapshot.wal_lsn);
        engine.steps_since_snapshot = 0;
        ++tally_.snapshots;
        if (snapshot_bytes_hist_ != nullptr) {
            snapshot_bytes_hist_->record(store.snapshot.size());
        }
        if (durable_epoch_[p] != engine.epoch) {
            // This snapshot is now the process's rewind floor: a crash
            // replays into its epoch and recommits verify against the
            // original stamps, so the frontier holds that segment back.
            // Retire whatever became stable.
            durable_epoch_[p] = engine.epoch;
            retire_stable(current_epoch_);
        }
    }

    /// Logs one protocol step to p's WAL (recovery armed only); the
    /// record owns copies of the frames.
    void wal_append(ProcessId p, WalRecordType type, EpochId epoch,
                    ProcessId peer = 0, std::uint64_t sequence = 0,
                    std::uint64_t message = 0,
                    std::span<const std::uint8_t> frame = {},
                    std::span<const std::uint8_t> aux = {}) {
        if (!recovery_active_) return;
        stores_[p].wal.append(WalRecord{type, 0, peer, sequence, message,
                                        epoch,
                                        {frame.begin(), frame.end()},
                                        {aux.begin(), aux.end()}});
    }

    // ---- Crashes and stalls ---------------------------------------------

    /// Executes one crash rule: the process loses everything volatile
    /// (clock, channels, buffered and in-flight protocol state) and its
    /// WAL loses the unflushed tail. A timer restarts it after the
    /// rule's downtime.
    void crash_now(std::uint64_t now, ProcessId p, const CrashRule& rule) {
        Engine& engine = engines_[p];
        network_.note_crash();
        ++engine.incarnation;
        trace(obs::TraceEventKind::crash, now, p, p, engine.steps,
              engine.incarnation, logical(p));
        stores_[p].wal.drop_unflushed();
        if (recorder_ != nullptr) {
            // The black box captures the crash instant: WAL position
            // *after* the unflushed tail is gone (what recovery will
            // actually see) and the ring ending at the crash event just
            // traced. Recovery replay cross-checks both.
            recorder_->dump(obs::PostmortemReason::crash, p, engine.steps,
                            engine.epoch, stores_[p].wal.next_lsn(), now,
                            options_.metrics);
        }
        engine.clock.reset();
        engine.outstanding.reset();
        engine.in.clear();
        engine.out.clear();
        engine.script.clear();
        engine.cursor = 0;
        engine.steps = 0;
        engine.steps_since_snapshot = 0;
        engine.rejoining = false;
        engine.awaiting_hello.clear();
        if (wire_ext_) {
            // Queued-but-unflushed frames are volatile state too: they
            // die with the process, exactly like frames lost in flight
            // — peers recover them through retransmission and rejoin.
            for (auto& [dst, q] : tx_[p].queues) q.batch.clear();
        }
        engine.down = true;
        network_.set_down(p, true);
        arm(now + std::max<std::uint64_t>(rule.downtime, 1), p,
            TimerKind::restart);
    }

    /// Bookkeeping after one protocol step (a commit or an accepted
    /// ACK): interval snapshots, then crash rules. Rules fire in at_step
    /// order; the rewound counter re-advancing through an already-fired
    /// step does not re-fire its rule. Returns true when the step ended
    /// in a crash — the caller must stop touching the engine.
    bool after_step(std::uint64_t now, ProcessId p) {
        Engine& engine = engines_[p];
        ++engine.steps;
        if (recovery_active_ &&
            ++engine.steps_since_snapshot >=
                options_.recovery.snapshot_interval) {
            take_snapshot(p);
        }
        if (recorder_ != nullptr && options_.metrics != nullptr) {
            recorder_->tick(*options_.metrics);
        }
        const std::vector<CrashRule>& rules = crash_rules_[p];
        if (engine.down || engine.next_crash >= rules.size() ||
            engine.steps < rules[engine.next_crash].at_step) {
            return false;
        }
        const CrashRule rule = rules[engine.next_crash++];
        crash_now(now, p, rule);
        return true;
    }

    /// Gives up on the run: a SYFR post-mortem of process p when a flight
    /// recorder is attached, then SynchronizerStalled. `what` names the
    /// peer p is waiting on.
    [[noreturn]] void stall(std::uint64_t now, ProcessId p,
                            const std::string& what) {
        const Engine& engine = engines_[p];
        if (recorder_ != nullptr) {
            recorder_->dump(obs::PostmortemReason::error, p, engine.steps,
                            engine.epoch,
                            recovery_active_ ? stores_[p].wal.next_lsn() : 0,
                            now, options_.metrics);
        }
        throw SynchronizerStalled("process P" + std::to_string(p) + " " +
                                  what);
    }

    // ---- The send path: scripts, retransmission, barriers ----------------

    /// Re-arms the retransmission timer for p's outstanding REQ. A fired
    /// timer checks that the exact (receiver, sequence) it was armed for
    /// is still outstanding, which also neutralizes timers armed in an
    /// earlier epoch.
    void arm_retransmit(std::uint64_t now, ProcessId p) {
        const Outstanding& out = *engines_[p].outstanding;
        arm(now + out.rto, p, TimerKind::retransmit, out.receiver,
            out.sequence);
    }

    void retransmit(std::uint64_t now, ProcessId p, ProcessId receiver,
                    std::uint64_t sequence) {
        Engine& engine = engines_[p];
        if (!engine.outstanding || engine.outstanding->receiver != receiver ||
            engine.outstanding->sequence != sequence) {
            return;  // ACK arrived; stale timer
        }
        Outstanding& out = *engine.outstanding;
        ++tally_.timeouts;
        trace(obs::TraceEventKind::timeout, now, p, receiver, sequence,
              out.mid, logical(p));
        if (out.retransmits >= options_.max_retransmits) {
            stall(now, p,
                  "exhausted " + std::to_string(options_.max_retransmits) +
                      " retransmissions of message " +
                      std::to_string(out.mid) + " waiting on P" +
                      std::to_string(receiver));
        }
        ++out.retransmits;
        ++tally_.retransmits;
        trace(obs::TraceEventKind::retransmit, now, p, receiver, sequence,
              out.mid, logical(p));
        // Always the canonical full frame, even with delta on: a
        // retransmission doubles as the shadow resync the receiver may
        // be waiting for.
        send_full_frame(now, p, receiver, kReq, out.mid, out.frame);
        out.rto = std::min(out.rto * 2, max_rto_);
        arm_retransmit(now, p);
    }

    /// Buffers a fresh REQ until the program reaches the matching
    /// receive: the stamp is copied out of the decode scratch into a
    /// buffer from the free list — the only copy on the fresh-REQ path.
    void buffer_req(InChannel& channel, const FrameHeader& header,
                    std::span<const std::uint64_t> stamp) {
        std::vector<std::uint64_t> buffer;
        if (!spare_stamps_.empty()) {
            buffer = std::move(spare_stamps_.back());
            spare_stamps_.pop_back();
        }
        buffer.assign(stamp.begin(), stamp.end());
        channel.pending =
            PendingReq{header.sequence, header.message, std::move(buffer)};
    }

    /// Walks p's script: issues the next send, then blocks on its ACK, or
    /// commits buffered REQs for receives until one has not arrived.
    void progress(std::uint64_t now, ProcessId p) {
        Engine& engine = engines_[p];
        if (engine.down) return;
        while (engine.cursor < engine.script.size()) {
            const MessageId mid = engine.script[engine.cursor].index;
            const SyncMessage& m = scripts_[engine.epoch].message(mid);
            if (m.sender == p) {
                if (!engine.outstanding) send_req(now, p, m.receiver, mid);
                return;  // blocked on the wire
            }
            if (!receive(now, p, m.sender, mid)) return;
        }
    }

    void send_req(std::uint64_t now, ProcessId p, ProcessId receiver,
                  MessageId mid) {
        Engine& engine = engines_[p];
        // Sequences are 1-based per directed channel. Clock and sequence
        // rewind together after a crash, so a re-executed send
        // reproduces this frame byte for byte under the same sequence —
        // the receiver's duplicate suppression stays sound.
        OutChannel& channel = out_channel(engine, receiver);
        const std::uint64_t sequence = ++channel.next_sequence;
        const std::span<const std::uint64_t> clock =
            engine.clock->current_span();
        std::vector<std::uint8_t> frame = std::move(engine.spare_frame);
        encode_epoch_frame_into(engine.epoch, sequence, mid, clock, frame);
        if (recovery_active_) {
            channel.req_window.put(sequence, frame);
            wal_append(p, WalRecordType::send, engine.epoch, receiver,
                       sequence, mid, frame);
        }
        engine.outstanding = Outstanding{.receiver = receiver,
                                         .mid = mid,
                                         .sequence = sequence,
                                         .frame = std::move(frame),
                                         .retransmits = 0,
                                         .rto = base_rto_,
                                         .first_send_time = now};
        ++tally_.req_sent;
        trace(obs::TraceEventKind::send, now, p, receiver, sequence, mid,
              logical(p));
        send_stamped(now, make_packet(p, receiver, kReq, mid),
                     channel.req_shadow, engine.epoch, sequence, clock,
                     engine.outstanding->frame, 0);
        if (retransmission_) arm_retransmit(now, p);
    }

    /// Receive action: commits the buffered fresh REQ from `sender` and
    /// answers with the ACK. Returns whether the script may go on —
    /// false when the REQ has not arrived or the step crashed p.
    bool receive(std::uint64_t now, ProcessId p, ProcessId sender,
                 MessageId mid) {
        Engine& engine = engines_[p];
        InChannel& channel = in_channel(engine, sender);
        if (!channel.pending && !channel.future.empty()) {
            // Earlier commits (or a barrier this engine just crossed) may
            // have brought the commit point and the epoch up to a parked
            // out-of-order frame: promote it as if it had just arrived.
            channel.future.erase(
                channel.future.begin(),
                channel.future.upper_bound(channel.last_committed));
            const auto next = channel.future.find(channel.last_committed + 1);
            if (next != channel.future.end()) {
                // Parked frames are canonical full frames: deltas are
                // dropped, never parked (docs/PROTOCOL.md).
                const FrameInfo info = peek_frame_info(next->second);
                SYNCTS_ENSURE(!info.delta, "a parked frame is a delta");
                if (info.header.epoch == engine.epoch) {
                    decode_frame_stamp(info, {}, engine.rx_stamp);
                    buffer_req(channel, info.header, engine.rx_stamp);
                    channel.future.erase(next);
                    trace(obs::TraceEventKind::receive, now, p, sender,
                          info.header.sequence, info.header.message,
                          logical(p));
                }
            }
        }
        if (!channel.pending) return false;  // wait for the REQ packet
        PendingReq req = std::move(*channel.pending);
        channel.pending.reset();
        SYNCTS_ENSURE(req.message == mid,
                      "REQ does not match the scripted receive");
        // Commit: the rendezvous instant, exactly once per sequence —
        // duplicates never reach this line. A first commit's stamp goes
        // straight into its result slot. A restarted process re-executing
        // a commit it lost must reproduce the original stamp exactly; the
        // realized computation keeps the first commit's record.
        SegmentState& segment = segment_for(engine.epoch);
        TsHandle& handle = segment.handle_by_script[mid];
        const bool first_commit = handle == kNoTimestamp;
        const std::span<std::uint64_t> stamp =
            first_commit
                ? segment.stamps.emplace_back(engine.clock->width())
                      .mutable_components()
                : std::span<std::uint64_t>(engine.stamp_scratch);
        engine.clock->on_receive_into(sender, req.stamp, engine.ack_scratch,
                                      stamp);
        channel.last_committed = req.sequence;
        channel.replay_attempts = 0;  // the watchdog saw progress
        encode_epoch_frame_into(engine.epoch, req.sequence, mid,
                                engine.ack_scratch, engine.ack_bytes);
        if (first_commit) {
            ++tally_.commits;
            segment.computation.add_message(sender, p);
            segment.script_message.push_back(mid);
            handle = static_cast<TsHandle>(segment.stamps.size() - 1);
        } else {
            SYNCTS_ENSURE(
                ts::equal(stamp, segment.stamps[handle].components()),
                "recovered replay diverged from the original commit");
            ++tally_.recommits;
        }
        trace(obs::TraceEventKind::commit, now, p, sender, req.sequence, mid,
              logical_total(stamp));
        channel.ack_window.put(req.sequence, engine.ack_bytes);
        if (recovery_active_) {
            // Canonical re-encoding of the REQ — byte-identical to the
            // frame the sender put on the wire.
            encode_epoch_frame_into(engine.epoch, req.sequence, mid,
                                    req.stamp, engine.req_bytes);
            wal_append(p, WalRecordType::commit, engine.epoch, sender,
                       req.sequence, mid, engine.req_bytes, engine.ack_bytes);
        }
        spare_stamps_.push_back(std::move(req.stamp));
        send_stamped(now, make_packet(p, sender, kAck, mid),
                     channel.ack_sent_shadow, engine.epoch, req.sequence,
                     engine.ack_scratch, engine.ack_bytes,
                     proto_.coalesce_acks ? coalesce_delay_ : 0);
        ++engine.cursor;
        return !after_step(now, p);
    }

    /// True when every live engine has discharged its
    /// epoch-`current_epoch_` obligations: caught up to the barrier
    /// epoch, script done, nothing on the wire, no rejoin in flight.
    /// Down engines are exempt — they rejoin into the new epoch later
    /// (their unfinished steps are re-executions of already-realized
    /// messages; maybe_transition checks that).
    bool epoch_complete() const {
        for (const Engine& engine : engines_) {
            if (engine.down) continue;
            if (engine.rejoining || engine.epoch != current_epoch_ ||
                engine.cursor != engine.script.size() || engine.outstanding) {
                return false;
            }
        }
        return true;
    }

    /// Crosses as many barriers as are due at virtual time `now`
    /// (several in a row when later epochs script no messages). Live
    /// engines checkpoint at each barrier, so a later crash never
    /// rewinds across it.
    void maybe_transition(std::uint64_t now) {
        while (current_epoch_ + 1 < num_epochs_ && epoch_complete()) {
            const bool realized =
                scripts_[current_epoch_].num_messages() == 0 ||
                (segments_[current_epoch_] != nullptr &&
                 segments_[current_epoch_]->computation.num_messages() ==
                     scripts_[current_epoch_].num_messages());
            if (!realized) {
                SYNCTS_ENSURE(recovery_active_,
                              "epoch barrier crossed with unrealized "
                              "messages");
                // A down process still owes commits; the barrier waits
                // for its restart to realize them.
                return;
            }
            for (const Engine& engine : engines_) {
                for (const auto& [peer, channel] : engine.in) {
                    SYNCTS_ENSURE(!channel.pending,
                                  "epoch barrier crossed with a buffered REQ");
                }
            }
            const EpochTransition& transition =
                topology_.transition_into(current_epoch_ + 1);
            ++current_epoch_;
            // The global barrier event uses the out-of-range peer n_max
            // as its marker, distinguishing it from the per-process
            // fast-forward epoch events (process == peer) — the causal
            // profiler keys barrier-stall attribution off this shape.
            trace(obs::TraceEventKind::epoch, now, 0,
                  static_cast<ProcessId>(n_max_), current_epoch_,
                  transition.preserved_groups, 0);
            for (ProcessId p = 0; p < n_max_; ++p) {
                if (engines_[p].down) continue;  // fast-forwards on restart
                wal_append(p, WalRecordType::epoch, current_epoch_);
                load_engine(p, current_epoch_);
                take_snapshot(p);
            }
            // The barrier is the stability point: without recovery every
            // earlier epoch is unreachable now; with recovery the
            // per-process snapshots above advanced the durable frontier.
            retire_stable(current_epoch_);
            const std::size_t n =
                topology_.epoch(current_epoch_).num_processes();
            for (ProcessId p = 0; p < n; ++p) {
                if (!engines_[p].down) progress(now, p);
            }
        }
    }

    /// Walks a lagging (restarted) engine through the barriers the
    /// system crossed while it was down, one epoch at a time, with a
    /// WAL record and a checkpoint at each — exactly what the engine
    /// would have done live.
    void fast_forward(std::uint64_t now, ProcessId p) {
        Engine& engine = engines_[p];
        bool moved = false;
        while (engine.epoch < current_epoch_ && !engine.rejoining &&
               engine.cursor == engine.script.size() &&
               !engine.outstanding) {
            const EpochId next = engine.epoch + 1;
            wal_append(p, WalRecordType::epoch, next);
            load_engine(p, next);
            take_snapshot(p);
            ++tally_.fast_forwards;
            trace(obs::TraceEventKind::epoch, now, p, p, next, 0, 0);
            moved = true;
        }
        if (moved) {
            progress(now, p);
            maybe_transition(now);
        }
    }

    // ---- Crash recovery: restart and rejoin (docs/RECOVERY.md) ----------

    /// The rejoin handshake is settled: resume the interrupted
    /// rendezvous (original bytes) or the script, then catch up to the
    /// barrier epoch.
    void complete_rejoin(std::uint64_t now, ProcessId p) {
        Engine& engine = engines_[p];
        engine.rejoining = false;
        engine.awaiting_hello.clear();
        if (engine.outstanding) {
            const Outstanding& out = *engine.outstanding;
            ++tally_.retransmits;
            trace(obs::TraceEventKind::retransmit, now, p, out.receiver,
                  out.sequence, out.mid, logical(p));
            // The canonical full frame, restored.
            send_full_frame(now, p, out.receiver, kReq, out.mid, out.frame);
            if (retransmission_) arm_retransmit(now, p);
        } else {
            progress(now, p);
        }
        fast_forward(now, p);
        maybe_transition(now);
    }

    /// Sends (or re-sends) rejoin HELLOs. A HELLO is an epoch frame at
    /// the rejoiner's recovered epoch whose width-1 "stamp" carries its
    /// committed high-water mark on the channel from the addressee, so
    /// the peer can replay exactly the REQs the rejoiner lost. The
    /// sequence field numbers handshake attempts.
    void send_hellos(std::uint64_t now, ProcessId p) {
        Engine& engine = engines_[p];
        if (engine.awaiting_hello.empty()) {
            const Graph& graph = topology_.epoch(engine.epoch).graph();
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
        if (engine.hello_attempts >= options_.max_retransmits) {
            std::string peers;
            for (const ProcessId q : engine.awaiting_hello) {
                peers += " P" + std::to_string(q);
            }
            stall(now, p,
                  "exhausted its rejoin handshake attempts waiting on "
                  "HELLO_ACK from" + peers);
        }
        ++engine.hello_attempts;
        for (const ProcessId q : engine.awaiting_hello) {
            std::uint64_t last = 0;
            if (const auto it = engine.in.find(q); it != engine.in.end()) {
                last = it->second.last_committed;
            }
            send_hello(now, p, q, kHello, engine.hello_attempts, last);
            trace(obs::TraceEventKind::hello, now, p, q, engine.hello_attempts,
                  last, logical(p));
        }
        arm(now + base_rto_, p, TimerKind::hello);
    }

    /// Chases a replay gap: while `last_committed` on the channel from
    /// `peer` lags the frontier its HELLO_ACK announced, the owed frames
    /// can only come from the peer's one-shot window replay — which the
    /// network may drop, and which the peer never re-times (it considers
    /// those rendezvous complete). So the *receiver* drives: re-HELLO
    /// the peer until the gap closes, bounded like a retransmission and
    /// backing off like one — after `attempts` re-HELLOs it waits
    /// min(base_rto << min(attempts, kMaxBackoffExponent), max_rto), so
    /// a replay that is slow rather than lost (a shaped, lossy link) is
    /// not mistaken for a dead channel.
    void arm_replay_watchdog(std::uint64_t now, ProcessId p, ProcessId peer,
                             std::uint32_t attempts) {
        const std::uint64_t wait = std::min(
            base_rto_ << std::min(attempts, kMaxBackoffExponent), max_rto_);
        arm(now + wait, p, TimerKind::watchdog, peer);
    }

    void replay_watchdog(std::uint64_t now, ProcessId p, ProcessId peer) {
        const auto it = engines_[p].in.find(peer);
        if (it == engines_[p].in.end()) return;
        InChannel& channel = it->second;
        if (channel.last_committed >= channel.replay_target) {
            channel.watchdog_armed = false;
            return;  // caught up; the watchdog retires
        }
        if (channel.replay_attempts >= options_.max_retransmits) {
            stall(now, p,
                  "exhausted its replay requests waiting on P" +
                      std::to_string(peer));
        }
        ++channel.replay_attempts;
        send_hello(now, p, peer, kHello, channel.replay_attempts,
                   channel.last_committed);
        trace(obs::TraceEventKind::hello, now, p, peer,
              channel.replay_attempts, channel.last_committed, logical(p));
        arm_replay_watchdog(now, p, peer, channel.replay_attempts);
    }

    /// Brings a crashed process back: recover the durable state, rebuild
    /// the live engine from it, then either rejoin (handshake with the
    /// neighbors so lost frames are replayed) or, when every step of the
    /// recovered epoch was durable, fast-forward straight to the barrier
    /// epoch.
    void restart_process(std::uint64_t now, ProcessId p) {
        Engine& engine = engines_[p];
        engine.down = false;
        network_.set_down(p, false);
        RecoverOutcome outcome = RecoveryManager::recover(
            stores_[p].snapshot, stores_[p].wal,
            [this](EpochId e) { return topology_.decomposition(e); });
        ProcessState& state = outcome.state;
        // The snapshot's epoch is the rewind floor that has held the
        // stability frontier back since the snapshot was taken; replay
        // can only have moved the live epoch forward from it, so every
        // segment the re-execution will touch is still unretired.
        SYNCTS_ENSURE(durable_epoch_[p] == outcome.stable_epoch,
                      "recovered snapshot epoch disagrees with the durable "
                      "frontier");
        SYNCTS_ENSURE(state.epoch >= outcome.stable_epoch,
                      "WAL replay rewound past the snapshot epoch");
        // The replayed history must land exactly on the live log's tail:
        // the snapshot's stability point plus every replayed record is
        // the next LSN the WAL will assign. This is also the position
        // the flight recorder dumped at the crash instant, so a SYFR
        // post-mortem and the recovery that follows it cross-validate.
        SYNCTS_ENSURE(outcome.wal_next_lsn == stores_[p].wal.next_lsn(),
                      "recovery replay disagrees with the WAL position");
        load_engine(p, state.epoch);
        SYNCTS_ENSURE(engine.clock &&
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
                .rto = base_rto_,
                .first_send_time = now};
        }
        ++tally_.restarts;
        tally_.replayed_records += outcome.replayed_records;
        if (replay_hist_ != nullptr) {
            replay_hist_->record(outcome.replayed_records);
        }
        trace(obs::TraceEventKind::restart, now, p, p,
              outcome.replayed_records, engine.epoch, logical(p));
        if (engine.cursor == engine.script.size() && !engine.outstanding) {
            // Every step of the recovered epoch was durable: nothing to
            // re-execute, so no handshake — just catch up to the barrier.
            fast_forward(now, p);
            maybe_transition(now);
            return;
        }
        engine.rejoining = true;
        send_hellos(now, p);
    }

    // ---- The receive path -----------------------------------------------

    /// Counts one corrupt packet: damaged in flight, so it is dropped and
    /// retransmission recovers it like a lost one.
    void reject(std::uint64_t now, ProcessId p, const Packet& packet) {
        ++tally_.corrupt_rejects;
        trace(obs::TraceEventKind::corrupt_reject, now, p, packet.source,
              packet.kind, packet.tag, logical(p));
    }

    /// Drops a delta frame whose base this end does not hold (a gap, an
    /// epoch change, a rejoin, or a frame that would have to be parked —
    /// a parked delta has no decodable base by promotion time). The
    /// sender's retransmission carries the full frame that re-seeds the
    /// shadow.
    void delta_resync(std::uint64_t now, ProcessId p, const Packet& packet,
                      const FrameHeader& header) {
        ++tally_.wire.delta_resyncs;
        trace_frame(obs::TraceEventKind::delta_resync, now, p, packet, header);
    }

    /// Every packet delivered to a live process.
    void deliver(std::uint64_t now, ProcessId p, const Packet& packet) {
        if (engines_[p].down) return;  // the network already drops these
        if (packet.kind == kHello) {
            handle_hello(now, p, packet);
        } else if (packet.kind == kHelloAck) {
            handle_hello_ack(now, p, packet);
        } else if (packet.kind == kBatch) {
            deliver_batch(now, p, packet);
        } else if (!deliver_frame(now, p, packet)) {
            reject(now, p, packet);
        }
    }

    /// Unpacks a v4 container and runs each entry through deliver_frame
    /// as its own sub-packet. Per-entry inner checksums decide which
    /// entries survive; a structural break (corrupted length or varint)
    /// loses the remainder, which retransmission recovers like a lost
    /// packet. However it was damaged — outside every entry, inside one,
    /// or before a mid-batch crash stops the loop — a container is one
    /// packet and counts at most one corrupt reject.
    void deliver_batch(std::uint64_t now, ProcessId p, const Packet& packet) {
        bool rejected = false;
        const auto reject_once = [&] {
            if (!rejected) reject(now, p, packet);
            rejected = true;
        };
        try {
            BatchReader reader(packet.body);
            if (!reader.intact()) reject_once();
            BatchFrame::Entry entry;
            Packet& sub = batch_entry_;
            sub.source = packet.source;
            sub.destination = packet.destination;
            while (reader.next(entry)) {
                if (engines_[p].down) return;  // mid-batch crash
                // A damaged kind varint could alias a valid kind after
                // u32 truncation.
                if (entry.kind > kHelloAck) {
                    reject_once();
                    continue;
                }
                sub.kind = static_cast<std::uint32_t>(entry.kind);
                sub.tag = entry.tag;
                copy_frame(entry.body, sub.body);
                if (!deliver_frame(now, p, sub)) reject_once();
            }
        } catch (const WireError&) {
            reject_once();
        }
    }

    /// The one dispatcher of REQ/ACK/NACK frames — a bare packet or a
    /// batch entry, on every wire profile. peek_frame_info verifies the
    /// checksum and parses the header; the kind is then validated
    /// *semantically* (a batch entry's kind/tag varints sit outside the
    /// inner frame checksum, so a flipped kind bit could present an ACK
    /// as a REQ or a REQ as an ACK — message ids are globally unique, so
    /// the script is the authority). Only a fresh REQ or an ACK has its stamp decoded,
    /// into rx_stamp, without a second checksum pass: full as it is, or
    /// a delta against the channel shadow. Returns false when the frame
    /// is damaged; the caller counts the reject.
    bool deliver_frame(std::uint64_t now, ProcessId p, const Packet& packet) {
        Engine& engine = engines_[p];
        FrameInfo info;
        try {
            info = peek_frame_info(packet.body);
        } catch (const WireError&) {
            return false;
        }
        const FrameHeader& header = info.header;
        if (packet.kind == kNack) {
            if (info.delta) return false;  // NACKs are header-only
            handle_nack(now, p, packet, header);
            return true;
        }
        if (packet.kind != kReq && packet.kind != kAck) {
            return false;  // damaged batch-entry kind
        }
        // The scripted message must exist and run source -> p for a REQ,
        // p -> source for an ACK. A mislabeled frame always fails this,
        // before it can touch a delta shadow: an ACK's message has p as
        // its sender, a REQ's has the source.
        if (header.epoch >= num_epochs_ ||
            header.message >= scripts_[header.epoch].num_messages()) {
            return false;
        }
        const SyncMessage& m = scripts_[header.epoch].message(
            static_cast<MessageId>(header.message));
        const bool req = packet.kind == kReq;
        if (m.sender != (req ? packet.source : p) ||
            m.receiver != (req ? p : packet.source)) {
            return false;
        }
        if (header.epoch != engine.epoch) {
            // Stale frames never need their stamp decoded (window
            // replay and NACK are header-driven).
            if (info.delta && header.epoch > engine.epoch) {
                delta_resync(now, p, packet, header);
            } else {
                handle_epoch_mismatch(now, p, packet, header);
            }
            return true;
        }
        InChannel* channel = nullptr;
        ShadowVector* shadow = nullptr;  // the delta base, with delta on
        if (packet.kind == kReq) {
            channel = &in_channel(engine, packet.source);
            const std::uint64_t fresh = channel->last_committed + 1;
            if (header.sequence != fresh || channel->pending) {
                // Duplicate, stale and parked REQs never read rx_stamp.
                if (info.delta && header.sequence > fresh) {
                    delta_resync(now, p, packet, header);
                } else {
                    handle_req(now, p, packet, header, *channel);
                }
                return true;
            }
            if (proto_.delta) shadow = &channel->rx_shadow;
        } else if (proto_.delta) {
            shadow = &out_channel(engine, packet.source).ack_rx_shadow;
        }
        if (info.delta &&
            (shadow == nullptr || !delta_ready(*shadow, header.epoch,
                                               header.sequence,
                                               engine.rx_stamp.size()))) {
            delta_resync(now, p, packet, header);
            return true;
        }
        try {
            // A full frame ignores the base; a delta always has a shadow.
            decode_frame_stamp(
                info, shadow != nullptr ? shadow->stamp : engine.rx_stamp,
                engine.rx_stamp);
        } catch (const WireError&) {
            return false;
        }
        if (shadow != nullptr) {
            update_shadow(*shadow, header.epoch, header.sequence,
                          engine.rx_stamp);
        }
        if (channel != nullptr) {
            handle_req(now, p, packet, header, *channel);
        } else {
            handle_ack(now, p, packet, header);
        }
        return true;
    }

    /// A checksum-valid REQ of the engine's own epoch on `channel`.
    void handle_req(std::uint64_t now, ProcessId p, const Packet& packet,
                    const FrameHeader& header, InChannel& channel) {
        if (header.sequence == channel.last_committed + 1) {
            if (channel.pending) {
                // Duplicate of a REQ already buffered for the program.
                SYNCTS_ENSURE(channel.pending->sequence == header.sequence,
                              "two distinct uncommitted REQs on one channel");
                ++tally_.req_duplicates;
                trace_frame(obs::TraceEventKind::duplicate_drop, now, p,
                            packet, header);
                return;
            }
            // The program may not have reached the matching receive yet.
            buffer_req(channel, header, engines_[p].rx_stamp);
            trace_frame(obs::TraceEventKind::receive, now, p, packet, header);
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
                ++(header.sequence == channel.last_committed
                       ? tally_.ack_replays
                       : tally_.window_ack_replays);
                trace_frame(obs::TraceEventKind::ack_replay, now, p, packet,
                            header);
                // Original full bytes — the resync.
                send_full_frame(now, p, packet.source, kAck, packet.tag,
                                *cached);
                return;
            }
            // The newest commit's ACK is always retained, so only
            // sequences older than the window can miss.
            SYNCTS_ENSURE(header.sequence < channel.last_committed,
                          "committed channel has no cached ACK");
            ++tally_.req_duplicates;
            trace_frame(obs::TraceEventKind::duplicate_drop, now, p, packet,
                        header);
            return;
        }
        // A sender never advances past an unacknowledged sequence — but a
        // *rejoining* receiver's channel state is rewound, so a live
        // sender's current traffic (and the HELLO-driven window replay
        // that fills the gap) can run ahead of the commit point. Park the
        // frame rather than drop it: the sender re-times only the frame
        // it still considers outstanding, so a reordered middle frame
        // would otherwise never be sent again.
        SYNCTS_ENSURE(recovery_active_, "REQ sequence from the future");
        if (channel.future.try_emplace(header.sequence, packet.body).second) {
            ++tally_.future_buffered;
            trace_frame(obs::TraceEventKind::park, now, p, packet, header);
        } else {
            ++tally_.req_duplicates;
            trace_frame(obs::TraceEventKind::duplicate_drop, now, p, packet,
                        header);
        }
    }

    /// A checksum-valid ACK of the engine's own epoch, its stamp in
    /// rx_stamp.
    void handle_ack(std::uint64_t now, ProcessId p, const Packet& packet,
                    const FrameHeader& header) {
        Engine& engine = engines_[p];
        if (!engine.outstanding ||
            engine.outstanding->receiver != packet.source ||
            engine.outstanding->sequence != header.sequence) {
            // Duplicate or replayed ACK for a rendezvous already finished.
            ++tally_.ack_duplicates;
            trace_frame(obs::TraceEventKind::duplicate_drop, now, p, packet,
                        header);
            return;
        }
        const MessageId mid = engine.outstanding->mid;
        SegmentState& segment = segment_for(engine.epoch);
        SYNCTS_ENSURE(header.message == mid,
                      "ACK does not match the pending send");
        engine.clock->on_ack_into(packet.source, engine.rx_stamp,
                                  engine.stamp_scratch);
        const TsHandle handle = segment.handle_by_script[mid];
        SYNCTS_ENSURE(handle != kNoTimestamp &&
                          ts::equal(engine.stamp_scratch,
                                    segment.stamps[handle].components()),
                      "sender and receiver disagree on a timestamp");
        trace(obs::TraceEventKind::ack, now, p, packet.source,
              header.sequence, mid, logical_total(engine.stamp_scratch));
        if (rendezvous_hist_ != nullptr) {
            rendezvous_hist_->record(now -
                                     engine.outstanding->first_send_time);
            attempts_hist_->record(engine.outstanding->retransmits + 1);
        }
        if (recovery_active_) {
            // Canonical full re-encoding of the ACK: the wire body may
            // be a delta (v3), but replay feeds record.aux to the
            // full-frame reader. Deterministic encoding makes this
            // byte-identical to a full body.
            encode_epoch_frame_into(engine.epoch, header.sequence, mid,
                                    engine.rx_stamp, engine.ack_bytes);
            wal_append(p, WalRecordType::ack, engine.epoch, packet.source,
                       header.sequence, mid, {}, engine.ack_bytes);
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
    }

    /// A checksum-valid frame from an epoch other than the engine's own.
    /// Frames from *ahead* are legitimate only while this engine is
    /// itself behind the barrier epoch (catching up after a restart);
    /// they are dropped and re-delivered by the sender's timer. Stale
    /// REQs are first checked against the ACK window — a restarted peer
    /// re-executing pre-barrier sends must receive the *original* ACK
    /// bytes — and otherwise answered with a NACK naming this engine's
    /// epoch. Stale ACKs and NACKs are dropped.
    void handle_epoch_mismatch(std::uint64_t now, ProcessId p,
                               const Packet& packet,
                               const FrameHeader& header) {
        Engine& engine = engines_[p];
        if (header.epoch > engine.epoch) {
            SYNCTS_ENSURE(engine.epoch < current_epoch_,
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
                    ++tally_.future_buffered;
                    trace(obs::TraceEventKind::park, now, p, packet.source,
                          header.sequence, header.message, header.epoch);
                }
            }
            return;
        }
        ++tally_.epoch_rejects;
        trace(obs::TraceEventKind::epoch_reject, now, p, packet.source,
              header.sequence, header.message, header.epoch);
        if (packet.kind != kReq) return;
        if (const auto it = engine.in.find(packet.source);
            it != engine.in.end() &&
            header.sequence <= it->second.last_committed) {
            if (const std::vector<std::uint8_t>* cached =
                    it->second.ack_window.find(header.sequence)) {
                ++tally_.window_ack_replays;
                trace_frame(obs::TraceEventKind::ack_replay, now, p, packet,
                            header);
                send_full_frame(now, p, packet.source, kAck, packet.tag,
                                *cached);
                return;
            }
        }
        Packet nack = make_packet(p, packet.source, kNack, packet.tag);
        // A NACK is a header-only frame: this engine's epoch plus the
        // rejected (sequence, message), no timestamp payload.
        encode_epoch_frame_into(engine.epoch, header.sequence,
                                header.message, {}, nack.body);
        ++tally_.nacks_sent;
        trace(obs::TraceEventKind::nack, now, p, packet.source,
              header.sequence, header.message, engine.epoch);
        post(now, std::move(nack));
    }

    /// NACK at the sender: if the rejected (channel, sequence) is still
    /// the in-flight send, re-encode it at the engine's epoch and resend
    /// immediately (the retransmission timer stays armed for it).
    /// Otherwise the rendezvous already completed — the NACK answered a
    /// duplicate copy — and it is dropped.
    void handle_nack(std::uint64_t now, ProcessId p, const Packet& packet,
                     const FrameHeader& header) {
        Engine& engine = engines_[p];
        if (header.epoch != engine.epoch || !engine.outstanding ||
            engine.outstanding->receiver != packet.source ||
            engine.outstanding->sequence != header.sequence) {
            ++tally_.nack_drops;
            trace(obs::TraceEventKind::nack, now, p, packet.source,
                  header.sequence, header.message, header.epoch);
            return;
        }
        Outstanding& out = *engine.outstanding;
        encode_epoch_frame_into(engine.epoch, out.sequence, out.mid,
                                engine.clock->current_span(), out.frame);
        if (proto_.delta) {
            // Full-vector resync on NACK: the channel just crossed an
            // epoch boundary under the sender's feet, so the old-epoch
            // shadow (and any claim to sequence continuity) is void.
            out_channel(engine, packet.source).req_shadow.valid = false;
        }
        ++tally_.nack_retransmits;
        trace(obs::TraceEventKind::retransmit, now, p, packet.source,
              out.sequence, out.mid, logical(p));
        send_full_frame(now, p, out.receiver, kReq, out.mid, out.frame);
    }

    /// Decodes a HELLO or HELLO_ACK into its header and width-1 value;
    /// false, counted as a corrupt reject, when the frame is damaged.
    bool read_hello(std::uint64_t now, ProcessId p, const Packet& packet,
                    FrameHeader& header, std::uint64_t& value) {
        try {
            header = decode_epoch_frame_into(
                packet.body, std::span<std::uint64_t>(&value, 1));
            return true;
        } catch (const WireError&) {
            reject(now, p, packet);
            return false;
        }
    }

    /// A restarted neighbor announced itself: replay every REQ in the
    /// send window beyond its committed high-water mark (original bytes,
    /// original epoch tags) and acknowledge the handshake.
    void handle_hello(std::uint64_t now, ProcessId p, const Packet& packet) {
        Engine& engine = engines_[p];
        FrameHeader header;
        std::uint64_t peer_committed = 0;
        if (!read_hello(now, p, packet, header, peer_committed)) return;
        trace(obs::TraceEventKind::hello, now, p, packet.source,
              header.sequence, peer_committed, logical(p));
        // The HELLO_ACK's width-1 "stamp" carries this engine's send
        // frontier toward the rejoiner — the highest sequence it has
        // assigned on that channel. The rejoiner is owed every frame up
        // to it and uses the figure to watchdog the (droppable, never
        // re-timed) window replay below.
        std::uint64_t frontier = 0;
        if (const auto it = engine.out.find(packet.source);
            it != engine.out.end()) {
            it->second.req_window.for_each([&](const FrameWindow::Entry&
                                                   entry) {
                if (entry.sequence <= peer_committed) return;
                // The window holds canonical full frames.
                const FrameInfo cached = peek_frame_info(entry.frame);
                SYNCTS_ENSURE(!cached.delta, "a REQ window frame is a delta");
                ++tally_.window_retransmits;
                trace(obs::TraceEventKind::retransmit, now, p, packet.source,
                      entry.sequence, cached.header.message, logical(p));
                // A replay burst to one destination batches naturally:
                // every frame here shares the rejoiner's address.
                send_full_frame(now, p, packet.source, kReq,
                                cached.header.message, entry.frame);
            });
            frontier = it->second.next_sequence;
        }
        send_hello(now, p, packet.source, kHelloAck, header.sequence,
                   frontier);
    }

    void handle_hello_ack(std::uint64_t now, ProcessId p,
                          const Packet& packet) {
        Engine& engine = engines_[p];
        FrameHeader header;
        std::uint64_t frontier = 0;
        if (!read_hello(now, p, packet, header, frontier)) return;
        // Record the peer's frontier even on a late/duplicate ACK: the
        // owed-frame gap it reveals is real regardless of handshake
        // bookkeeping, and only a watchdog will close it if the window
        // replay is lost.
        InChannel& channel = in_channel(engine, packet.source);
        channel.replay_target = std::max(channel.replay_target, frontier);
        if (channel.last_committed < channel.replay_target &&
            !channel.watchdog_armed) {
            channel.watchdog_armed = true;
            arm_replay_watchdog(now, p, packet.source,
                                channel.replay_attempts);
        }
        if (!engine.rejoining) return;  // late copy of a settled handshake
        const auto it = std::find(engine.awaiting_hello.begin(),
                                  engine.awaiting_hello.end(), packet.source);
        if (it == engine.awaiting_hello.end()) return;
        engine.awaiting_hello.erase(it);
        trace(obs::TraceEventKind::hello, now, p, packet.source,
              header.sequence, 1, logical(p));
        if (engine.awaiting_hello.empty()) complete_rejoin(now, p);
    }

    void publish_metrics(obs::MetricsRegistry& m,
                         const ReconfigurableRunResult& result) const;
};

ProtocolRun::ProtocolRun(const TopologyManager& topology,
                         std::span<const SyncComputation> scripts,
                         const SynchronizerOptions& options)
    : topology_(topology),
      scripts_(scripts),
      options_(options),
      crash_rules_(n_max_),
      engines_(n_max_),
      segments_(num_epochs_),
      durable_epoch_(n_max_, kNoDurableEpoch) {
    for (const CrashRule& rule : options_.faults.crashes) {
        crash_rules_[rule.process].push_back(rule);
    }
    for (std::vector<CrashRule>& rules : crash_rules_) {
        std::stable_sort(rules.begin(), rules.end(),
                         [](const CrashRule& a, const CrashRule& b) {
                             return a.at_step < b.at_step;
                         });
    }
    if (options_.metrics != nullptr) {
        obs::MetricsRegistry& m = *options_.metrics;
        rendezvous_hist_ = &m.histogram("sync_rendezvous_ticks");
        attempts_hist_ = &m.histogram("sync_attempts_per_message");
        if (recovery_active_) {
            snapshot_bytes_hist_ = &m.histogram("recover_snapshot_bytes");
            replay_hist_ = &m.histogram("recover_replay_records");
        }
    }
    network_.set_uniform_latency(options_.latency_lo, options_.latency_hi);
    network_.set_fault_plan(options_.faults);
    stores_.reserve(n_max_);
    for (ProcessId p = 0; p < n_max_; ++p) {
        engines_[p].self = p;
        stores_.push_back(
            DurableStore{{}, Wal(options_.recovery.wal_flush_interval)});
    }
    if (proto_.bandwidth.enabled) bsched_.emplace(proto_.bandwidth, n_max_);
    if (wire_ext_) tx_.resize(n_max_);
    flushed_.reserve(num_epochs_);
    for (ProcessId p = 0; p < n_max_; ++p) {
        load_engine(p, 0);
        network_.on_deliver(p, [this, p](std::uint64_t now,
                                         const Packet& packet) {
            deliver(now, p, packet);
        });
    }
    network_.on_timer(
        [this](std::uint64_t now, const Timer& timer) { fire(now, timer); });
}

ReconfigurableRunResult ProtocolRun::run() {
    // Kick off every epoch-0 process at time 0; leading message-free
    // epochs transition immediately. With recovery armed, every process
    // checkpoints its initial state first, so even a crash on the very
    // first step has a snapshot to restart from.
    if (recovery_active_) {
        for (ProcessId p = 0; p < n_max_; ++p) take_snapshot(p);
    }
    for (ProcessId p = 0; p < topology_.epoch(0).num_processes(); ++p) {
        progress(0, p);
    }
    maybe_transition(0);
    ReconfigurableRunResult result;
    result.virtual_duration = network_.run();
    result.packets = network_.packets_delivered();
    result.network_faults = network_.fault_stats();
    result.protocol = tally_.wire;
    if (options_.metrics != nullptr) publish_metrics(*options_.metrics, result);

    SYNCTS_ENSURE(current_epoch_ == num_epochs_ - 1,
                  "protocol finished before the last epoch");
    for (const Engine& engine : engines_) {
        SYNCTS_ENSURE(!engine.down, "protocol finished with a process down");
        SYNCTS_ENSURE(!engine.rejoining, "protocol finished mid-rejoin");
        SYNCTS_ENSURE(engine.epoch == current_epoch_,
                      "protocol finished with a lagging process");
        SYNCTS_ENSURE(engine.cursor == engine.script.size(),
                      "protocol finished with unexecuted script actions");
        SYNCTS_ENSURE(!engine.outstanding, "protocol finished mid-rendezvous");
    }
    for (const TxProc& proc : tx_) {
        for (const auto& [dst, q] : proc.queues) {
            SYNCTS_ENSURE(q.batch.empty(),
                          "protocol finished with queued frames");
        }
    }

    // The run finished cleanly, so nothing can rewind anymore: flush
    // whatever the frontier had not yet retired, in epoch order behind
    // the already-retired prefix.
    while (flushed_below_ < num_epochs_) {
        flush_segment(flushed_below_);
        ++flushed_below_;
    }
    result.segments = std::move(flushed_);
    return result;
}

void ProtocolRun::publish_metrics(obs::MetricsRegistry& m,
                                  const ReconfigurableRunResult& result) const {
    const ProtocolStats& wire = tally_.wire;
    const FaultStats& faults = result.network_faults;
    m.counter("sync_req_sent").inc(tally_.req_sent);
    m.counter("sync_commits").inc(tally_.commits);
    m.counter("sync_retransmits").inc(tally_.retransmits);
    m.counter("sync_timeouts").inc(tally_.timeouts);
    m.counter("sync_req_duplicates").inc(tally_.req_duplicates);
    m.counter("sync_ack_duplicates").inc(tally_.ack_duplicates);
    m.counter("sync_ack_replays").inc(tally_.ack_replays);
    m.counter("sync_frames_corrupt_rejected").inc(tally_.corrupt_rejects);
    m.counter("sync_packets_delivered").inc(result.packets);
    m.counter("sync_runs").inc();
    m.counter("sync_epoch_transitions").inc(num_epochs_ - 1);
    m.counter("sync_epoch_rejects").inc(tally_.epoch_rejects);
    m.counter("sync_nacks_sent").inc(tally_.nacks_sent);
    m.counter("sync_nack_drops").inc(tally_.nack_drops);
    m.counter("sync_nack_retransmits").inc(tally_.nack_retransmits);
    m.gauge("sync_virtual_ticks")
        .set(static_cast<std::int64_t>(result.virtual_duration));
    m.counter("sync_bytes_sent").inc(wire.bytes_sent);
    m.counter("sync_wire_packets").inc(wire.wire_packets);
    if (wire_ext_) {
        m.counter("sync_batch_packets").inc(wire.batch_packets);
        m.counter("sync_batch_frames").inc(wire.batch_frames);
        m.counter("sync_acks_coalesced").inc(wire.acks_coalesced);
        m.counter("wire_delta_frames").inc(wire.delta_frames);
        m.counter("wire_full_frames").inc(wire.full_frames);
        m.counter("wire_delta_resyncs").inc(wire.delta_resyncs);
    }
    if (bsched_) {
        m.counter("bsched_admitted").inc(bsched_->counters().admitted);
        m.counter("bsched_refused").inc(bsched_->counters().refused);
        m.counter("bsched_bytes_admitted")
            .inc(bsched_->counters().bytes_admitted);
        m.counter("bsched_deferrals").inc(wire.bsched_deferrals);
    }
    m.counter("net_packets_dropped")
        .inc(faults.dropped + faults.targeted_drops);
    m.counter("net_packets_duplicated").inc(faults.duplicated);
    m.counter("net_packets_corrupted").inc(faults.corrupted);
    m.counter("net_packets_delayed").inc(faults.delayed);
    if (recovery_active_) {
        m.counter("recover_crashes").inc(faults.crashes);
        m.counter("recover_restarts").inc(tally_.restarts);
        m.counter("recover_replayed_records").inc(tally_.replayed_records);
        m.counter("recover_snapshots").inc(tally_.snapshots);
        m.counter("recover_recommits").inc(tally_.recommits);
        m.counter("recover_window_ack_replays").inc(tally_.window_ack_replays);
        m.counter("recover_window_retransmits").inc(tally_.window_retransmits);
        m.counter("recover_hellos").inc(tally_.hellos);
        m.counter("recover_hello_acks").inc(tally_.hello_acks);
        m.counter("recover_future_buffered").inc(tally_.future_buffered);
        m.counter("recover_fast_forwards").inc(tally_.fast_forwards);
        m.counter("net_down_drops").inc(faults.down_drops);
        m.counter("net_corrupt_down_drops").inc(faults.corrupt_down_drops);
        std::uint64_t wal_appends = 0;
        std::uint64_t wal_flushes = 0;
        std::uint64_t wal_truncated = 0;
        std::uint64_t wal_dropped = 0;
        for (const DurableStore& store : stores_) {
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
    if (sink_ != nullptr) {
        // Ring-pressure diagnostics: how many events wrapped away and the
        // retention high-water mark, so an undersized sink is visible in
        // every report instead of silently profiling a truncated window.
        m.counter("trace_dropped").inc(sink_->dropped() - sink_dropped_before_);
        m.gauge("trace_peak_events")
            .set_max(static_cast<std::int64_t>(sink_->peak_size()));
    }
    if (recorder_ != nullptr) recorder_->publish_metrics(m);
}

}  // namespace

ReconfigurableRunResult run_reconfigurable_protocol(
    const TopologyManager& topology, std::span<const SyncComputation> scripts,
    const SynchronizerOptions& options) {
    validate_run(topology, scripts, options);
    return ProtocolRun(topology, scripts, options).run();
}

}  // namespace syncts
