#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "clocks/online_clock.hpp"
#include "decomp/edge_decomposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/fault_plan.hpp"
#include "trace/computation.hpp"

/// \file synchronizer.hpp
/// Synchronous messages implemented over an *unreliable* asynchronous
/// packet network — the layer the paper assumes exists ("implementation of
/// synchronous messages requires that the sender wait for an
/// acknowledgment from the receiver", Section 1, citing Murty & Garg),
/// hardened against the faults a production transport actually exhibits:
/// loss, duplication, reordering, and payload corruption.
///
/// Protocol, per message m from Pi to Pj (see docs/FAULTS.md for the full
/// recovery state machine):
///   1. Pi assigns the next sequence number s on directed channel (i, j)
///      and sends REQ(s, m) carrying its current clock vector inside a
///      checksummed frame, then blocks. A retransmission timer re-sends
///      the identical REQ on timeout with capped exponential backoff.
///   2. Pj, when its program reaches the matching receive and holds a
///      *fresh* REQ (s == last committed sequence on (i, j) plus one),
///      merges, increments the channel's group component — the message is
///      committed exactly once here; Fig. 5's merge+increment is not
///      idempotent, so the commit is guarded by the sequence state — and
///      replies ACK(s, m) carrying its pre-merge vector. The encoded ACK
///      is cached per channel.
///   3. A duplicate REQ (s == last committed sequence: the ACK was lost,
///      or the REQ itself was duplicated in flight after commit) re-sends
///      the cached ACK without touching the clock. Older sequences are
///      dropped.
///   4. Pi accepts the ACK only while blocked on that exact (channel,
///      sequence); duplicate or stale ACKs are dropped. On accept it
///      performs the identical merge + increment and resumes. Both sides
///      hold the same timestamp.
/// Frames failing checksum / length / width validation are counted and
/// discarded — recovery is retransmission, never a garbage timestamp.
///
/// The driver replays a recorded computation's per-process event orders as
/// the programs, so any realizable schedule can be pushed through the
/// protocol; commit order then forms a valid instant order of the same
/// computation, and the resulting timestamps are bit-identical to the
/// direct Fig. 5 simulator's regardless of network latencies *and* of any
/// fault schedule the plan injects.

namespace syncts {

namespace obs {
class FlightRecorder;
}

/// Thrown when a message exhausts its retransmission budget (e.g. a
/// targeted fault rule swallows every attempt). Distinct from
/// NetworkDeadlock: the program is fine, the network is unusable.
class SynchronizerStalled : public std::runtime_error {
public:
    explicit SynchronizerStalled(const std::string& what)
        : std::runtime_error(what) {}
};

/// Configuration of the crash-recovery layer (docs/RECOVERY.md): how
/// often each process checkpoints, how the rendezvous WAL batches its
/// flush points, and how many cached frames each directed channel keeps
/// for rejoin replay. Recovery is armed automatically whenever the fault
/// plan contains crash rules; `enabled` forces it on for crash-free runs
/// (checkpointing overhead only — timestamps are unchanged either way).
struct RecoveryOptions {
    bool enabled = false;

    /// WAL records per group flush (>= 1). A crash loses at most the
    /// unflushed tail — flush points model batched fsyncs.
    std::uint64_t wal_flush_interval = 4;

    /// Protocol steps between automatic snapshots (>= 1). Every epoch
    /// barrier also snapshots and truncates the WAL.
    std::uint64_t snapshot_interval = 16;

    /// Cached frames retained per directed channel for rejoin replay.
    /// Must be >= wal_flush_interval so a restarted peer's rewind (at
    /// most one flush interval) always hits the window.
    std::size_t window = 8;
};

/// Fair per-channel bandwidth limiting for the batched TX path
/// (docs/PROTOCOL.md): a token bucket per directed channel under one
/// global budget, refilled per virtual tick, with deficit-round-robin
/// ordering when several queues of one process are due together. A
/// flush that the buckets cannot admit is deferred to the bucket's
/// ready time — bounded, so coalescing never stalls a quiet channel.
struct BandwidthOptions {
    bool enabled = false;

    /// Refill rate, in bytes per virtual tick (>= 1 when enabled), of
    /// both the global budget across all of a process's channels and
    /// each directed channel's own bucket.
    std::uint64_t bytes_per_tick = 256;

    /// Bucket capacity — the largest burst a channel (and the global
    /// budget) can admit at once. 0 = auto: 8x the refill rate, floored
    /// at 4096 so a single full-vector frame always fits.
    std::uint64_t burst = 0;

    /// Deficit-round-robin quantum in bytes (>= 1): how much service
    /// credit a due queue earns per scheduling round.
    std::uint64_t quantum = 512;
};

/// The batched wire path (docs/PROTOCOL.md): all knobs default off, in
/// which case the synchronizer keeps the classic one-frame-per-packet
/// profile bit-for-bit. Timestamps are bit-identical either way — only
/// packet count, bytes, and delivery schedule change.
struct ProtocolOptions {
    /// Collect frames bound for the same destination within a tick (and
    /// coalesced ACKs) into one v4 batch container per packet. Any knob
    /// (active()) routes frames through the per-destination TX queues,
    /// which batch whenever two frames share a destination and a tick, so
    /// this knob adds nothing beyond turning that routing on.
    bool batching = false;

    /// Hold ACKs up to max(latency_hi, 1) ticks (well under any
    /// retransmission timeout, so coalescing never races a peer's RTO)
    /// so they ride the next outbound packet to the same peer; a newer
    /// ACK for the same rendezvous supersedes a queued one
    /// (cumulative-ack rule).
    bool coalesce_acks = false;

    /// Delta-encode timestamp vectors against per-channel shadows of the
    /// last frame each peer saw; full-vector resync on every shadow
    /// break (retransmit gap, epoch transition, crash rejoin).
    bool delta = false;

    /// Optional fair bandwidth scheduler over the batched TX queues.
    BandwidthOptions bandwidth;

    /// Whether any extension is on. Any knob routes frames through the
    /// per-destination TX queues, which batch whenever two frames share
    /// a destination and a tick.
    bool active() const noexcept {
        return batching || coalesce_acks || delta || bandwidth.enabled;
    }
};

struct SynchronizerOptions {
    std::uint64_t seed = 1;
    /// Per-packet latency drawn uniformly from [latency_lo, latency_hi].
    std::uint64_t latency_lo = 1;
    std::uint64_t latency_hi = 1;

    /// Faults injected underneath the protocol (default: reliable network).
    FaultPlan faults;

    /// Crash-recovery layer configuration; see RecoveryOptions. Armed
    /// automatically when `faults.crashes` is non-empty.
    RecoveryOptions recovery;

    /// Initial retransmission timeout in virtual-time units. 0 = auto:
    /// 4 * (latency_hi + faults.max_extra_delay) + 1 when the fault plan
    /// is active, and retransmission disabled on a reliable network (so
    /// lossless runs keep the exact 2-packets-per-message wire profile).
    /// Backoff doubles per attempt, capped at initial_timeout << 6.
    std::uint64_t retransmit_timeout = 0;

    /// Batched wire path: batching / ACK coalescing / delta vectors /
    /// bandwidth scheduling. All off by default — the classic profile.
    ProtocolOptions protocol;

    /// Retransmissions per message before SynchronizerStalled is thrown.
    std::uint32_t max_retransmits = 64;

    /// When set, the run publishes its counters into this registry
    /// (`sync_*` and `net_*` metrics — see docs/OBSERVABILITY.md for the
    /// catalog) plus latency/attempt histograms. Must outlive the call.
    obs::MetricsRegistry* metrics = nullptr;

    /// When set, every protocol event (send/receive/commit/ack/
    /// retransmit/timeout/duplicate_drop/ack_replay/corrupt_reject) is
    /// recorded with its virtual time and the acting process's logical
    /// clock total. Must outlive the call.
    obs::TraceSink* trace = nullptr;

    /// When set, the run feeds the flight recorder (obs/flight_recorder
    /// .hpp): every trace event is mirrored into its bounded ring, the
    /// metrics registry is snapshotted every `snapshot_interval` steps,
    /// and a SYFR post-mortem is dumped when a crash rule fires or the
    /// run throws SynchronizerStalled. Independent of `trace` — the
    /// black box stays on when full tracing is off. Must outlive the
    /// call.
    obs::FlightRecorder* recorder = nullptr;
};

/// Wire-level accounting for one run: what the batched path saved (or
/// would have saved) in packets and bytes. All fields count *sent*
/// traffic, before the network injects faults; `wire_packets` therefore
/// exceeds the delivered-packet count under drops. Populated on every
/// run — with ProtocolOptions all-off, batch/coalesce/delta fields stay
/// zero and `full_frames` counts every frame.
struct ProtocolStats {
    /// Payload bytes handed to the network (frame + batch container
    /// bytes; per-packet transport overhead is the bench's concern).
    std::uint64_t bytes_sent = 0;

    /// Packets handed to the network (batch containers count once).
    std::uint64_t wire_packets = 0;

    /// Packets that were v4 batch containers (>= 2 frames each).
    std::uint64_t batch_packets = 0;

    /// Frames carried inside batch containers.
    std::uint64_t batch_frames = 0;

    /// Queued ACKs superseded by a newer ACK of the same rendezvous
    /// before they hit the wire (each one is a packet that never flew).
    std::uint64_t acks_coalesced = 0;

    /// Frames sent delta-encoded (v3) against a channel shadow.
    std::uint64_t delta_frames = 0;

    /// Frames sent as full vectors (v1/v2) — first contact, resyncs,
    /// retransmits, replays, and everything when `delta` is off.
    std::uint64_t full_frames = 0;

    /// Delta frames a receiver had to discard because its shadow did
    /// not match (gap, epoch change, rejoin); each converges to a
    /// full-vector resend via the normal retransmission machinery.
    std::uint64_t delta_resyncs = 0;

    /// Flushes the bandwidth scheduler deferred past their deadline.
    std::uint64_t bsched_deferrals = 0;
};

struct SynchronizerResult {
    /// The realized computation: same messages and per-process orders as
    /// the script, instants renumbered to commit order. (Internal events
    /// are not part of the wire protocol and are dropped.)
    SyncComputation computation;

    /// message_stamps[m] — timestamp of realized message m (commit order).
    std::vector<VectorTimestamp> message_stamps;

    /// For each realized message, the script MessageId it corresponds to.
    std::vector<MessageId> script_message;

    /// Total virtual time until the last packet was delivered.
    std::uint64_t virtual_duration = 0;

    /// Packets delivered off the wire — exactly 2 per message (REQ + ACK)
    /// on a lossless network; more under faults (retransmits, duplicates).
    std::uint64_t packets = 0;

    /// What the network injected (drops, dups, corruption, delays). How
    /// the protocol coped is published to SynchronizerOptions::metrics
    /// (the non-overlapping `sync_*` counters).
    FaultStats network_faults;

    /// Wire-level accounting of the sent traffic: bytes, packets, batch
    /// and coalesce savings, delta/full frame split (docs/PROTOCOL.md).
    ProtocolStats protocol;
};

/// Replays `script` through the REQ/ACK protocol over an asynchronous
/// network. The script's topology must match the decomposition's. This
/// is the single-epoch wrapper over the reconfigurable driver
/// (runtime/reconfig_runtime.hpp); on one epoch the two are
/// bit-identical, frames included (epoch 0 uses the v1 wire layout).
SynchronizerResult run_rendezvous_protocol(
    std::shared_ptr<const EdgeDecomposition> decomposition,
    const SyncComputation& script, const SynchronizerOptions& options);

}  // namespace syncts
