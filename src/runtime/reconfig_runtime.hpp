#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "runtime/synchronizer.hpp"
#include "topo/topology_manager.hpp"
#include "trace/computation.hpp"

/// \file reconfig_runtime.hpp
/// The rendezvous protocol over a *reconfigurable* topology.
///
/// A TopologyManager fixes a sequence of immutable epochs (docs/
/// TOPOLOGY.md); this driver pushes one scripted computation per epoch
/// through the REQ/ACK protocol of synchronizer.hpp on a single
/// continuous packet network. Epoch transitions follow the barrier
/// model: when every epoch-e message has committed and every sender is
/// unblocked, the whole system crosses into epoch e+1 at the current
/// virtual time — clocks are rebound to the new decomposition and start
/// from zero, scratch buffers are resized to the new width d, and the
/// per-epoch script resumes. Per-directed-channel sequence numbers
/// continue across the barrier, so the duplicate-suppression state stays
/// valid for late copies of old traffic.
///
/// Late traffic is the interesting part: the network is allowed to hold
/// duplicated or delayed frames from epoch e while the system is in
/// e+1. Every frame carries its epoch (wire format v2; epoch-0 frames
/// are bit-identical to the pre-epoch v1 layout), and a receiver counts
/// every epoch-stale frame as a reject. A stale REQ whose sequence the
/// ACK window still holds gets its original ACK bytes back (a restarted
/// sender re-executing a pre-barrier send needs them); any other stale
/// REQ, and every stale ACK, is dropped. Nothing waits on such a frame:
/// an outstanding REQ is always encoded in its sender's own epoch, no
/// barrier is crossed with a send outstanding, and a restarted sender
/// resumes in the epoch its frame was encoded in.
///
/// Counters published to SynchronizerOptions::metrics, beyond the
/// single-epoch `sync_*` set: `sync_epoch_transitions` and
/// `sync_epoch_rejects` (docs/OBSERVABILITY.md).
///
/// Crash recovery (docs/RECOVERY.md): when the fault plan carries crash
/// rules (or RecoveryOptions::enabled is set), every process keeps a
/// durable store — a checksummed snapshot of its full protocol state
/// plus a write-ahead log of sent/committed/acknowledged frames with
/// group flush points. A crash wipes the volatile engine and the WAL's
/// unflushed tail; after the rule's downtime the process restarts,
/// replays the log over the latest snapshot (reconstructing state
/// bit-identical to a never-crashed process, enforced with ENSUREs on
/// every re-derived stamp), and runs a HELLO/HELLO_ACK rejoin handshake
/// so neighbors replay the frames it lost from their per-channel
/// windows. Re-executed sends reproduce the original bytes under the
/// original sequence numbers, so the realized computation and every
/// timestamp are unchanged by any crash schedule the run survives.
/// Snapshots double as WAL truncation points (the stability rule of
/// Drummond–Barbosa-style logging), and every epoch barrier checkpoints,
/// so a rewind never crosses a barrier. `recover_*` and
/// `net_down_drops` counters cover the whole layer.

namespace syncts {

/// One epoch's slice of a reconfigurable run — the same record
/// run_rendezvous_protocol produces for its single epoch.
struct EpochSegmentResult {
    /// Which epoch of the TopologyManager this segment ran under.
    EpochId epoch = 0;

    /// The realized computation on that epoch's topology: same messages
    /// and per-process orders as the epoch's script, instants renumbered
    /// to commit order.
    SyncComputation computation;

    /// message_stamps[m] — timestamp of realized message m (commit
    /// order), width = the epoch's decomposition size d. Per-epoch
    /// stamps are relative to the epoch barrier; add the engine floor
    /// for absolute values (docs/TOPOLOGY.md).
    std::vector<VectorTimestamp> message_stamps;

    /// For each realized message, the epoch-script MessageId it
    /// corresponds to.
    std::vector<MessageId> script_message;
};

struct ReconfigurableRunResult {
    /// One segment per epoch, in epoch order (possibly empty segments
    /// for epochs whose script has no messages).
    std::vector<EpochSegmentResult> segments;

    /// Total virtual time until the last packet was delivered.
    std::uint64_t virtual_duration = 0;

    /// Packets delivered off the wire across all epochs (REQ + ACK +
    /// faults-induced extras).
    std::uint64_t packets = 0;

    /// What the network injected over the whole run.
    FaultStats network_faults;

    /// Wire-level accounting of the sent traffic (docs/PROTOCOL.md).
    ProtocolStats protocol;
};

/// Replays `scripts[e]` through the protocol under epoch e of
/// `topology`, for every epoch, with barrier transitions in between.
/// Requires scripts.size() == topology.num_epochs() and each script's
/// topology to match its epoch's graph. Per-epoch timestamps are
/// bit-identical to a fresh single-epoch run of that epoch's script on
/// that epoch's decomposition (the headline property tests assert).
ReconfigurableRunResult run_reconfigurable_protocol(
    const TopologyManager& topology, std::span<const SyncComputation> scripts,
    const SynchronizerOptions& options = {});

}  // namespace syncts
