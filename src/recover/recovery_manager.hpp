#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "decomp/edge_decomposition.hpp"
#include "recover/snapshot.hpp"
#include "recover/wal.hpp"

/// \file recovery_manager.hpp
/// Snapshot + WAL replay → the state of a never-crashed process
/// (docs/RECOVERY.md).
///
/// Recovery decodes the latest snapshot, rebuilds the process's online
/// clock on the snapshot epoch's decomposition, and re-applies every
/// durable WAL record from the snapshot's stability point forward —
/// commits re-run the Fig. 5 receiver merge on the logged REQ frame,
/// accepted ACKs re-run the sender merge, sends re-establish the
/// outstanding REQ, and epoch records cross the barrier. Because the
/// merges are deterministic functions of the frame bytes, the replayed
/// clock is *provably* bit-identical to the pre-crash one: every commit
/// re-encodes its ACK and checks it byte-for-byte against the logged
/// original, so any divergence faults the recovery instead of
/// propagating.

namespace syncts {

/// The reconstructed state plus replay statistics.
struct RecoverOutcome {
    ProcessState state;

    /// The snapshot's own epoch — the process's rewind floor. WAL
    /// replay may carry `state.epoch` past it (epoch records cross
    /// barriers), but no recovery of this store can ever touch an epoch
    /// below `stable_epoch`: it is the anchor the runtime's stability
    /// frontier is keyed on. The runtime retires no epoch segment at or
    /// above it, and `segment_for`'s ENSURE fails a run that touches a
    /// retired one (docs/MEMORY.md).
    EpochId stable_epoch = 0;

    std::uint64_t replayed_records = 0;
    std::uint64_t replayed_epochs = 0;

    /// The LSN the WAL will assign next, as implied by what recovery
    /// consumed: the snapshot's stability point plus every replayed
    /// record. The runtime cross-checks this against the live log's
    /// next_lsn() (and the flight recorder's dumped WAL position) — a
    /// mismatch means recovery and the log disagree about how much
    /// history survived the crash.
    std::uint64_t wal_next_lsn = 0;
};

class RecoveryManager {
public:
    /// Maps an epoch id to its decomposition ("known by all processes" —
    /// the topology manager in the runtime, a fixture in tests).
    using DecompositionProvider =
        std::function<std::shared_ptr<const EdgeDecomposition>(EpochId)>;

    /// Reconstructs the process state from `snapshot_bytes` and the
    /// durable suffix of `wal`. Throws RecoveryError when the snapshot or
    /// log is damaged, or when the log no longer reaches back to the
    /// snapshot's stability point (over-eager truncation).
    static RecoverOutcome recover(std::span<const std::uint8_t> snapshot_bytes,
                                  const Wal& wal,
                                  const DecompositionProvider& decomposition);
};

}  // namespace syncts
