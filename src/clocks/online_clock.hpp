#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "clocks/vector_timestamp.hpp"
#include "common/timestamp_arena.hpp"
#include "decomp/edge_decomposition.hpp"
#include "obs/metrics.hpp"
#include "trace/computation.hpp"

/// \file online_clock.hpp
/// The paper's online timestamping algorithm (Fig. 5).
///
/// Each process keeps a vector of size d (the edge-decomposition size). On
/// a message from Pi to Pj the two processes exchange their current
/// vectors (piggybacked on the message and its acknowledgement), each takes
/// the component-wise maximum, and each increments the component of the
/// edge group containing channel (i, j). Both sides arrive at the same
/// vector, which is the message's timestamp. Theorem 4:
///     m1 ↦ m2 ⟺ v(m1) < v(m2).
///
/// OnlineProcessClock exposes the three protocol hooks exactly as a real
/// transport would drive them, as span forms that write into
/// caller-provided width-d slots (arena rows, packet buffers, a blocked
/// sender's acknowledgement buffer) and never allocate. Both runtimes
/// stamp through them. OnlineTimestamper drives all N clocks from a
/// recorded SyncComputation or from messages appended one at a time.

namespace syncts {

class OnlineProcessClock {
public:
    /// Clock for process `self` under a shared decomposition. The
    /// decomposition is shared immutable state — "known by all processes".
    OnlineProcessClock(ProcessId self,
                       std::shared_ptr<const EdgeDecomposition> decomposition);

    ProcessId self() const noexcept { return self_; }

    /// Timestamp width d.
    std::size_t width() const noexcept { return vector_.width(); }

    /// Re-targets the clock at process `self` under `decomposition`, as
    /// if freshly constructed, reusing the vector and peer-table storage
    /// when the shapes match. The protocol runtime rebinds each process's
    /// clock in place at every epoch load (docs/MEMORY.md).
    void rebind(ProcessId self,
                std::shared_ptr<const EdgeDecomposition> decomposition);

    /// Overwrites the local vector with `state` (width() words) — the
    /// crash-recovery restore hook (docs/RECOVERY.md). The decomposition
    /// is immutable shared state, so a snapshot needs only the vector.
    void restore_from(std::span<const std::uint64_t> state);

    // ---- Non-allocating span hooks (the hot path) ---------------------

    /// The current local vector as a read-only span of width() words.
    std::span<const std::uint64_t> current_span() const noexcept {
        return vector_.components();
    }

    /// Fig. 5 line (02): writes the vector to piggyback on an outgoing
    /// message into `out` (width() words).
    void prepare_send_into(std::span<std::uint64_t> out) const;

    /// Fig. 5 lines (03)-(07), receiver side, in one pass over d words:
    /// writes the acknowledgement vector (the local vector *before* the
    /// merge) into `ack_out`, merges the piggybacked vector, increments
    /// the channel group, and writes the message timestamp into
    /// `stamp_out`. Every check runs before any write, so a rejected call
    /// changes neither the clock nor either output.
    void on_receive_into(ProcessId sender,
                         std::span<const std::uint64_t> piggybacked,
                         std::span<std::uint64_t> ack_out,
                         std::span<std::uint64_t> stamp_out);

    /// Fig. 5 lines (08)-(11), sender side, in one pass: merges the
    /// acknowledgement, increments, and writes the (identical) message
    /// timestamp into `stamp_out`. A rejected call changes nothing.
    void on_ack_into(ProcessId receiver,
                     std::span<const std::uint64_t> acknowledgement,
                     std::span<std::uint64_t> stamp_out);

    /// Both sides of one rendezvous in one pass, for a caller that holds
    /// both clocks (an in-process replay): this clock sends to
    /// `receiver`, and both vectors and `out` (width() words) end equal
    /// to max(sender, receiver) + e_g — what the three hooks above leave.
    /// Every check runs before any write, so a rejected call changes
    /// nothing.
    void rendezvous_into(OnlineProcessClock& receiver,
                         std::span<std::uint64_t> out);

    /// Current local vector (the timestamp of this process's latest
    /// message, or zero before any).
    const VectorTimestamp& current() const noexcept { return vector_; }

    /// Edge group of channel (self, peer); rejects a peer with no
    /// channel.
    GroupId group_with(ProcessId peer) const;

private:
    ProcessId self_;
    std::shared_ptr<const EdgeDecomposition> decomposition_;
    /// group_by_peer_[p] — edge group of channel (self, p). It holds
    /// 1 + the largest neighbour id entries (none for an isolated
    /// process); a peer past the end or a kNoGroup entry has no channel.
    /// Precomputed so the per-message hot path is one array load instead
    /// of a hash lookup in the decomposition.
    std::vector<GroupId> group_by_peer_;
    VectorTimestamp vector_;
};

/// Drives the Fig. 5 protocol over a whole system, one OnlineProcessClock
/// per process, from recorded or incrementally appended messages. Every
/// driver rejects ids out of range, a self-message and a pair with no
/// channel before it writes anything or takes an arena slot, so a
/// rejected call changes nothing.
class OnlineTimestamper {
public:
    explicit OnlineTimestamper(
        std::shared_ptr<const EdgeDecomposition> decomposition);

    /// Timestamp width d.
    std::size_t width() const noexcept { return decomposition_->size(); }

    std::size_t num_processes() const noexcept { return clocks_.size(); }

    const EdgeDecomposition& decomposition() const noexcept {
        return *decomposition_;
    }

    const OnlineProcessClock& clock(ProcessId p) const;

    /// Registers `clock_online_stamps` (messages stamped by the counting
    /// drivers), `clock_online_internal_ticks` (internal events walked by
    /// stamp_messages) and the `clock_width` gauge, set to width().
    /// Registration allocates; afterwards each count is one branch and a
    /// relaxed add. The registry must outlive the timestamper.
    void attach_metrics(obs::MetricsRegistry& registry);

    /// One rendezvous through OnlineProcessClock::rendezvous_into: both
    /// clocks advance and the message timestamp lands in `out` (width()
    /// words), bit-identical to the three-hook drivers. Counts toward
    /// clock_online_stamps.
    void stamp_into(ProcessId sender, ProcessId receiver,
                    std::span<std::uint64_t> out);

    /// One rendezvous through the three span hooks (never the fused
    /// rendezvous_into, so these drivers stay an independent reference
    /// for it) into a fresh slot of `arena`, whose width must be width().
    /// Allocates nothing once the arena has capacity. Counts toward
    /// clock_online_stamps.
    TsHandle timestamp_message(ProcessId sender, ProcessId receiver,
                               TimestampArena& arena);

    /// As above, returning the message timestamp as an owning value.
    /// Counts nothing.
    VectorTimestamp timestamp_message(ProcessId sender, ProcessId receiver);

    /// Value driver over a whole computation; result[id] is message id's
    /// timestamp. The computation's topology must match the
    /// decomposition's. Counts nothing.
    std::vector<VectorTimestamp> timestamp_computation(
        const SyncComputation& computation);

    /// Walks `computation` in instant order (for_each_instant), stamps
    /// every message into `arena` through the arena driver and counts
    /// each internal event toward clock_online_internal_ticks. Returns
    /// the slot handles by MessageId.
    std::vector<TsHandle> stamp_messages(const SyncComputation& computation,
                                         TimestampArena& arena);

private:
    /// Rejects ids out of range, a self-message and a pair with no
    /// channel.
    void check_rendezvous(ProcessId sender, ProcessId receiver) const;

    /// Fig. 5's three hooks for one checked rendezvous; the receiver's
    /// stamp lands in `stamp_out` and must equal the sender's.
    void run_hooks(ProcessId sender, ProcessId receiver,
                   std::span<std::uint64_t> stamp_out);

    std::shared_ptr<const EdgeDecomposition> decomposition_;
    std::vector<OnlineProcessClock> clocks_;
    // Width-d scratch of the three hooks: piggyback, ack, sender's echo.
    std::vector<std::uint64_t> piggyback_;
    std::vector<std::uint64_t> ack_;
    std::vector<std::uint64_t> echo_;

    obs::Counter* metric_stamps_ = nullptr;
    obs::Counter* metric_internal_ = nullptr;
};

/// One-shot convenience: decompose with the library default and timestamp
/// every message of `computation`.
std::vector<VectorTimestamp> online_timestamps(
    const SyncComputation& computation);

}  // namespace syncts
