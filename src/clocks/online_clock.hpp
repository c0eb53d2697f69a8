#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "clocks/clock_engine.hpp"
#include "clocks/vector_timestamp.hpp"
#include "decomp/edge_decomposition.hpp"
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
/// recorded SyncComputation and is the ClockFamily::online engine.

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

    /// Returns the clock to its initial all-zero vector.
    void reset() noexcept;

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

private:
    /// Edge group of channel (self, peer); rejects a peer with no
    /// channel.
    GroupId group_with(ProcessId peer) const;

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

/// Drives the Fig. 5 protocol over a whole system from recorded or
/// incrementally appended messages; the ClockFamily::online engine.
class OnlineTimestamper final : public ClockEngine {
public:
    explicit OnlineTimestamper(
        std::shared_ptr<const EdgeDecomposition> decomposition);

    ClockFamily family() const noexcept override {
        return ClockFamily::online;
    }

    /// Timestamp width d.
    std::size_t width() const noexcept override;

    std::size_t num_processes() const noexcept override {
        return clocks_.size();
    }

    void reset() override;

    /// Swaps in the new epoch's decomposition: the accumulated floor is
    /// migrated by the component rule (preserved groups carry, rebuilt
    /// ones start at zero) and every process clock is rebuilt at the new
    /// width d, zeroed. Requires transition.from to match the current
    /// decomposition's shape.
    void on_epoch(const EpochTransition& transition) override;

    const EdgeDecomposition& decomposition() const noexcept {
        return *decomposition_;
    }

    void prepare_send(ProcessId sender,
                      std::span<std::uint64_t> out) override;
    void on_receive(ProcessId sender, ProcessId receiver,
                    std::span<const std::uint64_t> piggyback,
                    std::span<std::uint64_t> ack_out,
                    std::span<std::uint64_t> stamp_out) override;
    void on_ack(ProcessId sender, ProcessId receiver,
                std::span<const std::uint64_t> acknowledgement,
                std::span<std::uint64_t> stamp_out) override;

    /// One rendezvous through OnlineProcessClock::rendezvous_into: both
    /// clocks advance and the message timestamp lands in `out` (width()
    /// words), bit-identical to the three-hook drivers. Counts toward
    /// clock_online_stamps when metrics are attached. A rejected call
    /// changes nothing.
    void stamp_into(ProcessId sender, ProcessId receiver,
                    std::span<std::uint64_t> out);

    /// Arena-slot rendezvous driver from the base class.
    using ClockEngine::timestamp_message;

    /// Allocating rendezvous: executes one rendezvous through the three
    /// span hooks (never the fused rendezvous_into, so it stays an
    /// independent reference for it) and returns the message timestamp
    /// as an owning value. Counts nothing.
    VectorTimestamp timestamp_message(ProcessId sender, ProcessId receiver);

    /// Allocating batch driver over timestamp_message; result[id] is
    /// message id's timestamp. The computation's topology must match the
    /// decomposition's.
    std::vector<VectorTimestamp> timestamp_computation(
        const SyncComputation& computation);

    const OnlineProcessClock& clock(ProcessId p) const;

protected:
    /// State payload: the N width-d process vectors, row-major.
    void save_payload(std::vector<std::uint64_t>& out) const override;
    void restore_payload(std::span<const std::uint64_t> payload) override;

private:
    std::shared_ptr<const EdgeDecomposition> decomposition_;
    std::vector<OnlineProcessClock> clocks_;
};

/// One-shot convenience: decompose with the library default and timestamp
/// every message of `computation`.
std::vector<VectorTimestamp> online_timestamps(
    const SyncComputation& computation);

}  // namespace syncts
