#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/timestamp_arena.hpp"
#include "clocks/vector_timestamp.hpp"
#include "decomp/edge_decomposition.hpp"
#include "topo/epoch.hpp"
#include "trace/computation.hpp"

/// \file clock_engine.hpp
/// The unified clock interface: every timestamping scheme in the library —
/// the paper's online algorithm (Fig. 5), the Fidge–Mattern sync and event
/// baselines, Lamport scalar clocks, Fowler–Zwaenepoel direct-dependency
/// tracking, and the offline realizer algorithm (Fig. 9) — is driven
/// through the same protocol hooks and the same batch driver.
///
/// The hooks mirror what a real transport does per rendezvous and are
/// strictly non-allocating: the caller provides the output slots (arena
/// rows or scratch spans of width() words) and the engine writes
/// components into them. One rendezvous between Pi and Pj is always the
/// three-step dance of Fig. 5:
///
///     prepare_send(i, piggy)            // sender's vector onto the wire
///     on_receive(i, j, piggy, ack, ts)  // receiver merges, stamps, acks
///     on_ack(i, j, ack, ts')            // sender merges; ts' == ts
///
/// with on_internal() ticking the families whose internal events carry
/// stamps (Lamport, FM event clocks). Batch-only engines (offline Fig. 9)
/// report online() == false and implement only the computation drivers.
///
/// See docs/INTERNALS.md for the full interface contract.

namespace syncts {

/// Every clock family behind the unified interface.
enum class ClockFamily {
    online,             ///< Fig. 5, width d (edge-decomposition size)
    fm_sync,            ///< Fidge–Mattern sync messages, width N
    fm_event,           ///< classic FM event clocks, width N
    lamport,            ///< scalar clocks, width 1
    direct_dependency,  ///< Fowler–Zwaenepoel, width 2 (prev-message pair)
    offline,            ///< Fig. 9 realizer, width = width(M, ↦)
};

const char* to_string(ClockFamily family) noexcept;

/// A stamped computation: the arena holding every component slab plus the
/// per-message (and, for families that stamp them, per-internal-event)
/// slot handles.
struct EngineStamps {
    TimestampArena arena;
    /// message_stamps[m] — arena slot of message m's timestamp.
    std::vector<TsHandle> message_stamps;
    /// internal_stamps[i] — arena slot of internal event i's stamp; empty
    /// unless the engine stamps internal events (Lamport, FM event).
    std::vector<TsHandle> internal_stamps;

    /// Materializes the message stamps as owning values (compat shim for
    /// diagram/trace-IO/tooling surfaces).
    std::vector<VectorTimestamp> materialize_messages() const;
};

class ClockEngine {
public:
    virtual ~ClockEngine() = default;

    virtual ClockFamily family() const noexcept = 0;

    /// Components per timestamp. Offline engines report the width of the
    /// most recently stamped computation (0 before any).
    virtual std::size_t width() const noexcept = 0;

    virtual std::size_t num_processes() const noexcept = 0;

    /// False for batch-only engines whose protocol hooks throw.
    virtual bool online() const noexcept { return true; }

    /// True when internal events carry stamps (Lamport, FM event clocks).
    virtual bool stamps_internal_events() const noexcept { return false; }

    /// Returns every process clock to its initial all-zero state, drops
    /// the accumulated epoch floor, and rewinds epoch() to 0 (the engine
    /// behaves as if freshly constructed on its current topology).
    virtual void reset() = 0;

    // ---- Epoch transitions (docs/TOPOLOGY.md) -------------------------

    /// Epoch this engine currently stamps in (0 until the first
    /// on_epoch call after construction or reset()).
    EpochId epoch() const noexcept { return epoch_; }

    /// Crosses one epoch boundary. The engine (1) captures this epoch's
    /// high-water mark (the component-wise maximum over its process
    /// vectors), (2) folds it into the accumulated absolute floor and
    /// migrates the floor into the new component space via the
    /// transition's rule (preserved components carry, rebuilt ones start
    /// at zero), and (3) rebuilds per-process state for transition.to,
    /// reset to zero. Afterwards width()/num_processes() reflect the new
    /// topology and stamping is bit-identical to a fresh engine on it —
    /// the absolute history of a surviving component is epoch_floor()
    /// plus its per-epoch value. Requires epoch() == transition.from_epoch.
    virtual void on_epoch(const EpochTransition& transition);

    /// Accumulated absolute floor of the current epoch: what the
    /// transition chain carried into the current component space. Empty
    /// until the first transition and for families whose stamps are
    /// identifiers rather than counters (direct_dependency) or that are
    /// batch-only (offline).
    std::span<const std::uint64_t> epoch_floor() const noexcept {
        return floor_;
    }

    // ---- Crash-recovery state capture (docs/RECOVERY.md) --------------

    /// Serializes the engine's complete mutable state — family tag,
    /// epoch, accumulated floor, and the family payload — as a versioned
    /// byte frame trailed by a CRC32C checksum, appended to `out`.
    /// An engine restored from these bytes stamps bit-identically to
    /// this one from the capture point on.
    void save_state(std::vector<std::uint8_t>& out) const;

    /// Convenience form of save_state into a fresh buffer.
    std::vector<std::uint8_t> save_state() const;

    /// Restores the state captured by save_state. The engine must have
    /// been built for the same topology shape the saver had at capture
    /// time (same family; payload sized to this engine's process count
    /// and width). Throws WireError on framing or checksum damage and
    /// std::invalid_argument on family or shape mismatch.
    void restore_state(std::span<const std::uint8_t> bytes);

    // ---- Instrumentation ----------------------------------------------

    /// Registers this engine's metrics: `clock_<family>_stamps` (messages
    /// stamped), `clock_<family>_internal_ticks` (internal-event hook
    /// calls during replay), and the `clock_width` gauge. Registration
    /// allocates; the per-stamp cost afterwards is one branch + relaxed
    /// add, so the non-allocating hook contract is preserved. The
    /// registry must outlive the engine.
    void attach_metrics(obs::MetricsRegistry& registry);

    // ---- Non-allocating protocol hooks -------------------------------
    // All spans must hold exactly width() words unless stated otherwise.

    /// Writes the vector to piggyback on a message from `sender`
    /// (Fig. 5 line (02)).
    virtual void prepare_send(ProcessId sender,
                              std::span<std::uint64_t> out) = 0;

    /// Receiver side of the rendezvous (Fig. 5 lines (03)-(07)): writes
    /// the acknowledgement vector (the receiver's state *before* the
    /// merge) into `ack_out` and the message timestamp into `stamp_out`.
    virtual void on_receive(ProcessId sender, ProcessId receiver,
                            std::span<const std::uint64_t> piggyback,
                            std::span<std::uint64_t> ack_out,
                            std::span<std::uint64_t> stamp_out) = 0;

    /// Sender side (Fig. 5 lines (08)-(11)): merges the acknowledgement
    /// and writes the (identical) message timestamp into `stamp_out`.
    virtual void on_ack(ProcessId sender, ProcessId receiver,
                        std::span<const std::uint64_t> acknowledgement,
                        std::span<std::uint64_t> stamp_out) = 0;

    /// Internal event on `process`. `stamp_out` must hold width() words
    /// when stamps_internal_events(), and may be empty otherwise. Default:
    /// no-op (internal events are invisible to message-only families).
    virtual void on_internal(ProcessId process,
                             std::span<std::uint64_t> stamp_out);

    // ---- Drivers ------------------------------------------------------

    /// One full rendezvous into a fresh slot of `arena` (whose width must
    /// equal width()). Uses per-engine scratch; zero steady-state
    /// allocations once the arena has capacity.
    TsHandle timestamp_message(ProcessId sender, ProcessId receiver,
                               TimestampArena& arena);

    /// Replays the whole computation (messages and internal events, in
    /// instant order) and stamps every message into `arena`. Returns the
    /// slot handles by MessageId.
    virtual std::vector<TsHandle> stamp_messages(
        const SyncComputation& computation, TimestampArena& arena);

    /// As stamp_messages, but into a fresh arena and also stamping
    /// internal events for the families that do.
    virtual EngineStamps stamp_computation(const SyncComputation& computation);

protected:
    /// Shared replay loop: walks the computation in instant order, calling
    /// on_internal at each internal event and the three rendezvous hooks
    /// per message. `internal_out` null ⇒ internal stamps are not
    /// collected (the hooks still tick).
    void replay(const SyncComputation& computation, TimestampArena& arena,
                std::vector<TsHandle>& message_out,
                std::vector<TsHandle>* internal_out);

    /// Floor bookkeeping shared by the on_epoch overrides: adds the
    /// current floor onto `high_water` (this epoch's relative maximum, in
    /// the *old* space), migrates the sum into the new space with the
    /// transition's component rule (`by_process` false) or process rule
    /// (true), stores it as the new floor, and advances epoch(). Checks
    /// that the transition continues this engine's epoch.
    void fold_epoch_floor(const EpochTransition& transition,
                          std::span<const std::uint64_t> high_water,
                          bool by_process);

    /// For families without floor semantics: just validates continuity
    /// and advances epoch().
    void advance_epoch(const EpochTransition& transition);

    /// Appends the family-specific mutable state as 64-bit words — the
    /// save_state payload. The base class frames it together with the
    /// epoch and floor, so overrides write raw clock words only.
    virtual void save_payload(std::vector<std::uint64_t>& out) const = 0;

    /// Inverse of save_payload. Throws std::invalid_argument when the
    /// word count does not fit this engine's topology shape.
    virtual void restore_payload(std::span<const std::uint64_t> payload) = 0;

    /// Accumulated absolute floor, indexed like the current width() (may
    /// be empty). Cleared by reset().
    std::vector<std::uint64_t> floor_;

    /// Current epoch id; cleared by reset().
    EpochId epoch_ = 0;

    /// Stamp/tick counters for the drivers; nullptr when detached.
    obs::Counter* metric_stamps_ = nullptr;
    obs::Counter* metric_internal_ = nullptr;
    obs::Gauge* metric_width_ = nullptr;

private:
    // Scratch for the rendezvous drivers (piggyback, ack, sender echo).
    std::vector<std::uint64_t> scratch_piggy_;
    std::vector<std::uint64_t> scratch_ack_;
    std::vector<std::uint64_t> scratch_echo_;
};

/// Engine factory. The decomposition fixes the topology (so N) for every
/// family; only ClockFamily::online uses its groups. The offline engine
/// captures `num_processes` for the Theorem 8 bound report.
std::unique_ptr<ClockEngine> make_clock_engine(
    ClockFamily family,
    std::shared_ptr<const EdgeDecomposition> decomposition);

}  // namespace syncts
