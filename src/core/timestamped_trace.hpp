#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clocks/vector_timestamp.hpp"
#include "common/pool.hpp"
#include "common/timestamp_arena.hpp"
#include "trace/computation.hpp"

/// \file timestamped_trace.hpp
/// A computation plus per-message timestamps, with the precedence queries
/// the paper motivates (Section 1: monitoring, debugging visualization,
/// orphan detection). All queries are O(d) vector comparisons — no graph
/// search at query time, which is the whole point of timestamping.
///
/// Stamps live in one TimestampArena (slot m = message m's timestamp), so
/// the whole-trace scans (concurrent_with, minimal/maximal fronts) stream
/// the flat slab through the batch kernels instead of chasing one heap
/// vector per message; concurrent_pair_count is the causality.hpp sweep.

namespace syncts {

class SpillStore;

/// Tuning for the spill-aware streamed verification path
/// (docs/STREAMING.md). Defaults keep the batch sweep for small traces —
/// below `min_streamed_messages` the full bit matrix is cheaper than any
/// chunking — and bound closure-row residency to one `chunk_rows` window
/// above it.
struct StreamedVerifyOptions {
    /// Closure rows per retired chunk (and per verification window).
    std::size_t chunk_rows = 4096;

    /// Destination for retired chunks; nullptr retains them in memory
    /// (still chunked — useful when no spill directory is available).
    SpillStore* spill = nullptr;

    /// Below this message count, delegate to the batch in-memory sweep
    /// (bit-identical either way; the batch path is faster).
    std::size_t min_streamed_messages = 16384;

    /// Sharding for the per-window pair sweep; the count is bit-identical
    /// to the serial sweep at every thread count.
    AnalysisOptions analysis = {};

    obs::MetricsRegistry* metrics = nullptr;
};

class TimestampedTrace {
public:
    /// Adopts an arena whose slot m holds message m's timestamp.
    TimestampedTrace(SyncComputation computation, TimestampArena stamps);

    /// Compat shim: packs materialized stamps (one per message, uniform
    /// width) into a fresh arena (pack_stamps).
    TimestampedTrace(SyncComputation computation,
                     std::vector<VectorTimestamp> message_stamps);

    const SyncComputation& computation() const noexcept {
        return computation_;
    }
    std::size_t num_messages() const noexcept {
        return computation_.num_messages();
    }

    /// Components per timestamp.
    std::size_t width() const noexcept { return stamps_.width(); }

    /// The arena holding every stamp (slot m = message m).
    const TimestampArena& stamps() const noexcept { return stamps_; }

    /// Message m's components, zero-copy.
    std::span<const std::uint64_t> stamp_span(MessageId m) const {
        return stamps_.span(m);
    }

    /// Message m's timestamp as an owning value (compat shim).
    VectorTimestamp timestamp(MessageId m) const;

    /// m1 ↦ m2, answered from the timestamps.
    bool precedes(MessageId m1, MessageId m2) const;

    /// m1 ‖ m2 (distinct, neither precedes the other).
    bool concurrent(MessageId m1, MessageId m2) const;

    /// All messages concurrent with m. One batch relate_many pass.
    std::vector<MessageId> concurrent_with(MessageId m) const;

    /// Messages m with no m' ↦ m (the computation's first wave).
    std::vector<MessageId> minimal_messages() const;

    /// Messages m with no m ↦ m' (the current frontier).
    std::vector<MessageId> maximal_messages() const;

    /// Count of unordered concurrent pairs — a measure of how much
    /// parallelism the timestamps must preserve (count_concurrent_pairs).
    std::size_t concurrent_pair_count() const;

    /// Checks Theorem 4 against ground truth (the transitively closed ▷
    /// relation): returns the number of disagreeing pairs, 0 when the
    /// timestamps encode the poset exactly. O(M²) — verification tool.
    /// The ground-truth closure and the pair sweep both shard across the
    /// analysis pool when `options` asks for threads; the count is
    /// bit-identical to the serial sweep at every thread count.
    std::size_t verify_against_ground_truth(
        const AnalysisOptions& options = {}) const;

    /// Spill-aware streamed verification: the ground truth is built by
    /// the out-of-core `StreamingClosure` (chunks retired to
    /// `options.spill` when set) and the pair sweep walks it one
    /// chunk-window of rows at a time, so closure residency stays
    /// O(chunk_rows · M/64) words instead of O(M²/64). The returned
    /// count is bit-identical to the batch overload at every thread
    /// count and chunk size.
    std::size_t verify_against_ground_truth(
        const StreamedVerifyOptions& options) const;

    /// "m3 = (1,1,1)"-style listing, 1-based like the paper's figures.
    std::string to_string() const;

private:
    /// relate_many of message m's stamp vs every slot, into scratch;
    /// returns the flag view.
    std::span<const std::uint8_t> relate_row(MessageId m) const;

    SyncComputation computation_;
    TimestampArena stamps_;
    /// Reusable flag buffer for the batch scans (one byte per message).
    mutable std::vector<std::uint8_t> relate_scratch_;
};

}  // namespace syncts
