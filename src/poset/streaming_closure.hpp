#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/spill_store.hpp"
#include "obs/metrics.hpp"

/// \file streaming_closure.hpp
/// Out-of-core transitive closure of a synchronous computation's message
/// poset, computed in one streaming pass (docs/STREAMING.md).
///
/// The batch path (`message_poset` + `Poset::close`) holds all M bitset
/// rows resident — O(M²/64) words, perfect at 20k messages and
/// impossible at 10M. The streaming path exploits the structure of the
/// generating relation: every edge links consecutive participations of
/// one process, so each edge (a, b) has a < b in MessageId (commit)
/// order. That makes the closure a left-to-right recurrence over an
/// **antichain frontier** of at most N rows:
///
///   reach[p]  = inclusive down-set of process p's latest message
///   row(m)    = reach[sender] | reach[receiver]          (= below(m))
///   reach[sender] = reach[receiver] = row(m) | {m}
///
/// Only the N frontier rows stay resident. Completed rows accumulate in
/// a chunk buffer of `chunk_rows` rows; a full chunk is *retired* — its
/// level is wholly below the frontier, so no future row can change it —
/// and spilled to a checksummed file via `SpillStore` (or retained in
/// memory when no store is attached). Queries against retired rows
/// rehydrate the owning chunk through a small LRU cache.
///
/// Rows are stored ragged: row m only carries bits < m, so it occupies
/// ceil(m/64) words. The bit layout is identical to `Poset::below_`
/// truncated at the diagonal, which is what makes the bit-identity
/// contract testable word-for-word against the batch closure.

namespace syncts {

struct StreamingClosureOptions {
    /// Rows per retired chunk. Smaller chunks bound residency tighter;
    /// larger chunks amortize spill I/O. 4096 rows ≈ 2 MB at M = 4M.
    std::size_t chunk_rows = 4096;

    /// Retired chunks kept rehydrated for queries (LRU).
    std::size_t cached_chunks = 2;

    /// Destination for retired chunks. nullptr = retain chunks in
    /// memory (still chunked, still bit-identical — used by the small
    /// default path and by tests that want no filesystem).
    SpillStore* spill = nullptr;

    obs::MetricsRegistry* metrics = nullptr;
};

class StreamingClosure {
public:
    /// `capacity_hint` pre-sizes the frontier rows (they grow
    /// geometrically past it, so 0 is always safe).
    StreamingClosure(std::size_t num_processes, std::size_t capacity_hint,
                     StreamingClosureOptions options = {});

    /// Ingests the next message in commit order between `sender` and
    /// `receiver` and returns its MessageId (sequential from 0).
    MessageId ingest(ProcessId sender, ProcessId receiver);

    /// Retires the partial tail chunk. Ingestion may not continue after
    /// finish(); queries over every row become valid.
    void finish();

    std::size_t num_processes() const noexcept { return reach_.size(); }
    /// Messages ingested so far.
    std::size_t size() const noexcept { return ingested_; }
    bool finished() const noexcept { return finished_; }

    /// Sum of |below(m)| over all ingested rows — equals
    /// Poset::relation_count() of the batch closure.
    std::uint64_t relation_count() const noexcept { return relation_count_; }

    /// a < b in the message poset. `b` must be an ingested row; rows in
    /// retired chunks are rehydrated through the cache.
    bool less(MessageId a, MessageId b) const;

    /// Visits rows [begin, end) in id order with bounded residency: at
    /// most one retired chunk plus the frontier is resident at a time.
    /// `fn(m, words)` receives the ragged row. Requires finish() for
    /// rows in the tail chunk.
    void for_each_row(MessageId begin, MessageId end,
                      const std::function<void(MessageId,
                                               std::span<const std::uint64_t>)>&
                          fn) const;

    /// Words a ragged row for message m occupies: ceil(m / 64).
    static std::size_t row_words(MessageId m) noexcept {
        return (static_cast<std::size_t>(m) + 63) / 64;
    }

    /// Registers stream_* metrics under `prefix`:
    ///   <prefix>_rows           rows ingested
    ///   <prefix>_chunks_retired chunks spilled or retained
    ///   <prefix>_chunk_loads    retired-chunk rehydrations (cache misses)
    ///   <prefix>_resident_rows  gauge: frontier + buffered rows
    void attach_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "stream");

private:
    struct CachedChunk {
        std::uint64_t index;
        std::vector<std::uint8_t> payload;
    };

    std::uint64_t chunk_of(MessageId m) const noexcept {
        return m / options_.chunk_rows;
    }
    void retire_chunk();
    /// Payload bytes of retired chunk `index` (from retention, cache, or
    /// spill). Returns a span valid until the next cache mutation.
    std::span<const std::uint8_t> chunk_payload(std::uint64_t index) const;
    std::span<const std::uint64_t> row_in_payload(
        std::span<const std::uint8_t> payload, MessageId m) const;
    void publish_residency() const;

    StreamingClosureOptions options_;
    /// reach_[p] = below(last message of p) | {that message}; empty until
    /// p participates. Ragged growth: only words covering ingested ids.
    std::vector<std::vector<std::uint64_t>> reach_;

    /// Current (unretired) chunk: ragged rows back to back, plus the
    /// word offset of each row within the buffer.
    std::vector<std::uint64_t> chunk_words_;
    std::vector<std::size_t> chunk_row_offsets_;
    std::uint64_t first_buffered_chunk_ = 0;

    /// Retired chunks: encoded payloads (in-memory retention) or spill
    /// file ids. Payload layout: u64le row_begin, u64le row_count, then
    /// each ragged row's words little-endian, back to back.
    std::vector<std::vector<std::uint8_t>> retained_;
    mutable std::deque<CachedChunk> cache_;
    mutable std::vector<std::uint8_t> load_buffer_;

    std::size_t ingested_ = 0;
    std::uint64_t relation_count_ = 0;
    bool finished_ = false;

    obs::Counter* metric_rows_ = nullptr;
    obs::Counter* metric_chunks_ = nullptr;
    mutable obs::Counter* metric_loads_ = nullptr;
    mutable obs::Gauge* metric_resident_ = nullptr;
};

/// True when a computation of `num_messages` should stay on the batch
/// in-memory closure (the default below this threshold): the full bit
/// matrix at this size costs under ~32 MB, cheaper than any spill
/// traffic.
inline constexpr std::size_t kStreamingClosureThreshold = 16384;

}  // namespace syncts
