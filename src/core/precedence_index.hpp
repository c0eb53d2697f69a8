#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "core/timestamped_trace.hpp"
#include "obs/metrics.hpp"

/// \file precedence_index.hpp
/// Repeated-query front end over a TimestampedTrace: answers m1 ↦ m2 in
/// O(width) vector-compare on first sight and O(1) from a memo on every
/// repeat. Monitoring workloads (orphan tracking, predicate watchers,
/// debugger round-trips) hammer the same hot pairs — the memo turns the
/// per-query cost from O(width) into a hash probe.
///
/// The memo is sharded: pair keys hash onto independently locked shards,
/// so pool workers (sharded verification, syncts_stats --queries) can
/// query concurrently with at most 1/shards expected contention. Answers
/// are pure functions of the trace, so cache races are benign — two
/// threads may both miss and both insert the same value.

namespace syncts {

class PrecedenceIndex {
public:
    /// Builds the index over `trace`, which must outlive it. `shards`
    /// must be a power of two; 0 picks 16.
    explicit PrecedenceIndex(const TimestampedTrace& trace,
                             std::size_t shards = 0);

    /// m1 ↦ m2, memoized. Thread-safe.
    bool precedes(MessageId m1, MessageId m2) const;

    /// m1 ‖ m2 (distinct, neither precedes the other), via two memoized
    /// lookups.
    bool concurrent(MessageId m1, MessageId m2) const {
        return m1 != m2 && !precedes(m1, m2) && !precedes(m2, m1);
    }

    const TimestampedTrace& trace() const noexcept { return *trace_; }
    std::size_t num_messages() const noexcept {
        return trace_->num_messages();
    }
    std::size_t num_shards() const noexcept { return shards_count_; }

    /// Memoized pairs currently cached (sums shard sizes; takes the shard
    /// locks, so don't call it on a hot path).
    std::size_t memo_entries() const;

    std::uint64_t memo_hits() const noexcept {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t memo_misses() const noexcept {
        return misses_.load(std::memory_order_relaxed);
    }

    /// Registers `<prefix>_memo_hits` / `<prefix>_memo_misses` and starts
    /// mirroring every lookup into them. The registry must outlive the
    /// index.
    void attach_metrics(obs::MetricsRegistry& registry,
                        std::string_view prefix = "query");

private:
    struct Shard {
        mutable std::mutex mu;
        std::unordered_map<std::uint64_t, bool> memo;
    };

    const TimestampedTrace* trace_;
    std::size_t shards_count_;
    std::unique_ptr<Shard[]> shards_;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    obs::Counter* metric_hits_ = nullptr;
    obs::Counter* metric_misses_ = nullptr;
};

}  // namespace syncts
