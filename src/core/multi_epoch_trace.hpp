#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/pool.hpp"
#include "core/precedence_index.hpp"
#include "core/timestamped_trace.hpp"
#include "obs/metrics.hpp"
#include "poset/poset.hpp"
#include "runtime/reconfig_runtime.hpp"

/// \file multi_epoch_trace.hpp
/// Analysis over a reconfigurable run: one TimestampedTrace per topology
/// epoch, stitched into a single precedence order by the barrier rule.
///
/// Epoch transitions are global barriers (docs/TOPOLOGY.md): every
/// message of epoch e completes before any message of epoch e+1 starts.
/// The cross-epoch order is therefore trivial — earlier epoch precedes —
/// and the within-epoch order is exactly Theorem 4 on that epoch's
/// timestamps (which are relative to the barrier; the epoch's vectors
/// are bit-identical to a fresh run on its topology). A message is
/// addressed globally by `GlobalMessageId` = segment offset + its
/// per-epoch MessageId.
///
/// ground_truth_poset() rebuilds the whole order from first principles:
/// the per-process ▷ chains of each epoch's realized computation, plus
/// barrier generators from the maximal messages of one non-empty epoch
/// to the minimal messages of the next (transitive closure then yields
/// all-of-e ↦ all-of-e'). verify_against_ground_truth() sweeps every
/// ordered pair against it — the multi-epoch analogue of
/// TimestampedTrace::verify_against_ground_truth, sharded the same way
/// across the analysis pool and bit-identical at every thread count.

namespace syncts {

/// Index of a message across the whole run: segment offsets are summed
/// in epoch order, so ids are dense and commit-ordered within an epoch.
using GlobalMessageId = std::size_t;

class MultiEpochTrace {
public:
    /// Adopts one trace per epoch, in epoch order. Segments may be empty
    /// (an epoch whose script had no messages).
    explicit MultiEpochTrace(std::vector<TimestampedTrace> segments);

    /// Builds directly from a reconfigurable run: segment e's trace is
    /// the realized computation plus the committed stamps of epoch e.
    static MultiEpochTrace from_run(const ReconfigurableRunResult& run);

    std::size_t num_epochs() const noexcept { return segments_.size(); }

    /// Total messages across every epoch.
    std::size_t num_messages() const noexcept { return offsets_.back(); }

    const TimestampedTrace& segment(EpochId epoch) const;

    /// Epoch containing global message `m`.
    EpochId epoch_of(GlobalMessageId m) const;

    /// Per-epoch MessageId of global message `m`.
    MessageId local_of(GlobalMessageId m) const;

    GlobalMessageId global_of(EpochId epoch, MessageId local) const;

    /// m1 ↦ m2 across the whole run: epoch order decides cross-epoch
    /// pairs (the barrier rule); Theorem 4 on the segment's timestamps
    /// decides same-epoch pairs.
    bool precedes(GlobalMessageId m1, GlobalMessageId m2) const;

    /// m1 ‖ m2 — only possible within one epoch.
    bool concurrent(GlobalMessageId m1, GlobalMessageId m2) const;

    /// The reference order over global ids, built from the realized
    /// computations alone (no timestamps): per-process ▷ chains within
    /// each epoch plus maximal×minimal barrier generators between
    /// consecutive non-empty epochs, transitively closed through
    /// `options`.
    Poset ground_truth_poset(const AnalysisOptions& options = {}) const;

    /// Number of ordered pairs on which precedes() disagrees with the
    /// ground-truth closure (0 ⟺ the per-epoch timestamps plus the
    /// barrier rule encode the run's order exactly). Sharded across the
    /// analysis pool; bit-identical at every thread count.
    std::size_t verify_against_ground_truth(
        const AnalysisOptions& options = {}) const;

private:
    std::vector<TimestampedTrace> segments_;
    /// offsets_[e] — global id of epoch e's first message; the last
    /// entry is the total message count.
    std::vector<std::size_t> offsets_;
};

/// Repeated-query front end over a MultiEpochTrace: cross-epoch pairs
/// answer in O(1) from the barrier rule; same-epoch pairs go through a
/// per-segment PrecedenceIndex (sharded memo, thread-safe). The
/// multi-epoch analogue of PrecedenceIndex.
class MultiEpochPrecedenceIndex {
public:
    /// Builds one per-segment index (`shards` forwarded; 0 picks 16).
    /// `trace` must outlive the index.
    explicit MultiEpochPrecedenceIndex(const MultiEpochTrace& trace,
                                       std::size_t shards = 0);

    /// m1 ↦ m2, memoized per segment. Thread-safe.
    bool precedes(GlobalMessageId m1, GlobalMessageId m2) const;

    bool concurrent(GlobalMessageId m1, GlobalMessageId m2) const {
        return m1 != m2 && !precedes(m1, m2) && !precedes(m2, m1);
    }

    const MultiEpochTrace& trace() const noexcept { return *trace_; }
    std::size_t num_messages() const noexcept {
        return trace_->num_messages();
    }

    /// Queries answered by the barrier rule alone (no memo involved).
    std::uint64_t cross_epoch_queries() const noexcept {
        return cross_epoch_.load(std::memory_order_relaxed);
    }

    /// Aggregate memo stats over every segment index.
    std::uint64_t memo_hits() const noexcept;
    std::uint64_t memo_misses() const noexcept;

    /// Forwards to every segment index (they share the registry's
    /// `<prefix>_memo_*` counters) and registers
    /// `<prefix>_cross_epoch` for the barrier fast path. The registry
    /// must outlive the index.
    void attach_metrics(obs::MetricsRegistry& registry,
                        std::string_view prefix = "query");

private:
    const MultiEpochTrace* trace_;
    /// One index per segment (heap-held: PrecedenceIndex owns
    /// atomics and is neither copyable nor movable).
    std::vector<std::unique_ptr<PrecedenceIndex>> indexes_;
    mutable std::atomic<std::uint64_t> cross_epoch_{0};
    obs::Counter* metric_cross_epoch_ = nullptr;
};

}  // namespace syncts
