#include "core/multi_epoch_trace.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {

MultiEpochTrace::MultiEpochTrace(std::vector<TimestampedTrace> segments)
    : segments_(std::move(segments)) {
    SYNCTS_REQUIRE(!segments_.empty(), "need at least one epoch segment");
    offsets_.reserve(segments_.size() + 1);
    offsets_.push_back(0);
    for (const TimestampedTrace& segment : segments_) {
        offsets_.push_back(offsets_.back() + segment.num_messages());
    }
}

MultiEpochTrace MultiEpochTrace::from_run(const ReconfigurableRunResult& run) {
    std::vector<TimestampedTrace> segments;
    segments.reserve(run.segments.size());
    for (const EpochSegmentResult& segment : run.segments) {
        segments.emplace_back(segment.computation, segment.message_stamps);
    }
    return MultiEpochTrace(std::move(segments));
}

const TimestampedTrace& MultiEpochTrace::segment(EpochId epoch) const {
    SYNCTS_REQUIRE(epoch < segments_.size(), "epoch out of range");
    return segments_[epoch];
}

EpochId MultiEpochTrace::epoch_of(GlobalMessageId m) const {
    SYNCTS_REQUIRE(m < num_messages(), "message id out of range");
    // First offset strictly above m belongs to the next epoch.
    const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), m);
    return static_cast<EpochId>(it - offsets_.begin() - 1);
}

MessageId MultiEpochTrace::local_of(GlobalMessageId m) const {
    return static_cast<MessageId>(m - offsets_[epoch_of(m)]);
}

GlobalMessageId MultiEpochTrace::global_of(EpochId epoch,
                                           MessageId local) const {
    SYNCTS_REQUIRE(epoch < segments_.size(), "epoch out of range");
    SYNCTS_REQUIRE(local < segments_[epoch].num_messages(),
                   "message id out of range for its epoch");
    return offsets_[epoch] + local;
}

bool MultiEpochTrace::precedes(GlobalMessageId m1, GlobalMessageId m2) const {
    const EpochId e1 = epoch_of(m1);
    const EpochId e2 = epoch_of(m2);
    if (e1 != e2) return e1 < e2;  // barrier rule
    return segments_[e1].precedes(static_cast<MessageId>(m1 - offsets_[e1]),
                                  static_cast<MessageId>(m2 - offsets_[e1]));
}

bool MultiEpochTrace::concurrent(GlobalMessageId m1,
                                 GlobalMessageId m2) const {
    const EpochId e1 = epoch_of(m1);
    if (e1 != epoch_of(m2)) return false;  // cross-epoch is always ordered
    return segments_[e1].concurrent(static_cast<MessageId>(m1 - offsets_[e1]),
                                    static_cast<MessageId>(m2 - offsets_[e1]));
}

Poset MultiEpochTrace::ground_truth_poset(
    const AnalysisOptions& options) const {
    Poset truth(num_messages());
    bool have_previous = false;
    std::vector<std::size_t> previous_maximal;  // global ids
    for (EpochId e = 0; e < segments_.size(); ++e) {
        const SyncComputation& computation = segments_[e].computation();
        const std::size_t offset = offsets_[e];
        // Per-process ▷ chains — the same generators message_poset uses,
        // shifted into the global id space.
        for (ProcessId p = 0; p < computation.num_processes(); ++p) {
            const auto messages = computation.process_messages(p);
            for (std::size_t i = 0; i + 1 < messages.size(); ++i) {
                truth.add_relation(offset + messages[i],
                                   offset + messages[i + 1]);
            }
        }
        if (computation.num_messages() == 0) continue;
        // Barrier generators: maximal(previous non-empty epoch) ×
        // minimal(this epoch). Closure extends them to all-times-all —
        // every message sits below some maximal and above some minimal.
        const Poset local = message_poset(computation, options);
        if (have_previous) {
            for (const std::size_t from : previous_maximal) {
                for (const std::size_t to : local.minimal_elements()) {
                    truth.add_relation(from, offset + to);
                }
            }
        }
        previous_maximal.clear();
        for (const std::size_t m : local.maximal_elements()) {
            previous_maximal.push_back(offset + m);
        }
        have_previous = true;
    }
    truth.close(options);
    return truth;
}

std::size_t MultiEpochTrace::verify_against_ground_truth(
    const AnalysisOptions& options) const {
    const Poset truth = ground_truth_poset(options);
    const std::size_t n = num_messages();
    // Pure per-row sweep, reduced in chunk order — bit-identical to the
    // serial scan at any thread count (docs/PARALLELISM.md).
    const std::vector<std::size_t> partial = map_rows<std::size_t>(
        n, options, [&](std::size_t begin, std::size_t end) {
            std::size_t mismatches = 0;
            for (std::size_t a = begin; a < end; ++a) {
                for (std::size_t b = 0; b < n; ++b) {
                    if (a == b) continue;
                    if (truth.less(a, b) != precedes(a, b)) ++mismatches;
                }
            }
            return mismatches;
        });
    return std::accumulate(partial.begin(), partial.end(), std::size_t{0});
}

MultiEpochPrecedenceIndex::MultiEpochPrecedenceIndex(
    const MultiEpochTrace& trace, std::size_t shards)
    : trace_(&trace) {
    indexes_.reserve(trace.num_epochs());
    for (EpochId e = 0; e < trace.num_epochs(); ++e) {
        indexes_.push_back(
            std::make_unique<PrecedenceIndex>(trace.segment(e), shards));
    }
}

bool MultiEpochPrecedenceIndex::precedes(GlobalMessageId m1,
                                         GlobalMessageId m2) const {
    const EpochId e1 = trace_->epoch_of(m1);
    const EpochId e2 = trace_->epoch_of(m2);
    if (e1 != e2) {
        cross_epoch_.fetch_add(1, std::memory_order_relaxed);
        if (metric_cross_epoch_ != nullptr) metric_cross_epoch_->inc();
        return e1 < e2;
    }
    return indexes_[e1]->precedes(trace_->local_of(m1),
                                 trace_->local_of(m2));
}

std::uint64_t MultiEpochPrecedenceIndex::memo_hits() const noexcept {
    std::uint64_t total = 0;
    for (const auto& index : indexes_) total += index->memo_hits();
    return total;
}

std::uint64_t MultiEpochPrecedenceIndex::memo_misses() const noexcept {
    std::uint64_t total = 0;
    for (const auto& index : indexes_) total += index->memo_misses();
    return total;
}

void MultiEpochPrecedenceIndex::attach_metrics(obs::MetricsRegistry& registry,
                                               std::string_view prefix) {
    for (const auto& index : indexes_) {
        index->attach_metrics(registry, prefix);
    }
    metric_cross_epoch_ =
        &registry.counter(std::string(prefix) + "_cross_epoch");
}

}  // namespace syncts
