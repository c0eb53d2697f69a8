#include "core/streaming_index.hpp"

#include "common/check.hpp"
#include "common/ts_kernels.hpp"

namespace syncts {

IncrementalPrecedenceIndex::IncrementalPrecedenceIndex(
    std::shared_ptr<const EdgeDecomposition> decomposition,
    StreamingIndexOptions options)
    : engine_(decomposition),
      window_(engine_.width(), options.window == 0 ? 1 : options.window),
      closure_(options.closure) {
    if (options.metrics != nullptr) attach_metrics(*options.metrics);
}

IncrementalPrecedenceIndex::IncrementalPrecedenceIndex(
    const SyncSystem& system, StreamingIndexOptions options)
    : IncrementalPrecedenceIndex(system.decomposition_ptr(),
                                 std::move(options)) {}

void IncrementalPrecedenceIndex::attach_metrics(
    obs::MetricsRegistry& registry) {
    metric_ingested_ = &registry.counter("stream_ingested");
    metric_fastpath_ = &registry.counter("stream_fastpath_queries");
    metric_spill_ = &registry.counter("stream_spill_queries");
    window_.attach_metrics(registry, "window");
}

MessageId IncrementalPrecedenceIndex::ingest_message(ProcessId sender,
                                                     ProcessId receiver) {
    SYNCTS_REQUIRE(ingested_ < kNoMessage, "MessageId space exhausted");
    engine_.stamp_into(sender, receiver, window_.next_slot());
    const std::uint64_t id = window_.commit();
    SYNCTS_ENSURE(id == ingested_, "window ids must track message ids");
    if (closure_ != nullptr) {
        const MessageId closure_id = closure_->ingest(sender, receiver);
        SYNCTS_ENSURE(closure_id == id, "closure ids must track message ids");
    }
    ++ingested_;
    if (metric_ingested_ != nullptr) {
        metric_ingested_->inc();
        window_.publish_residency();
    }
    return static_cast<MessageId>(id);
}

void IncrementalPrecedenceIndex::ingest_internal(ProcessId process) {
    SYNCTS_REQUIRE(process < engine_.num_processes(),
                   "process id out of range");
}

std::uint64_t IncrementalPrecedenceIndex::ingest(StreamingTraceReader& reader,
                                                 std::uint64_t max_events) {
    std::uint64_t consumed = 0;
    while (consumed < max_events) {
        const std::optional<TraceRecord> record = reader.next();
        if (!record.has_value()) break;
        if (record->kind == TraceRecord::Kind::message) {
            ingest_message(record->a, record->b);
        } else {
            ingest_internal(record->a);
        }
        ++consumed;
    }
    return consumed;
}

bool IncrementalPrecedenceIndex::precedes(MessageId a, MessageId b) const {
    SYNCTS_REQUIRE(a < ingested_ && b < ingested_,
                   "message id not ingested yet");
    if (a == b) return false;
    if (window_.is_resident(a) && window_.is_resident(b)) {
        if (metric_fastpath_ != nullptr) metric_fastpath_->inc();
        return ts::less(window_.span(a), window_.span(b));
    }
    if (closure_ != nullptr) {
        if (metric_spill_ != nullptr) metric_spill_->inc();
        return closure_->less(a, b);
    }
    throw RetiredStampError(window_.is_resident(a) ? b : a,
                            window_.frontier(), window_.next());
}

}  // namespace syncts
