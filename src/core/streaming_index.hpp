#pragma once

#include <cstdint>
#include <optional>

#include "clocks/online_clock.hpp"
#include "common/timestamp_arena.hpp"
#include "core/sync_system.hpp"
#include "obs/metrics.hpp"
#include "poset/streaming_closure.hpp"
#include "trace/trace_io.hpp"

/// \file streaming_index.hpp
/// Incremental precedence queries over a trace still being ingested
/// (docs/STREAMING.md).
///
/// `PrecedenceIndex` (precedence_index.hpp) answers a ≺ b against a
/// fully materialized `TimestampedTrace` — every stamp resident forever.
/// `IncrementalPrecedenceIndex` is its streaming refactor: events arrive
/// one at a time (from a `StreamingTraceReader`, a live protocol, or a
/// generator), each message is stamped on arrival by the online Fig. 5
/// engine (`OnlineTimestamper::stamp_into`, one fused pass over both
/// endpoints' vectors) straight into the next slot of a
/// `WindowedTimestampArena`, and queries are answered mid-ingestion:
///
///  - both stamps resident in the window → the O(width) `ts::less`
///    vector fast path, bit-identical to `TimestampedTrace::precedes`
///    (same stamps, same replay order);
///  - either stamp retired → fall back to the spilled closure chunks of
///    an attached `StreamingClosure`, which never forgets a row;
///  - no closure attached → a typed `RetiredStampError`, never a wrong
///    answer.
///
/// The window bounds stamp residency to `window` rows of width() words —
/// the resident-rows gauge tracks it — so a 10M-message ingestion runs
/// in flat memory.

namespace syncts {

struct StreamingIndexOptions {
    /// Resident stamps (ring slots) — the memory/retirement knob.
    std::size_t window = 1 << 16;

    /// Optional out-of-core closure fed one ingest per message; answers
    /// queries the window no longer can. Owned by the caller.
    StreamingClosure* closure = nullptr;

    obs::MetricsRegistry* metrics = nullptr;
};

class IncrementalPrecedenceIndex {
public:
    explicit IncrementalPrecedenceIndex(
        std::shared_ptr<const EdgeDecomposition> decomposition,
        StreamingIndexOptions options = {});

    explicit IncrementalPrecedenceIndex(const SyncSystem& system,
                                        StreamingIndexOptions options = {});

    /// Stamps the next message (commit order) straight into the
    /// window's next slot and returns its id. A rejected message (ids out
    /// of range, a self-message, no such channel) throws
    /// std::invalid_argument and leaves the index unchanged.
    MessageId ingest_message(ProcessId sender, ProcessId receiver);

    /// Accepts an internal event. Fig. 5 stamps messages only, so it
    /// changes nothing; a process id out of range throws
    /// std::invalid_argument, as ingest_message does.
    void ingest_internal(ProcessId process);

    /// Pulls `reader` to exhaustion (or `max_events`), ingesting every
    /// record. Returns the number of events consumed.
    std::uint64_t ingest(StreamingTraceReader& reader,
                         std::uint64_t max_events = UINT64_MAX);

    /// Messages ingested so far.
    std::size_t size() const noexcept { return ingested_; }
    std::size_t width() const noexcept { return window_.width(); }

    /// Oldest message id still answerable by the vector fast path.
    std::uint64_t resident_frontier() const noexcept {
        return window_.frontier();
    }
    bool is_resident(MessageId m) const noexcept {
        return window_.is_resident(m);
    }

    /// a ≺ b in the message poset, answerable mid-ingestion. Fast path
    /// when both stamps are resident; closure fallback when retired;
    /// RetiredStampError when neither can answer.
    bool precedes(MessageId a, MessageId b) const;

    /// Stamp of a resident message (RetiredStampError otherwise).
    std::span<const std::uint64_t> stamp_span(MessageId m) const {
        return window_.span(m);
    }

    /// Registers metric families (docs/OBSERVABILITY.md):
    ///   stream_ingested        messages stamped
    ///   stream_fastpath_queries / stream_spill_queries
    ///   window_resident_rows   gauge (via the windowed arena)
    void attach_metrics(obs::MetricsRegistry& registry);

private:
    OnlineTimestamper engine_;
    WindowedTimestampArena window_;
    StreamingClosure* closure_ = nullptr;
    std::size_t ingested_ = 0;

    obs::Counter* metric_ingested_ = nullptr;
    mutable obs::Counter* metric_fastpath_ = nullptr;
    mutable obs::Counter* metric_spill_ = nullptr;
};

}  // namespace syncts
