#include "core/timestamped_trace.hpp"

#include <numeric>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/ts_kernels.hpp"
#include "core/causality.hpp"
#include "poset/streaming_closure.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {

TimestampedTrace::TimestampedTrace(SyncComputation computation,
                                   TimestampArena stamps)
    : computation_(std::move(computation)), stamps_(std::move(stamps)) {
    SYNCTS_REQUIRE(stamps_.size() == computation_.num_messages(),
                   "one timestamp per message required");
}

TimestampedTrace::TimestampedTrace(SyncComputation computation,
                                   std::vector<VectorTimestamp> message_stamps)
    : TimestampedTrace(std::move(computation), pack_stamps(message_stamps)) {}

VectorTimestamp TimestampedTrace::timestamp(MessageId m) const {
    return VectorTimestamp(stamps_.span(m));
}

bool TimestampedTrace::precedes(MessageId m1, MessageId m2) const {
    return ts::less(stamps_.span(m1), stamps_.span(m2));
}

bool TimestampedTrace::concurrent(MessageId m1, MessageId m2) const {
    return m1 != m2 && ts::concurrent(stamps_.span(m1), stamps_.span(m2));
}

std::span<const std::uint8_t> TimestampedTrace::relate_row(
    MessageId m) const {
    relate_scratch_.resize(stamps_.size());
    relate_many(stamps_, stamps_.span(m), relate_scratch_);
    return relate_scratch_;
}

std::vector<MessageId> TimestampedTrace::concurrent_with(MessageId m) const {
    const std::span<const std::uint8_t> flags = relate_row(m);
    std::vector<MessageId> result;
    for (MessageId other = 0; other < flags.size(); ++other) {
        if (other != m && flags[other] == 0) result.push_back(other);
    }
    return result;
}

std::vector<MessageId> TimestampedTrace::minimal_messages() const {
    std::vector<MessageId> result;
    for (MessageId m = 0; m < stamps_.size(); ++m) {
        // Minimal ⇔ no other stamp is strictly below m's (flag kRowLeq
        // alone).
        const std::span<const std::uint8_t> flags = relate_row(m);
        bool minimal = true;
        for (MessageId other = 0; other < flags.size() && minimal; ++other) {
            if (other != m && flags[other] == ts::kRowLeq) minimal = false;
        }
        if (minimal) result.push_back(m);
    }
    return result;
}

std::vector<MessageId> TimestampedTrace::maximal_messages() const {
    std::vector<MessageId> result;
    for (MessageId m = 0; m < stamps_.size(); ++m) {
        const std::span<const std::uint8_t> flags = relate_row(m);
        bool maximal = true;
        for (MessageId other = 0; other < flags.size() && maximal; ++other) {
            if (other != m && flags[other] == ts::kProbeLeq) maximal = false;
        }
        if (maximal) result.push_back(m);
    }
    return result;
}

std::size_t TimestampedTrace::concurrent_pair_count() const {
    return count_concurrent_pairs(stamps_);
}

std::size_t TimestampedTrace::verify_against_ground_truth(
    const AnalysisOptions& options) const {
    // Ground-truth closure and the O(M²) pair sweep both run through the
    // analysis options (serial by default). encoding_mismatches compares
    // truth.less(a, b) against ts::less of the arena rows — exactly the
    // precedes() predicate — with sharded row ranges reduced in order.
    const Poset truth = message_poset(computation_, options);
    return encoding_mismatches(truth, stamps_, options);
}

std::size_t TimestampedTrace::verify_against_ground_truth(
    const StreamedVerifyOptions& options) const {
    const std::size_t n = num_messages();
    if (n < options.min_streamed_messages) {
        // Small trace: the batch bit matrix is cheaper than chunking and
        // bit-identical, so it stays the default below the threshold.
        return verify_against_ground_truth(options.analysis);
    }
    SYNCTS_REQUIRE(options.chunk_rows > 0, "chunk_rows must be positive");

    StreamingClosureOptions closure_options;
    closure_options.chunk_rows = options.chunk_rows;
    closure_options.cached_chunks = 1;
    closure_options.spill = options.spill;
    closure_options.metrics = options.metrics;
    StreamingClosure closure(computation_.num_processes(), n, closure_options);
    for (const SyncMessage& m : computation_.messages()) {
        closure.ingest(m.sender, m.receiver);
    }
    closure.finish();

    // Row-major sweep, one chunk window at a time. Window row b settles
    // every ordered pair touching b and a smaller id: (a, b) against the
    // truth bit, and (b, a) — impossible in commit order, so any
    // ts::less hit is a mismatch. Each ordered pair is counted exactly
    // once, so the total equals the batch a-outer/b-inner sweep; the sum
    // is independent of grouping, so it is also thread-count invariant.
    // One pool serves every window: a pool leased per map_rows call would
    // spawn its threads once per chunk_rows.
    const PinnedPool pool(options.analysis);
    std::size_t mismatches = 0;
    std::vector<std::pair<MessageId, std::span<const std::uint64_t>>> window;
    window.reserve(options.chunk_rows);
    const auto flush = [&]() {
        const std::vector<std::size_t> partial = map_rows<std::size_t>(
            window.size(), pool.options(),
            [&](std::size_t begin, std::size_t end) {
                std::size_t count = 0;
                for (std::size_t i = begin; i < end; ++i) {
                    const MessageId b = window[i].first;
                    const std::span<const std::uint64_t> words =
                        window[i].second;
                    const auto stamp_b = stamps_.span(b);
                    for (MessageId a = 0; a < b; ++a) {
                        const bool truth = (words[a / 64] >> (a % 64)) & 1;
                        const auto stamp_a = stamps_.span(a);
                        if (truth != ts::less(stamp_a, stamp_b)) ++count;
                        if (ts::less(stamp_b, stamp_a)) ++count;
                    }
                }
                return count;
            });
        mismatches +=
            std::accumulate(partial.begin(), partial.end(), std::size_t{0});
        window.clear();
    };
    // The window flushes exactly at chunk boundaries (same chunk_rows),
    // so every collected span points into the currently loaded chunk;
    // the tail flush runs before any further closure access, while the
    // last chunk is still cached.
    closure.for_each_row(
        0, static_cast<MessageId>(n),
        [&](MessageId m, std::span<const std::uint64_t> words) {
            window.emplace_back(m, words);
            if (window.size() == options.chunk_rows) flush();
        });
    flush();
    return mismatches;
}

std::string TimestampedTrace::to_string() const {
    std::ostringstream os;
    for (MessageId m = 0; m < stamps_.size(); ++m) {
        const SyncMessage& msg = computation_.message(m);
        os << 'm' << (m + 1) << ": P" << (msg.sender + 1) << " -> P"
           << (msg.receiver + 1) << "  " << timestamp(m).to_string() << '\n';
    }
    return os.str();
}

}  // namespace syncts
