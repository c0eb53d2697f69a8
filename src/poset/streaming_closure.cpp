#include "poset/streaming_closure.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "common/dyn_bitset.hpp"

namespace syncts {

namespace {

constexpr std::size_t kChunkPayloadHeaderBytes = 16;  // row_begin, row_count

/// Chunk payloads are the closure's own bytes, so a short one is a bug.
[[noreturn]] void throw_payload_bug(codec::Fault, const char* what) {
    throw std::logic_error(std::string("spill payload: ") + what);
}

/// W(m) = Σ_{r<m} row_words(r), the words of all ragged rows before m,
/// in closed form: rows 64(j−1)+1 .. 64j hold j words each, so with
/// q = ⌊(m+63)/64⌋ the q−1 full blocks give 32·q·(q−1) words and the
/// (m+63) mod 64 rows of block q give q words each (at m = 0, q − 1
/// wraps but is multiplied by q = 0). Row m of a chunk starting at
/// row_begin sits W(m) − W(row_begin) words into it.
std::size_t words_before(std::uint64_t m) noexcept {
    const std::uint64_t q = (m + 63) / 64;
    return static_cast<std::size_t>(32 * q * (q - 1) + q * ((m + 63) % 64));
}

}  // namespace

StreamingClosure::StreamingClosure(std::size_t num_processes,
                                   std::size_t capacity_hint,
                                   StreamingClosureOptions options)
    : options_(options), reach_(num_processes) {
    SYNCTS_REQUIRE(num_processes > 0, "need at least one process");
    SYNCTS_REQUIRE(options_.chunk_rows > 0, "chunk_rows must be positive");
    if (options_.cached_chunks == 0) options_.cached_chunks = 1;
    const std::size_t hint_words = (capacity_hint + 63) / 64 + 1;
    for (auto& row : reach_) row.reserve(hint_words);
    chunk_words_.reserve(options_.chunk_rows);
    chunk_row_offsets_.reserve(options_.chunk_rows);
    if (options_.metrics != nullptr) attach_metrics(*options_.metrics);
}

void StreamingClosure::attach_metrics(obs::MetricsRegistry& registry,
                                      const std::string& prefix) {
    metric_rows_ = &registry.counter(prefix + "_rows");
    metric_chunks_ = &registry.counter(prefix + "_chunks_retired");
    metric_loads_ = &registry.counter(prefix + "_chunk_loads");
    metric_resident_ = &registry.gauge(prefix + "_resident_rows");
    publish_residency();
}

void StreamingClosure::publish_residency() const {
    if (metric_resident_ == nullptr) return;
    metric_resident_->set(static_cast<std::int64_t>(chunk_row_offsets_.size() +
                                                    reach_.size()));
}

MessageId StreamingClosure::ingest(ProcessId sender, ProcessId receiver) {
    SYNCTS_REQUIRE(!finished_, "closure already finished");
    SYNCTS_REQUIRE(sender < reach_.size() && receiver < reach_.size(),
                   "endpoint process out of range");
    SYNCTS_REQUIRE(sender != receiver, "a message needs distinct endpoints");
    SYNCTS_REQUIRE(ingested_ < kNoMessage, "MessageId space exhausted");
    const MessageId id = static_cast<MessageId>(ingested_);
    const std::size_t words = row_words(id);

    // Reach rows hold only bits < id, so zero-extending both to cover
    // bit id changes no set; an endpoint that never took part reads as
    // an empty row.
    reach_[sender].resize(id / 64 + 1, 0);
    reach_[receiver].resize(id / 64 + 1, 0);
    std::uint64_t* a = reach_[sender].data();
    std::uint64_t* b = reach_[receiver].data();

    // One pass: row(id) = reach[sender] | reach[receiver], written into
    // the chunk buffer and back into both reach rows, counted as it goes.
    const std::size_t offset = chunk_words_.size();
    chunk_row_offsets_.push_back(offset);
    chunk_words_.resize(offset + words, 0);
    std::uint64_t* row = chunk_words_.data() + offset;
    std::uint64_t count = 0;
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t x = a[w] | b[w];
        row[w] = a[w] = b[w] = x;
        count += popcount64(x);
    }
    relation_count_ += count;

    // Advance the frontier: both endpoints' reach becomes row | {id}.
    // Word id/64 past the row is zero in both when id is a multiple of 64.
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    a[id / 64] |= bit;
    b[id / 64] |= bit;

    ++ingested_;
    if (metric_rows_ != nullptr) metric_rows_->inc();
    if (chunk_row_offsets_.size() == options_.chunk_rows) retire_chunk();
    publish_residency();
    return id;
}

void StreamingClosure::retire_chunk() {
    const std::uint64_t index = first_buffered_chunk_;
    const std::uint64_t row_begin = index * options_.chunk_rows;
    const std::uint64_t row_count = chunk_row_offsets_.size();

    std::vector<std::uint8_t> payload;
    codec::Writer writer(payload,
                         kChunkPayloadHeaderBytes + chunk_words_.size() * 8);
    writer.le64(row_begin);
    writer.le64(row_count);
    for (const std::uint64_t word : chunk_words_) writer.le64(word);
    writer.finish();

    if (options_.spill != nullptr) {
        options_.spill->put(index, payload);
    } else {
        SYNCTS_ENSURE(retained_.size() == index,
                      "retained chunks must stay contiguous");
        retained_.push_back(std::move(payload));
    }
    chunk_words_.clear();
    chunk_row_offsets_.clear();
    ++first_buffered_chunk_;
    if (metric_chunks_ != nullptr) metric_chunks_->inc();
}

void StreamingClosure::finish() {
    if (finished_) return;
    if (!chunk_row_offsets_.empty()) retire_chunk();
    finished_ = true;
    publish_residency();
}

std::span<const std::uint8_t> StreamingClosure::chunk_payload(
    std::uint64_t index) const {
    if (options_.spill == nullptr) {
        SYNCTS_ENSURE(index < retained_.size(), "retired chunk out of range");
        return retained_[index];
    }
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->index == index) {
            if (it != cache_.begin()) std::rotate(cache_.begin(), it, it + 1);
            return cache_.front().payload;
        }
    }
    cache_.emplace_front(CachedChunk{index, {}});
    options_.spill->get(index, cache_.front().payload);
    while (cache_.size() > options_.cached_chunks) cache_.pop_back();
    if (metric_loads_ != nullptr) metric_loads_->inc();
    return cache_.front().payload;
}

std::span<const std::uint64_t> StreamingClosure::row_in_payload(
    std::span<const std::uint8_t> payload, MessageId m) const {
    codec::Reader in(payload, throw_payload_bug);
    const std::uint64_t row_begin = in.le64();
    const std::uint64_t row_count = in.le64();
    SYNCTS_ENSURE(m >= row_begin && m < row_begin + row_count,
                  "row not in this chunk");
    const std::size_t word_offset = words_before(m) - words_before(row_begin);
    const std::size_t words = row_words(m);
    SYNCTS_ENSURE(kChunkPayloadHeaderBytes + (word_offset + words) * 8 <=
                      payload.size(),
                  "spill payload shorter than its rows");
    // Rows are stored little-endian word by word; decode into a scratch
    // row only on big-endian hosts — on little-endian the bytes alias
    // the word layout directly.
    const auto* base = payload.data() + kChunkPayloadHeaderBytes +
                       word_offset * 8;
    static_assert(std::endian::native == std::endian::little,
                  "big-endian hosts need a decode copy here");
    return {reinterpret_cast<const std::uint64_t*>(base), words};
}

bool StreamingClosure::less(MessageId a, MessageId b) const {
    SYNCTS_REQUIRE(a < ingested_ && b < ingested_,
                   "message id out of range");
    if (a >= b) return false;  // all poset edges point forward in commit order
    const std::uint64_t first_buffered_row =
        first_buffered_chunk_ * options_.chunk_rows;
    std::span<const std::uint64_t> row;
    if (b >= first_buffered_row) {
        const std::size_t offset =
            chunk_row_offsets_[b - first_buffered_row];
        row = {chunk_words_.data() + offset, row_words(b)};
    } else {
        row = row_in_payload(chunk_payload(chunk_of(b)), b);
    }
    return (row[a / 64] >> (a % 64)) & 1;
}

void StreamingClosure::for_each_row(
    MessageId begin, MessageId end,
    const std::function<void(MessageId, std::span<const std::uint64_t>)>& fn)
    const {
    SYNCTS_REQUIRE(end <= ingested_, "row range out of range");
    const std::uint64_t first_buffered_row =
        first_buffered_chunk_ * options_.chunk_rows;
    std::uint64_t loaded_chunk = UINT64_MAX;
    std::span<const std::uint8_t> payload;
    std::size_t word_offset = 0;
    for (MessageId m = begin; m < end; ++m) {
        if (m >= first_buffered_row) {
            const std::size_t offset =
                chunk_row_offsets_[m - first_buffered_row];
            fn(m, {chunk_words_.data() + offset, row_words(m)});
            continue;
        }
        const std::uint64_t chunk = chunk_of(m);
        if (chunk != loaded_chunk) {
            payload = chunk_payload(chunk);
            loaded_chunk = chunk;
            word_offset =
                words_before(m) - words_before(chunk * options_.chunk_rows);
        }
        const std::size_t words = row_words(m);
        SYNCTS_ENSURE(kChunkPayloadHeaderBytes + (word_offset + words) * 8 <=
                          payload.size(),
                      "spill payload shorter than its rows");
        const auto* base = payload.data() + kChunkPayloadHeaderBytes +
                           word_offset * 8;
        fn(m, {reinterpret_cast<const std::uint64_t*>(base), words});
        word_offset += words;
    }
}

}  // namespace syncts
