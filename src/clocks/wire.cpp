#include "clocks/wire.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace syncts {

void encode_varint(std::uint64_t value, std::vector<std::uint8_t>& out) {
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t decode_varint(std::span<const std::uint8_t> bytes,
                            std::size_t& offset) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (offset >= bytes.size()) {
            throw WireError(WireError::Kind::truncated, "truncated varint");
        }
        const std::uint8_t byte = bytes[offset++];
        if (shift >= 64) {
            throw WireError(WireError::Kind::overlong_varint,
                            "varint longer than 64 bits");
        }
        value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
        if ((byte & 0x80u) == 0) return value;
    }
    throw WireError(WireError::Kind::overlong_varint,
                    "unreachable varint state");
}

void encode_timestamp_into(std::span<const std::uint64_t> components,
                           std::vector<std::uint8_t>& out) {
    out.clear();
    encode_varint(components.size(), out);
    for (const std::uint64_t component : components) {
        encode_varint(component, out);
    }
}

std::vector<std::uint8_t> encode_timestamp(const VectorTimestamp& stamp) {
    std::vector<std::uint8_t> out;
    out.reserve(1 + stamp.width());
    encode_timestamp_into(stamp.components(), out);
    return out;
}

namespace {

/// Decodes one varint at bytes[offset], advancing offset: a single byte
/// below 0x80 inline, anything longer through decode_varint.
inline std::uint64_t read_varint(std::span<const std::uint8_t> bytes,
                                 std::size_t& offset) {
    if (offset < bytes.size() && bytes[offset] < 0x80u) {
        return bytes[offset++];
    }
    return decode_varint(bytes, offset);
}

/// Timestamp body shared by decode_timestamp* and full frames: varint
/// width (which must equal stamp_out.size()), then that many components,
/// ending exactly at the end of `payload`.
void decode_full_stamp(std::span<const std::uint8_t> payload,
                       std::size_t offset,
                       std::span<std::uint64_t> stamp_out) {
    const std::uint64_t width = read_varint(payload, offset);
    if (width != stamp_out.size()) {
        throw WireError(WireError::Kind::width_mismatch,
                        "timestamp width " + std::to_string(width) +
                            " does not match decomposition size " +
                            std::to_string(stamp_out.size()));
    }
    if (width > payload.size() - offset) {
        throw WireError(WireError::Kind::length_mismatch,
                        "timestamp width exceeds available bytes");
    }
    if (width == payload.size() - offset) {
        // One byte per component: all one-byte varints, unless a
        // continuation bit is set — then the general loop below rejects
        // the frame with the precise error.
        std::uint8_t continuation = 0;
        for (std::size_t i = 0; i < stamp_out.size(); ++i) {
            continuation |= payload[offset + i];
            stamp_out[i] = payload[offset + i];
        }
        if ((continuation & 0x80u) == 0) return;
    }
    for (auto& component : stamp_out) {
        component = read_varint(payload, offset);
    }
    if (offset != payload.size()) {
        throw WireError(WireError::Kind::trailing_bytes,
                        "trailing bytes after encoded timestamp");
    }
}

}  // namespace

VectorTimestamp decode_timestamp(std::span<const std::uint8_t> bytes) {
    std::size_t offset = 0;
    const std::uint64_t width = decode_varint(bytes, offset);
    // Pre-check as decode_full_stamp would, but against the declared
    // width itself (no expected width to compare to) and before sizing.
    if (width > bytes.size() - offset) {
        throw WireError(WireError::Kind::length_mismatch,
                        "timestamp width exceeds available bytes");
    }
    VectorTimestamp stamp(static_cast<std::size_t>(width));
    decode_full_stamp(bytes, 0, stamp.mutable_components());
    return stamp;
}

VectorTimestamp decode_timestamp(std::span<const std::uint8_t> bytes,
                                 std::size_t expected_width) {
    VectorTimestamp stamp(expected_width);
    decode_timestamp_into(bytes, stamp.mutable_components());
    return stamp;
}

void decode_timestamp_into(std::span<const std::uint8_t> bytes,
                           std::span<std::uint64_t> out) {
    decode_full_stamp(bytes, 0, out);
}

namespace {

std::size_t varint_size(std::uint64_t value) noexcept {
    std::size_t size = 1;
    while (value >= 0x80) {
        value >>= 7;
        ++size;
    }
    return size;
}

}  // namespace

std::size_t encoded_size(std::span<const std::uint64_t> components) {
    std::size_t total = varint_size(components.size());
    for (const std::uint64_t component : components) {
        total += varint_size(component);
    }
    return total;
}

std::size_t encoded_size(const VectorTimestamp& stamp) {
    return encoded_size(stamp.components());
}

namespace {

constexpr std::size_t kChecksumBytes = common::kChecksumTrailerBytes;

/// Longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

/// The one frame writer behind the v1, v2 and v3 encoders. It sizes `out`
/// once, from a size hint that covers the common case, and writes every
/// byte through a raw pointer, folding it into the FNV-1a state as it
/// goes: the checksum's byte-serial multiply chain thus overlaps the
/// varint work instead of re-reading the payload after it, and no sizing
/// pass over the components precedes the writing. A varint that would
/// overrun the hint grows `out` first; seal() trims it to the frame. The
/// bytes are exactly varint encoding plus the checksum trailer.
class FrameWriter {
public:
    FrameWriter(std::vector<std::uint8_t>& out, std::size_t payload_hint)
        : out_(out) {
        out.resize(payload_hint + kChecksumBytes);
        at_ = out.data();
        end_ = at_ + payload_hint;
    }

    void byte(std::uint8_t value) noexcept {
        *at_++ = value;
        hash_ = (hash_ ^ value) * common::kFnv1aPrime;
    }

    void varint(std::uint64_t value) {
        if (static_cast<std::size_t>(end_ - at_) < kMaxVarintBytes) grow();
        while (value >= 0x80) {
            byte(static_cast<std::uint8_t>(value) | 0x80u);
            value >>= 7;
        }
        byte(static_cast<std::uint8_t>(value));
    }

    /// Writes the little-endian trailer and trims `out` to the frame.
    void seal() {
        std::uint64_t checksum = hash_;
        for (std::size_t i = 0; i < kChecksumBytes; ++i) {
            *at_++ = static_cast<std::uint8_t>(checksum);
            checksum >>= 8;
        }
        out_.resize(static_cast<std::size_t>(at_ - out_.data()));
    }

private:
    void grow() {
        const auto used = static_cast<std::size_t>(at_ - out_.data());
        const std::size_t payload = 2 * (used + kMaxVarintBytes);
        out_.resize(payload + kChecksumBytes);
        at_ = out_.data() + used;
        end_ = out_.data() + payload;
    }

    std::vector<std::uint8_t>& out_;
    std::uint8_t* at_ = nullptr;
    std::uint8_t* end_ = nullptr;  ///< end of the payload space
    std::uint64_t hash_ = common::kFnv1aOffsetBasis;
};

/// Size hints: header bytes (marker, version, epoch, sequence, message,
/// width or count at their common sizes), then two bytes per full-frame
/// component and four per delta pair — counters below 2^14, indices and
/// increments below 2^14 each.
constexpr std::size_t kHeaderHint = 24;

/// Checksum gate shared by every frame version: strips and validates the
/// 8-byte FNV-1a trailer, returning the covered payload.
std::span<const std::uint8_t> checked_payload(
    std::span<const std::uint8_t> bytes) {
    // Minimum v1 frame: three one-byte varints plus the checksum trailer.
    if (bytes.size() < 3 + kChecksumBytes) {
        throw WireError(WireError::Kind::truncated,
                        "frame shorter than header + checksum");
    }
    const std::span<const std::uint8_t> payload =
        bytes.first(bytes.size() - kChecksumBytes);
    if (fnv1a64(payload) !=
        common::read_checksum_trailer(bytes, payload.size())) {
        throw WireError(WireError::Kind::checksum_mismatch,
                        "frame checksum mismatch");
    }
    return payload;
}

/// Delta-frame stamp: varint count, then count (index, increment) pairs
/// applied over `base`.
void decode_delta_stamp(std::span<const std::uint8_t> payload,
                        std::size_t offset,
                        std::span<const std::uint64_t> base,
                        std::span<std::uint64_t> stamp_out) {
    SYNCTS_REQUIRE(base.size() == stamp_out.size(),
                   "delta decode needs base and output of equal width");
    const std::uint64_t count = decode_varint(payload, offset);
    if (count > stamp_out.size()) {
        throw WireError(WireError::Kind::width_mismatch,
                        "delta pair count " + std::to_string(count) +
                            " exceeds decomposition size " +
                            std::to_string(stamp_out.size()));
    }
    // Each pair needs at least two bytes; reject absurd counts before
    // touching the pairs (mirrors the width pre-check of the full decoder).
    if (count > (payload.size() - offset) / 2) {
        throw WireError(WireError::Kind::length_mismatch,
                        "delta pair count exceeds available bytes");
    }
    // Apply over the base, enforcing strictly increasing in-range indices
    // so a pair cannot target a component twice or out of bounds.
    if (stamp_out.data() != base.data()) {
        std::copy(base.begin(), base.end(), stamp_out.begin());
    }
    std::uint64_t next_index = 0;
    for (std::uint64_t pair = 0; pair < count; ++pair) {
        const std::uint64_t index = read_varint(payload, offset);
        if (index < next_index || index >= stamp_out.size()) {
            throw WireError(WireError::Kind::length_mismatch,
                            "delta pair index " + std::to_string(index) +
                                " out of order or out of range");
        }
        next_index = index + 1;
        stamp_out[index] += read_varint(payload, offset);
    }
    if (offset != payload.size()) {
        throw WireError(WireError::Kind::trailing_bytes,
                        "trailing bytes inside delta frame payload");
    }
}

}  // namespace

void encode_epoch_frame_into(EpochId epoch, std::uint64_t sequence,
                             std::uint64_t message,
                             std::span<const std::uint64_t> stamp,
                             std::vector<std::uint8_t>& out) {
    SYNCTS_REQUIRE(sequence >= 1,
                   "epoch-aware frames need 1-based sequence numbers");
    // Back-compat rule: epoch-0 traffic is bit-identical to the version-1
    // format, so pre-epoch peers interoperate unchanged.
    FrameWriter writer(out, kHeaderHint + 2 * stamp.size());
    if (epoch != 0) {
        writer.byte(kEpochFrameMarker);
        writer.varint(kEpochFrameVersion);
        writer.varint(epoch);
    }
    writer.varint(sequence);
    writer.varint(message);
    writer.varint(stamp.size());
    for (const std::uint64_t component : stamp) writer.varint(component);
    writer.seal();
}

bool encode_delta_frame_into(EpochId epoch, std::uint64_t sequence,
                             std::uint64_t message,
                             std::span<const std::uint64_t> base,
                             std::span<const std::uint64_t> stamp,
                             std::vector<std::uint8_t>& out) {
    SYNCTS_REQUIRE(sequence >= 1,
                   "epoch-aware frames need 1-based sequence numbers");
    out.clear();
    if (base.size() != stamp.size()) return false;
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < stamp.size(); ++i) {
        if (stamp[i] < base[i]) return false;  // non-monotone: full resync
        if (stamp[i] != base[i]) ++changed;
    }
    FrameWriter writer(out, kHeaderHint + 4 * changed);
    writer.byte(kEpochFrameMarker);
    writer.varint(kDeltaFrameVersion);
    writer.varint(epoch);
    writer.varint(sequence);
    writer.varint(message);
    writer.varint(changed);
    for (std::size_t i = 0; i < stamp.size(); ++i) {
        if (stamp[i] == base[i]) continue;
        writer.varint(i);
        writer.varint(stamp[i] - base[i]);
    }
    writer.seal();
    return true;
}

FrameInfo peek_frame_info(std::span<const std::uint8_t> bytes) {
    FrameInfo info;
    info.payload = checked_payload(bytes);
    std::size_t offset = 0;
    if (info.payload[0] == kEpochFrameMarker) {
        offset = 1;
        info.version = decode_varint(info.payload, offset);
        if (info.version != kEpochFrameVersion &&
            info.version != kDeltaFrameVersion) {
            throw WireError(WireError::Kind::unsupported_version,
                            "unsupported frame version " +
                                std::to_string(info.version));
        }
        info.delta = info.version == kDeltaFrameVersion;
        const std::uint64_t epoch = decode_varint(info.payload, offset);
        // EpochId is 32-bit, and v2 never carries epoch 0 (the encoder
        // spells it as v1); anything else is from a future format.
        if ((epoch == 0 && !info.delta) ||
            epoch > std::numeric_limits<EpochId>::max()) {
            throw WireError(WireError::Kind::unsupported_version,
                            "frame carrying out-of-range epoch " +
                                std::to_string(epoch));
        }
        info.header.epoch = static_cast<EpochId>(epoch);
    }
    info.header.sequence = read_varint(info.payload, offset);
    info.header.message = read_varint(info.payload, offset);
    info.stamp_offset = offset;
    return info;
}

void decode_frame_stamp(const FrameInfo& info,
                        std::span<const std::uint64_t> base,
                        std::span<std::uint64_t> stamp_out) {
    if (info.delta) {
        decode_delta_stamp(info.payload, info.stamp_offset, base, stamp_out);
    } else {
        decode_full_stamp(info.payload, info.stamp_offset, stamp_out);
    }
}

FrameHeader decode_epoch_frame_into(std::span<const std::uint8_t> bytes,
                                    std::span<std::uint64_t> stamp_out) {
    const FrameInfo info = peek_frame_info(bytes);
    if (info.delta) {
        throw WireError(WireError::Kind::unsupported_version,
                        "delta frame fed to the full-frame decoder");
    }
    decode_frame_stamp(info, {}, stamp_out);
    return info.header;
}

FrameHeader decode_delta_frame_into(std::span<const std::uint8_t> bytes,
                                    std::span<const std::uint64_t> base,
                                    std::span<std::uint64_t> stamp_out) {
    const FrameInfo info = peek_frame_info(bytes);
    if (!info.delta) {
        throw WireError(WireError::Kind::unsupported_version,
                        "full frame fed to the delta decoder");
    }
    decode_frame_stamp(info, base, stamp_out);
    return info.header;
}

// ---------------------------------------------------------------------------
// Batch containers (v4)

BatchFrame::~BatchFrame() {
    if (pool_ != nullptr && slab_) pool_->release(std::move(slab_));
}

std::uint8_t* BatchFrame::scratch() noexcept {
    return pool_ != nullptr
               ? reinterpret_cast<std::uint8_t*>(slab_.words.get())
               : heap_.data();
}

const std::uint8_t* BatchFrame::scratch() const noexcept {
    return pool_ != nullptr
               ? reinterpret_cast<const std::uint8_t*>(slab_.words.get())
               : heap_.data();
}

void BatchFrame::reserve_scratch(std::size_t bytes) {
    if (pool_ == nullptr) {
        if (heap_.size() < bytes) heap_.resize(bytes);
        return;
    }
    const std::size_t have = slab_.capacity_words * sizeof(std::uint64_t);
    if (have >= bytes) return;
    Slab grown = pool_->acquire((bytes + sizeof(std::uint64_t) - 1) /
                                sizeof(std::uint64_t));
    if (slab_) {
        std::memcpy(grown.words.get(), slab_.words.get(), used_);
        pool_->release(std::move(slab_));
    }
    slab_ = std::move(grown);
}

void BatchFrame::clear() noexcept {
    slots_.clear();
    used_ = 0;
    live_ = 0;
    pending_bytes_ = 0;
}

void BatchFrame::add(std::uint64_t kind, std::uint64_t tag,
                     std::span<const std::uint8_t> body) {
    reserve_scratch(used_ + body.size());
    if (!body.empty()) std::memcpy(scratch() + used_, body.data(), body.size());
    slots_.push_back(Slot{kind, tag, used_, body.size(), true});
    used_ += body.size();
    ++live_;
    pending_bytes_ += body.size();
}

bool BatchFrame::supersede(std::uint64_t kind, std::uint64_t tag) noexcept {
    for (std::size_t i = slots_.size(); i-- > 0;) {
        Slot& slot = slots_[i];
        if (!slot.live || slot.kind != kind || slot.tag != tag) continue;
        slot.live = false;
        --live_;
        pending_bytes_ -= slot.length;
        return true;
    }
    return false;
}

BatchFrame::Entry BatchFrame::front() const {
    for (const Slot& slot : slots_) {
        if (!slot.live) continue;
        return Entry{slot.kind, slot.tag,
                     {scratch() + slot.offset, slot.length}};
    }
    SYNCTS_REQUIRE(false, "front() on an empty batch");
    return Entry{};
}

void BatchFrame::encode_batch_into(std::vector<std::uint8_t>& out) const {
    SYNCTS_REQUIRE(!empty(), "encoding an empty batch container");
    out.clear();
    out.push_back(kEpochFrameMarker);
    encode_varint(kBatchFrameVersion, out);
    encode_varint(live_, out);
    for (const Slot& slot : slots_) {
        if (!slot.live) continue;
        encode_varint(slot.kind, out);
        encode_varint(slot.tag, out);
        encode_varint(slot.length, out);
        out.insert(out.end(), scratch() + slot.offset,
                   scratch() + slot.offset + slot.length);
    }
    common::append_checksum_trailer(out);
}

BatchReader::BatchReader(std::span<const std::uint8_t> bytes) {
    // Minimum container: marker, version, count, trailer.
    if (bytes.size() < 3 + kChecksumBytes) {
        throw WireError(WireError::Kind::truncated,
                        "batch container shorter than header + checksum");
    }
    payload_ = bytes.first(bytes.size() - kChecksumBytes);
    const std::uint64_t declared_checksum =
        common::read_checksum_trailer(bytes, payload_.size());
    // The outer checksum is advisory: every entry body is itself a
    // complete checksummed frame, so a flipped bit inside one entry must
    // spoil only that entry, not the container. A mismatch is recorded
    // (intact() == false) and iteration proceeds; structural damage to
    // the entry table still throws from next().
    intact_ = fnv1a64(payload_) == declared_checksum;
    if (payload_[0] != kEpochFrameMarker) {
        throw WireError(WireError::Kind::unsupported_version,
                        "buffer is not a batch container");
    }
    offset_ = 1;
    const std::uint64_t version = decode_varint(payload_, offset_);
    if (version != kBatchFrameVersion) {
        throw WireError(WireError::Kind::unsupported_version,
                        "unsupported batch container version " +
                            std::to_string(version));
    }
    declared_ = decode_varint(payload_, offset_);
}

bool BatchReader::next(BatchFrame::Entry& out) {
    if (yielded_ >= declared_ || offset_ >= payload_.size()) {
        if (yielded_ < declared_ && offset_ >= payload_.size()) {
            throw WireError(WireError::Kind::truncated,
                            "batch container ends before its declared " +
                                std::to_string(declared_) + " entries");
        }
        return false;
    }
    out.kind = decode_varint(payload_, offset_);
    out.tag = decode_varint(payload_, offset_);
    const std::uint64_t length = decode_varint(payload_, offset_);
    if (length > payload_.size() - offset_) {
        throw WireError(WireError::Kind::length_mismatch,
                        "batch entry length exceeds container");
    }
    out.body = payload_.subspan(offset_, static_cast<std::size_t>(length));
    offset_ += static_cast<std::size_t>(length);
    ++yielded_;
    return true;
}

}  // namespace syncts
