#include "clocks/wire.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace syncts {

void throw_wire_error(codec::Fault fault, const char* what) {
    using Kind = WireError::Kind;
    Kind kind = Kind::length_mismatch;  // a count or a range breaks the layout
    switch (fault) {
        case codec::Fault::truncated: kind = Kind::truncated; break;
        case codec::Fault::overlong_varint: kind = Kind::overlong_varint; break;
        case codec::Fault::trailing: kind = Kind::trailing_bytes; break;
        case codec::Fault::checksum: kind = Kind::checksum_mismatch; break;
        case codec::Fault::count:
        case codec::Fault::malformed: break;
    }
    throw WireError(kind, what);
}

namespace {

/// Size hints: header bytes (marker, version, epoch, sequence, message,
/// width or count at their common sizes), then two bytes per full-frame
/// component and four per delta pair — counters below 2^14, indices and
/// increments below 2^14 each.
constexpr std::size_t kHeaderHint = 24;

/// Timestamp body shared by decode_timestamp* and full frames: varint
/// width (which must equal stamp_out.size()), then that many components,
/// ending exactly at the end of the reader's view.
void decode_full_stamp(WireReader& in, std::span<std::uint64_t> stamp_out) {
    const std::uint64_t width = in.varint();
    if (width != stamp_out.size()) {
        throw WireError(WireError::Kind::width_mismatch,
                        "timestamp width " + std::to_string(width) +
                            " does not match decomposition size " +
                            std::to_string(stamp_out.size()));
    }
    if (in.count(width) == in.remaining()) {
        // One byte per component: all one-byte varints, unless a
        // continuation bit is set — then the general loop below rejects
        // the frame with the precise error.
        const std::span<const std::uint8_t> block = in.rest();
        std::uint8_t continuation = 0;
        for (std::size_t i = 0; i < stamp_out.size(); ++i) {
            continuation |= block[i];
            stamp_out[i] = block[i];
        }
        if ((continuation & 0x80u) == 0) return;
    }
    in.varints(stamp_out);
    in.end();
}

/// Delta-frame stamp: varint count, then count (index, increment) pairs
/// applied over `base`.
void decode_delta_stamp(WireReader& in, std::span<const std::uint64_t> base,
                        std::span<std::uint64_t> stamp_out) {
    SYNCTS_REQUIRE(base.size() == stamp_out.size(),
                   "delta decode needs base and output of equal width");
    const std::uint64_t count = in.varint();
    if (count > stamp_out.size()) {
        throw WireError(WireError::Kind::width_mismatch,
                        "delta pair count " + std::to_string(count) +
                            " exceeds decomposition size " +
                            std::to_string(stamp_out.size()));
    }
    // Each pair needs at least two bytes; reject absurd counts before
    // touching the pairs (mirrors the width pre-check of the full decoder).
    (void)in.count(count, 2);
    // Apply over the base, enforcing strictly increasing in-range indices
    // so a pair cannot target a component twice or out of bounds.
    if (stamp_out.data() != base.data()) {
        std::copy(base.begin(), base.end(), stamp_out.begin());
    }
    std::uint64_t next_index = 0;
    for (std::uint64_t pair = 0; pair < count; ++pair) {
        const std::uint64_t index = in.varint();
        if (index < next_index || index >= stamp_out.size()) {
            throw WireError(WireError::Kind::length_mismatch,
                            "delta pair index " + std::to_string(index) +
                                " out of order or out of range");
        }
        next_index = index + 1;
        stamp_out[index] += in.varint();
    }
    in.end();
}

}  // namespace

void encode_timestamp_into(std::span<const std::uint64_t> components,
                           std::vector<std::uint8_t>& out) {
    out.clear();
    codec::Writer writer(out, 2 * (1 + components.size()));
    writer.varint(components.size());
    writer.varints(components);
    writer.finish();
}

std::vector<std::uint8_t> encode_timestamp(const VectorTimestamp& stamp) {
    std::vector<std::uint8_t> out;
    encode_timestamp_into(stamp.components(), out);
    return out;
}

VectorTimestamp decode_timestamp(std::span<const std::uint8_t> bytes) {
    // Size the stamp from its declared width, checked against the bytes
    // left before anything is allocated.
    WireReader width(bytes, throw_wire_error);
    VectorTimestamp stamp(width.count(width.varint()));
    WireReader in(bytes, throw_wire_error);
    decode_full_stamp(in, stamp.mutable_components());
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
    WireReader in(bytes, throw_wire_error);
    decode_full_stamp(in, out);
}

std::size_t encoded_size(std::span<const std::uint64_t> components) {
    std::size_t total = codec::varint_size(components.size());
    for (const std::uint64_t component : components) {
        total += codec::varint_size(component);
    }
    return total;
}

std::size_t encoded_size(const VectorTimestamp& stamp) {
    return encoded_size(stamp.components());
}

void encode_epoch_frame_into(EpochId epoch, std::uint64_t sequence,
                             std::uint64_t message,
                             std::span<const std::uint64_t> stamp,
                             std::vector<std::uint8_t>& out) {
    SYNCTS_REQUIRE(sequence >= 1,
                   "epoch-aware frames need 1-based sequence numbers");
    // Back-compat rule: epoch-0 traffic is bit-identical to the version-1
    // format, so pre-epoch peers interoperate unchanged.
    out.clear();
    codec::Writer writer(out, kHeaderHint + 2 * stamp.size());
    if (epoch != 0) {
        writer.byte(kEpochFrameMarker);
        writer.varint(kEpochFrameVersion);
        writer.varint(epoch);
    }
    writer.varint(sequence);
    writer.varint(message);
    writer.varint(stamp.size());
    writer.varints(stamp);
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
    codec::Writer writer(out, kHeaderHint + 4 * changed);
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
    WireReader in(bytes, throw_wire_error);
    // Minimum v1 frame: three one-byte varints plus the checksum trailer.
    in.need(3 + codec::kTrailerBytes, "frame shorter than header + checksum");
    in.unseal();
    FrameInfo info;
    info.payload = in.rest();
    if (info.payload[0] == kEpochFrameMarker) {
        (void)in.u8();
        info.version = in.varint();
        if (info.version != kEpochFrameVersion &&
            info.version != kDeltaFrameVersion) {
            throw WireError(WireError::Kind::unsupported_version,
                            "unsupported frame version " +
                                std::to_string(info.version));
        }
        info.delta = info.version == kDeltaFrameVersion;
        const std::uint64_t epoch = in.varint();
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
    info.header.sequence = in.varint();
    info.header.message = in.varint();
    info.stamp_offset = in.offset();
    return info;
}

void decode_frame_stamp(const FrameInfo& info,
                        std::span<const std::uint64_t> base,
                        std::span<std::uint64_t> stamp_out) {
    WireReader in(info.payload.subspan(info.stamp_offset), throw_wire_error);
    if (info.delta) {
        decode_delta_stamp(in, base, stamp_out);
    } else {
        decode_full_stamp(in, stamp_out);
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

void BatchFrame::clear() noexcept {
    slots_.clear();
    used_ = 0;
    live_ = 0;
    pending_bytes_ = 0;
}

void BatchFrame::add(std::uint64_t kind, std::uint64_t tag,
                     std::span<const std::uint8_t> body) {
    // The scratch keeps its high-water size across clear(), so growth
    // past that mark at least doubles it.
    if (scratch_.size() < used_ + body.size()) {
        scratch_.resize(used_ + body.size());
    }
    std::copy(body.begin(), body.end(), scratch_.data() + used_);
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
                     {scratch_.data() + slot.offset, slot.length}};
    }
    SYNCTS_REQUIRE(false, "front() on an empty batch");
    return Entry{};
}

void BatchFrame::encode_batch_into(std::vector<std::uint8_t>& out) const {
    SYNCTS_REQUIRE(!empty(), "encoding an empty batch container");
    out.clear();
    // Entry headers (kind, tag, length) take a few bytes each.
    codec::Writer writer(out, kHeaderHint + pending_bytes_ + 8 * live_);
    writer.byte(kEpochFrameMarker);
    writer.varint(kBatchFrameVersion);
    writer.varint(live_);
    for (const Slot& slot : slots_) {
        if (!slot.live) continue;
        writer.varint(slot.kind);
        writer.varint(slot.tag);
        writer.blob({scratch_.data() + slot.offset, slot.length});
    }
    writer.seal();
}

BatchReader::BatchReader(std::span<const std::uint8_t> bytes)
    : in_(bytes, throw_wire_error) {
    // Minimum container: marker, version, count, trailer.
    in_.need(3 + codec::kTrailerBytes,
             "batch container shorter than header + checksum");
    // The outer checksum is advisory: every entry body is itself a
    // complete checksummed frame, so a flipped bit inside one entry must
    // spoil only that entry, not the container. A mismatch is recorded
    // (intact() == false) and iteration proceeds; structural damage to
    // the entry table still throws from next().
    intact_ = in_.strip_trailer();
    if (in_.u8() != kEpochFrameMarker) {
        throw WireError(WireError::Kind::unsupported_version,
                        "buffer is not a batch container");
    }
    const std::uint64_t version = in_.varint();
    if (version != kBatchFrameVersion) {
        throw WireError(WireError::Kind::unsupported_version,
                        "unsupported batch container version " +
                            std::to_string(version));
    }
    declared_ = in_.varint();
}

bool BatchReader::next(BatchFrame::Entry& out) {
    if (yielded_ >= declared_ || in_.remaining() == 0) {
        if (yielded_ < declared_) {
            throw WireError(WireError::Kind::truncated,
                            "batch container ends before its declared " +
                                std::to_string(declared_) + " entries");
        }
        return false;
    }
    out.kind = in_.varint();
    out.tag = in_.varint();
    out.body = in_.blob();
    ++yielded_;
    return true;
}

}  // namespace syncts
