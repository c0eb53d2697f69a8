#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "clocks/vector_timestamp.hpp"
#include "common/codec.hpp"
#include "common/ids.hpp"

/// \file wire.hpp
/// Wire format for piggybacked timestamps.
///
/// The paper's O(d) message overhead is realized concretely here: a
/// timestamp is serialized as LEB128 varints (width first, then each
/// component), so small fresh clocks cost d+1 bytes and long-running
/// systems pay only for the magnitude their counters actually reached.
/// This is what a production transport would append to every message and
/// acknowledgement.
///
/// Because production transports lose and corrupt bytes, the rendezvous
/// protocol does not ship bare timestamps: it ships *frames* — sequence
/// number + message id + timestamp, trailed by a CRC32C checksum.
/// Decoders validate length, checksum, and the expected decomposition
/// width d *before* allocating components, and report failures with a
/// typed WireError so callers can count and recover (retransmission)
/// instead of propagating garbage into timestamps.

namespace syncts {

/// Malformed wire input. Derives from std::invalid_argument so existing
/// "parsers throw invalid_argument on bad input" contracts still hold,
/// but carries a machine-readable kind for recovery and statistics.
class WireError : public std::invalid_argument {
public:
    enum class Kind {
        truncated,            ///< input ended mid-value
        overlong_varint,      ///< varint encodes more than 64 bits
        checksum_mismatch,    ///< frame trailer does not match the payload
        width_mismatch,       ///< timestamp width differs from expected d
        length_mismatch,      ///< declared width exceeds remaining bytes
        trailing_bytes,       ///< undecoded bytes after the value
        unsupported_version,  ///< versioned frame from a future format
    };

    WireError(Kind kind, const std::string& what)
        : std::invalid_argument(what), kind_(kind) {}

    Kind kind() const noexcept { return kind_; }

private:
    Kind kind_;
};

/// The codec fail function of every wire decoder: raises WireError with
/// the kind of the codec fault — a count that exceeds the bytes left is a
/// length_mismatch.
[[noreturn]] void throw_wire_error(codec::Fault fault, const char* what);

/// A codec reader whose failures raise WireError.
using WireReader = codec::Reader<decltype(&throw_wire_error)>;

/// Serializes width + components.
std::vector<std::uint8_t> encode_timestamp(const VectorTimestamp& stamp);

/// Span form: replaces the contents of `out` (capacity is reused, so a
/// caller-kept buffer makes the steady state allocation-free).
void encode_timestamp_into(std::span<const std::uint64_t> components,
                           std::vector<std::uint8_t>& out);

/// Inverse of encode_timestamp. Throws WireError on malformed input or
/// trailing bytes.
VectorTimestamp decode_timestamp(std::span<const std::uint8_t> bytes);

/// As decode_timestamp, but additionally rejects (WireError::Kind::
/// width_mismatch) any payload whose declared width differs from
/// `expected_width` — checked against the decomposition size d *before*
/// any component is decoded or allocated, so a corrupted or hostile
/// length prefix cannot trigger large allocations or short vectors.
VectorTimestamp decode_timestamp(std::span<const std::uint8_t> bytes,
                                 std::size_t expected_width);

/// Span form of the width-checked decode: writes the components into
/// `out` (whose size is the expected width d). Nothing is allocated.
void decode_timestamp_into(std::span<const std::uint8_t> bytes,
                           std::span<std::uint64_t> out);

/// Exact encoded size without materializing the bytes.
std::size_t encoded_size(const VectorTimestamp& stamp);
std::size_t encoded_size(std::span<const std::uint64_t> components);

/// Frame header fields, decoupled from timestamp storage. `epoch` is 0
/// for version-1 frames (the format predates topology epochs; see
/// docs/FORMATS.md and docs/TOPOLOGY.md for the version matrix).
struct FrameHeader {
    std::uint64_t sequence = 0;
    std::uint64_t message = 0;
    EpochId epoch = 0;
};

/// Version escape for epoch-tagged frames (format version 2). A v1 frame
/// begins with the varint sequence number and the rendezvous protocol
/// numbers sequences from 1, so a leading 0x00 byte is unambiguous: v2
/// frames are `0x00, varint version, varint epoch` followed by the v1
/// body (varint sequence, varint message, encoded timestamp) and the same
/// 4-byte CRC32C trailer over everything before it.
inline constexpr std::uint8_t kEpochFrameMarker = 0x00;

/// Current versioned frame format.
inline constexpr std::uint64_t kEpochFrameVersion = 2;

/// Full-vector frame writer: frames `stamp` (an arena row or clock span)
/// with the given header, replacing the contents of `out`. Epoch 0 emits
/// the version-1 layout — varint sequence, varint message, encoded
/// timestamp, then a 4-byte little-endian CRC32C of everything before
/// it — so pre-epoch peers read epoch-0 traffic unchanged; any later
/// epoch emits a v2 frame. `sequence` must be >= 1 — that is what keeps
/// the two layouts distinguishable. `out` is sized once, the stamp is
/// written in one bulk varint pass, and the checksum is one pass over the
/// finished frame.
/// Capacity is reused, so encoding into a kept or recycled buffer
/// allocates nothing (docs/INTERNALS.md §5).
void encode_epoch_frame_into(EpochId epoch, std::uint64_t sequence,
                             std::uint64_t message,
                             std::span<const std::uint64_t> stamp,
                             std::vector<std::uint8_t>& out);

/// Full-frame reader: accepts v2 frames and plain v1 frames, the latter
/// reported as epoch 0; peek_frame_info plus decode_frame_stamp, so it
/// validates the checksum, version, and that the timestamp width equals
/// stamp_out.size(). Rejects delta frames with unsupported_version.
/// Nothing is allocated. Throws WireError.
FrameHeader decode_epoch_frame_into(std::span<const std::uint8_t> bytes,
                                    std::span<std::uint64_t> stamp_out);

// ---------------------------------------------------------------------------
// Delta-encoded frames (format version 3)
//
// A channel that already delivered a frame knows the peer's previous
// stamp, so the next frame need only carry the components that moved —
// the Vaidya–Kulkarni observation applied to the rendezvous protocol.
// Layout: `0x00, varint 3, varint epoch, varint sequence, varint
// message, varint count, count x (varint index, varint increment)`, same
// 4-byte CRC32C trailer. Unlike v2, epoch 0 is legal here (the 0x00
// marker already disambiguates from v1). `increment` is the component's
// growth over the shadow base — clock components are monotonic on a
// channel, so increments are small and the encoder refuses (returns
// false) if any component moved backwards, forcing a full-frame resync.

/// Delta frame format version.
inline constexpr std::uint64_t kDeltaFrameVersion = 3;

/// Batch container format version (see BatchFrame below).
inline constexpr std::uint64_t kBatchFrameVersion = 4;

/// Encodes `stamp` as a delta against `base` (the channel's last-sent
/// shadow). Returns false — leaving `out` cleared — when the widths
/// differ or some component of `stamp` is below `base` (non-monotone:
/// the caller must send a full frame and resync the shadow). `sequence`
/// must be >= 1, as for every versioned frame.
bool encode_delta_frame_into(EpochId epoch, std::uint64_t sequence,
                             std::uint64_t message,
                             std::span<const std::uint64_t> base,
                             std::span<const std::uint64_t> stamp,
                             std::vector<std::uint8_t>& out);

/// Decodes a v3 delta frame against `base` (the receiver's shadow of the
/// channel): `stamp_out` = `base` with the carried increments applied.
/// `base` and `stamp_out` must both be the decomposition width and may
/// alias. peek_frame_info plus decode_frame_stamp: validates checksum,
/// version, strictly-increasing in-range indices, and count <= width.
/// Throws WireError; rejects v1/v2 frames with
/// WireError::Kind::unsupported_version.
FrameHeader decode_delta_frame_into(std::span<const std::uint8_t> bytes,
                                    std::span<const std::uint64_t> base,
                                    std::span<std::uint64_t> stamp_out);

/// What a checksum-valid frame is, before committing to a decode path.
struct FrameInfo {
    FrameHeader header;
    std::uint64_t version = 1;  ///< 1, 2, or kDeltaFrameVersion
    bool delta = false;         ///< version == kDeltaFrameVersion
    /// The checksum-verified payload (the frame without its trailer), a
    /// view into the peeked bytes, and where its stamp starts: the
    /// width varint of a full frame, the pair count of a delta frame.
    std::span<const std::uint8_t> payload;
    std::size_t stamp_offset = 0;
};

/// The one v1/v2/v3 frame header parser: verifies the checksum once and
/// parses the header fields, leaving the stamp bytes (checksum-covered)
/// to decode_frame_stamp. Every frame reader starts here. Batch
/// containers (v4) are rejected with unsupported_version — they travel
/// under their own packet kind and BatchReader. Throws WireError.
FrameInfo peek_frame_info(std::span<const std::uint8_t> bytes);

/// Decodes the stamp of a peeked frame without a second checksum pass:
/// a full frame's components as they are (width must equal
/// stamp_out.size(); `base` is unused), or a delta frame's increments
/// applied over `base` (same width as stamp_out; they may alias). The
/// peeked bytes must still be alive. Throws WireError.
void decode_frame_stamp(const FrameInfo& info,
                        std::span<const std::uint64_t> base,
                        std::span<std::uint64_t> stamp_out);

// ---------------------------------------------------------------------------
// Batch containers (format version 4)
//
// One network packet carrying several complete frames — the container
// the ACK coalescer and the bandwidth scheduler flush. Layout: `0x00,
// varint 4, varint count, count x (varint kind, varint tag, varint
// length, length bytes)`, 4-byte CRC32C trailer over everything before
// it. Every entry body is itself a complete checksummed frame, so a
// flipped bit inside one entry spoils only that entry: the streaming
// reader keeps yielding the rest and the per-entry decode rejects the
// damaged one (corruption of a length prefix abandons the remainder of
// the container — retransmission recovers, exactly as for a lost
// packet).

/// Scatter-gather builder for batch containers. Entry bodies are copied
/// into one scratch vector at add() time; the entry table and the
/// scratch keep their capacity across clear() cycles, so a builder's
/// steady state performs no allocations. Also serves as the
/// synchronizer's per-destination TX queue — supersede() implements
/// cumulative-ACK coalescing by retiring a queued entry that a newer one
/// subsumes.
class BatchFrame {
public:
    /// Live (non-superseded) entries.
    std::size_t size() const noexcept { return live_; }
    bool empty() const noexcept { return live_ == 0; }

    /// Body bytes queued across live entries (bandwidth accounting).
    std::size_t pending_bytes() const noexcept { return pending_bytes_; }

    /// Drops every entry; scratch and table storage are kept for reuse.
    void clear() noexcept;

    /// Appends an entry (kind/tag mirror Packet::kind/Packet::tag).
    void add(std::uint64_t kind, std::uint64_t tag,
             std::span<const std::uint8_t> body);

    /// Retires the most recent live entry with this kind and tag (the
    /// cumulative-ACK rule: a newer ACK on a channel subsumes the queued
    /// one). Returns whether an entry was retired.
    bool supersede(std::uint64_t kind, std::uint64_t tag) noexcept;

    /// One queued entry, in arrival order over live entries. The span
    /// points into the builder's scratch — valid until clear()/add().
    struct Entry {
        std::uint64_t kind = 0;
        std::uint64_t tag = 0;
        std::span<const std::uint8_t> body;
    };

    /// The oldest live entry — the single-entry fast path reads it back
    /// and sends the bare frame so a lone frame never pays container
    /// overhead (and stays decodable by v1/v2-only peers). Requires
    /// !empty().
    Entry front() const;

    /// Encodes the live entries, in order, as one v4 container
    /// (replacing the contents of `out`). Requires !empty().
    void encode_batch_into(std::vector<std::uint8_t>& out) const;

private:
    struct Slot {
        std::uint64_t kind = 0;
        std::uint64_t tag = 0;
        std::size_t offset = 0;
        std::size_t length = 0;
        bool live = false;
    };

    /// Entry bodies back to back, superseded ones included, in the first
    /// used_ bytes.
    std::vector<std::uint8_t> scratch_;
    std::size_t used_ = 0;
    std::vector<Slot> slots_;
    std::size_t live_ = 0;
    std::size_t pending_bytes_ = 0;
};

/// Streaming decoder over a v4 batch container. The constructor
/// validates the marker and version; next() then yields entries in order
/// without allocating. The outer checksum is *advisory* (reported by
/// intact()): entry bodies carry their own frame checksums, so a flipped
/// bit inside one entry spoils only that entry. A structural break
/// mid-entry (truncated varint, length past the end) throws WireError —
/// entries already yielded stand, the remainder of the container is
/// lost.
class BatchReader {
public:
    /// Throws WireError unless `bytes` is structurally a v4 container
    /// (long enough, marker + version valid, count decodable).
    explicit BatchReader(std::span<const std::uint8_t> bytes);

    /// Whether the outer checksum matched. False means at least one byte
    /// of the container was damaged in flight — per-entry decodes decide
    /// which entries survive.
    bool intact() const noexcept { return intact_; }

    /// Entries the container header declares (next() additionally stops
    /// at the end of the payload, so a hostile count cannot loop).
    std::uint64_t declared_count() const noexcept { return declared_; }

    /// Yields the next entry; false when exhausted. The body span points
    /// into the caller's buffer. Throws WireError on structural breaks.
    bool next(BatchFrame::Entry& out);

private:
    WireReader in_;  ///< over the payload, past the header once constructed
    std::uint64_t declared_ = 0;
    std::uint64_t yielded_ = 0;
    bool intact_ = false;
};

}  // namespace syncts
