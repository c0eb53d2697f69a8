#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SYNCTS_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

/// \file codec.hpp
/// The byte rules every binary format in the tree shares (docs/FORMATS.md
/// §"Shared encoding"): LEB128 varints, little-endian integers,
/// length-prefixed blobs, caps on declared counts, and the 4-byte CRC32C
/// checksum trailer. Its users:
///
///   - wire frames v1–v4 and the bare timestamp (clocks/wire);
///   - WAL records (recover/wal) and SYSN snapshots (recover/snapshot);
///   - SYFR post-mortems (obs/flight_recorder);
///   - the SYEV event dump (obs/trace_sink);
///   - SYTR v2 streams (trace/trace_io);
///   - SYSP spill chunks (common/spill_store) and the closure chunk
///     payloads they carry (poset/streaming_closure);
///   - the FM differential clock's byte accounting (varint_size).
///
/// Header-only, because obs sits below common in the link order.
/// Encoders write through one Writer, decoders read through one bounded
/// Reader, and a format's own rules (magics, versions, value ranges)
/// stay in the format.

namespace syncts::codec {

/// Bytes of the checksum trailer: the CRC32C of everything before it,
/// little-endian.
inline constexpr std::size_t kTrailerBytes = 4;

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// CRC32C (Castagnoli; RFC 3720 §B.4): reflected polynomial 0x82F63B78,
/// initial value and final XOR 0xFFFFFFFF. The table body serves hosts
/// without SSE4.2.
inline constexpr std::array<std::uint32_t, 256> kCrc32cTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
        }
        table[i] = crc;
    }
    return table;
}();

inline std::uint32_t crc32c_portable(
    std::span<const std::uint8_t> bytes) noexcept {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const std::uint8_t byte : bytes) {
        crc = kCrc32cTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
    }
    return ~crc;
}

#if defined(SYNCTS_CRC32C_SSE42)
/// The SSE4.2 body: one crc32 instruction per 8 bytes, then the tail.
/// Run it only where sse42_available() says the host has the instruction.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> bytes) noexcept {
    const std::uint8_t* at = bytes.data();
    std::size_t left = bytes.size();
    std::uint64_t wide = 0xFFFFFFFFu;
    for (; left >= 8; at += 8, left -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, at, 8);
        wide = _mm_crc32_u64(wide, word);
    }
    auto crc = static_cast<std::uint32_t>(wide);
    for (; left > 0; ++at, --left) crc = _mm_crc32_u8(crc, *at);
    return ~crc;
}
#endif

/// Whether the host runs crc32c_sse42, checked once per process.
inline bool sse42_available() noexcept {
#if defined(SYNCTS_CRC32C_SSE42)
    static const bool available = __builtin_cpu_supports("sse4.2") != 0;
    return available;
#else
    return false;
#endif
}

inline std::uint32_t crc32c(std::span<const std::uint8_t> bytes) noexcept {
#if defined(SYNCTS_CRC32C_SSE42)
    if (sse42_available()) return crc32c_sse42(bytes);
#endif
    return crc32c_portable(bytes);
}

/// Bytes the LEB128 encoding of `value` takes.
inline std::size_t varint_size(std::uint64_t value) noexcept {
    std::size_t size = 1;
    while (value >= 0x80) {
        value >>= 7;
        ++size;
    }
    return size;
}

/// Whether `sealed` ends in the trailer of the bytes before it.
/// Requires sealed.size() >= kTrailerBytes.
inline bool trailer_matches(std::span<const std::uint8_t> sealed) noexcept {
    const std::size_t body = sealed.size() - kTrailerBytes;
    std::uint32_t declared = 0;
    for (std::size_t i = 0; i < kTrailerBytes; ++i) {
        declared |= static_cast<std::uint32_t>(sealed[body + i]) << (8 * i);
    }
    return crc32c(sealed.first(body)) == declared;
}

/// The one encoder. It appends at out.size(): `out` is sized once from
/// the caller's hint (the record's expected bytes, any trailer
/// included), every byte goes through a raw pointer, and a write that
/// would overrun the hint first doubles the record's room. seal() appends
/// the trailer in one CRC32C pass over the record. finish() or seal()
/// trims `out` to the bytes written; until then `out` holds scratch.
class Writer {
public:
    Writer(std::vector<std::uint8_t>& out, std::size_t hint)
        : out_(out), start_(out.size()) {
        out.resize(start_ + hint);
        at_ = out.data() + start_;
        end_ = at_ + hint;
    }

    void byte(std::uint8_t value) {
        reserve(1);
        *at_++ = value;
    }

    void varint(std::uint64_t value) {
        reserve(kMaxVarintBytes);
        std::uint8_t* at = at_;
        // Most clock components fit one byte: keep that path straight.
        while (value >= 0x80) [[unlikely]] {
            *at++ = static_cast<std::uint8_t>(value) | 0x80u;
            value >>= 7;
        }
        *at++ = static_cast<std::uint8_t>(value);
        at_ = at;
    }

    /// Each value as a varint: the encoder twin of Reader::varints. Each
    /// block of values below 0x80 (most clock components) is narrowed in
    /// one pass with the cursor in a local, so the byte stores cannot
    /// alias it; a block holding a longer value goes one varint at a time.
    void varints(std::span<const std::uint64_t> values) {
        constexpr std::size_t kBlock = 16;
        for (std::size_t i = 0; i < values.size(); i += kBlock) {
            const auto block =
                values.subspan(i, std::min(kBlock, values.size() - i));
            std::uint64_t high = 0;
            for (const std::uint64_t value : block) high |= value;
            if (high >= 0x80) {
                for (const std::uint64_t value : block) varint(value);
                continue;
            }
            reserve(block.size());
            std::uint8_t* at = at_;
            for (const std::uint64_t value : block) {
                *at++ = static_cast<std::uint8_t>(value);
            }
            at_ = at;
        }
    }

    void le32(std::uint32_t value) { little_endian(value, 4); }
    void le64(std::uint64_t value) { little_endian(value, 8); }

    void bytes(std::span<const std::uint8_t> data) {
        reserve(data.size());
        if (data.empty()) return;
        std::memcpy(at_, data.data(), data.size());
        at_ += data.size();
    }

    /// A varint length, then the bytes.
    void blob(std::span<const std::uint8_t> data) {
        varint(data.size());
        bytes(data);
    }

    /// Appends the trailer, the CRC32C of every byte this writer wrote
    /// (le32 reserves its room), then trims.
    void seal() {
        le32(crc32c({out_.data() + start_, at_}));
        finish();
    }

    void finish() {
        out_.resize(static_cast<std::size_t>(at_ - out_.data()));
    }

private:
    void little_endian(std::uint64_t value, std::size_t width) {
        reserve(width);
        for (std::size_t i = 0; i < width; ++i) {
            *at_++ = static_cast<std::uint8_t>(value);
            value >>= 8;
        }
    }

    void reserve(std::size_t n) {
        if (static_cast<std::size_t>(end_ - at_) < n) grow(n);
    }

    void grow(std::size_t n) {
        const auto used = static_cast<std::size_t>(at_ - out_.data());
        const std::size_t room = start_ + 2 * (used - start_ + n);
        out_.resize(room);
        at_ = out_.data() + used;
        end_ = out_.data() + room;
    }

    std::vector<std::uint8_t>& out_;
    std::size_t start_;  ///< where this record begins in out_
    std::uint8_t* at_ = nullptr;
    std::uint8_t* end_ = nullptr;  ///< end of the room for the record
};

/// What a Reader found wrong. Each format maps a fault to its own
/// exception type and kind in the fail function it hands the Reader.
enum class Fault {
    truncated,        ///< input ended mid-value
    overlong_varint,  ///< varint encodes more than 64 bits
    count,            ///< declared count or length exceeds the bytes left
    trailing,         ///< bytes left after the last field
    checksum,         ///< trailer does not match the bytes it seals
    malformed,        ///< a field decodes but is out of its range
};

/// The one bounded decoder: a cursor over a span that never reads past
/// its end. Every failure goes, with its Fault, to `fail`, which the
/// format passes in and which must throw — so each decoder raises its own
/// exception type and kind directly.
template <typename Fail>
class Reader {
public:
    Reader(std::span<const std::uint8_t> input, Fail on_fail)
        : bytes_(input), fail_(on_fail) {}

    /// Bytes in view: the input, less the trailer once unseal()ed.
    std::size_t size() const noexcept { return bytes_.size(); }
    std::size_t offset() const noexcept { return at_; }
    std::size_t remaining() const noexcept { return bytes_.size() - at_; }

    /// The unread bytes, without consuming them.
    std::span<const std::uint8_t> rest() const noexcept {
        return bytes_.subspan(at_);
    }

    [[noreturn]] void fail(Fault fault, const char* what) const {
        fail_(fault, what);
        std::abort();  // a fail function throws; it cannot get here
    }

    /// Fails `truncated` unless at least `n` bytes remain.
    void need(std::size_t n, const char* what) const {
        if (remaining() < n) fail(Fault::truncated, what);
    }

    /// Drops the trailer from view and returns whether it matched every
    /// byte before it. Fails `truncated` below kTrailerBytes.
    bool strip_trailer() {
        need(kTrailerBytes, "input shorter than its checksum");
        const bool intact = trailer_matches(bytes_);
        bytes_ = bytes_.first(bytes_.size() - kTrailerBytes);
        return intact;
    }

    /// strip_trailer(), failing `checksum` on a mismatch.
    void unseal() {
        if (!strip_trailer()) fail(Fault::checksum, "checksum mismatch");
    }

    std::uint8_t u8() {
        need(1, "input ended mid-value");
        return bytes_[at_++];
    }

    std::uint32_t le32() {
        return static_cast<std::uint32_t>(little_endian(4));
    }
    std::uint64_t le64() { return little_endian(8); }

    /// One LEB128 varint. A lone byte below 0x80 decodes inline; the 10th
    /// byte of a longer one carries bit 63 only, so above 1 it fails
    /// `overlong_varint`.
    std::uint64_t varint() {
        if (at_ < bytes_.size() && bytes_[at_] < 0x80u) return bytes_[at_++];
        return long_varint(at_);
    }

    /// Fills `out` with varints. The cursor stays in locals, so the stores
    /// to `out` cannot alias it (the timestamp hot loop).
    void varints(std::span<std::uint64_t> out) {
        const std::uint8_t* const data = bytes_.data();
        const std::size_t size = bytes_.size();
        std::size_t at = at_;
        for (std::uint64_t& value : out) {
            if (at < size && data[at] < 0x80u) {
                value = data[at++];
                continue;
            }
            value = long_varint(at);
        }
        at_ = at;
    }

    /// `n` bytes, as a view into the input.
    std::span<const std::uint8_t> bytes(std::size_t n) {
        need(n, "input ended mid-value");
        const std::span<const std::uint8_t> out = bytes_.subspan(at_, n);
        at_ += n;
        return out;
    }

    /// A varint length (checked by count()), then that many bytes.
    std::span<const std::uint8_t> blob() { return bytes(count(varint())); }

    /// `declared`, unless the bytes left cannot hold that many items of
    /// at least `min_bytes` each: then fails `count`.
    std::size_t count(std::uint64_t declared,
                      std::size_t min_bytes = 1) const {
        if (declared > remaining() / min_bytes) {
            fail(Fault::count, "declared length exceeds the bytes left");
        }
        return static_cast<std::size_t>(declared);
    }

    /// Fails `trailing` unless every byte in view was read.
    void end() const {
        if (at_ != bytes_.size()) fail(Fault::trailing, "trailing bytes");
    }

private:
    std::uint64_t little_endian(std::size_t width) {
        const std::uint8_t* at = bytes(width).data();
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < width; ++i) {
            value |= static_cast<std::uint64_t>(at[i]) << (8 * i);
        }
        return value;
    }

    /// The varint at bytes_[at], advancing `at`. Bounded to ten bytes,
    /// so the compiler can unroll it.
    std::uint64_t long_varint(std::size_t& at) const {
        std::uint64_t value = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (at >= bytes_.size()) {
                fail(Fault::truncated, "truncated varint");
            }
            const std::uint8_t byte = bytes_[at++];
            if (shift == 63 && byte > 1) {
                fail(Fault::overlong_varint, "varint longer than 64 bits");
            }
            value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
            if ((byte & 0x80u) == 0) return value;
        }
        return value;  // not reached: the 10th byte returns or fails
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t at_ = 0;
    Fail fail_;
};

}  // namespace syncts::codec
