#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "clocks/wire.hpp"
#include "common/codec.hpp"
#include "recover/wal.hpp"
#include "test_util.hpp"

/// The shared byte codec (common/codec.hpp): its writer and bounded
/// reader, and the 10th-varint-byte rule every format inherits from it.

namespace syncts {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// Nine continuation bytes, then `last`: the longest varint encoding.
std::vector<std::uint8_t> ten_byte_varint(std::uint8_t last) {
    std::vector<std::uint8_t> bytes(9, 0xFF);
    bytes.push_back(last);
    return bytes;
}

TEST(Codec, VarintsRoundTripAtEveryLength) {
    std::vector<std::uint64_t> values{0, kMax};
    for (unsigned shift = 7; shift < 64; shift += 7) {
        values.push_back((std::uint64_t{1} << shift) - 1);
        values.push_back(std::uint64_t{1} << shift);
    }
    std::vector<std::uint8_t> bytes;
    std::size_t expected_size = 0;
    codec::Writer writer(bytes, 0);  // every write grows the buffer
    for (const std::uint64_t value : values) {
        writer.varint(value);
        expected_size += codec::varint_size(value);
    }
    writer.finish();
    EXPECT_EQ(bytes.size(), expected_size);
    WireReader in(bytes, throw_wire_error);
    for (const std::uint64_t value : values) EXPECT_EQ(in.varint(), value);
    in.end();
}

TEST(Codec, TenthVarintByteCarriesBitSixtyThreeOnly) {
    const auto decode = [](const std::vector<std::uint8_t>& bytes) {
        WireReader in(bytes, throw_wire_error);
        return in.varint();
    };
    EXPECT_EQ(decode(ten_byte_varint(0x01)), kMax);
    EXPECT_EQ(decode(ten_byte_varint(0x00)), kMax >> 1);
    for (const std::uint8_t last :
         std::vector<std::uint8_t>{0x02, 0x7F, 0x80, 0xFF}) {
        try {
            (void)decode(ten_byte_varint(last));
            FAIL() << "10th byte " << int{last} << " decoded";
        } catch (const WireError& e) {
            EXPECT_EQ(e.kind(), WireError::Kind::overlong_varint);
        }
    }
    try {
        (void)decode(std::vector<std::uint8_t>(5, 0x80));
        FAIL() << "truncated varint decoded";
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::truncated);
    }
}

TEST(Codec, OverflowingFrameSequenceIsOverlong) {
    // A checksum-valid v1 frame whose sequence varint sets bits past 63.
    std::vector<std::uint8_t> body = ten_byte_varint(0x7F);
    const std::vector<std::uint8_t> rest{2, 1, 5};  // message, width, stamp
    body.insert(body.end(), rest.begin(), rest.end());
    try {
        (void)peek_frame_info(testing::sealed(body));
        FAIL() << "overflowing sequence decoded";
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::overlong_varint);
    }
    // The largest sequence still decodes.
    body = ten_byte_varint(0x01);
    body.insert(body.end(), rest.begin(), rest.end());
    EXPECT_EQ(peek_frame_info(testing::sealed(body)).header.sequence, kMax);
}

TEST(Codec, OverflowingWalLsnIsRejected) {
    WalRecord record;
    record.lsn = kMax;
    std::vector<std::uint8_t> bytes;
    encode_wal_record_into(record, bytes);
    EXPECT_EQ(decode_wal_record(bytes).lsn, kMax);
    // The same record with the LSN's 10th byte 0x7F instead of 0x01.
    bytes.resize(bytes.size() - codec::kTrailerBytes);
    ASSERT_EQ(bytes[9], 0x01);
    bytes[9] = 0x7F;
    EXPECT_THROW((void)decode_wal_record(testing::sealed(bytes)),
                 RecoveryError);
}

TEST(Codec, SealedWriterAppendsAndFoldsTheTrailer) {
    std::vector<std::uint8_t> out{0xAA, 0xBB};  // kept: writers append
    codec::Writer writer(out, 1);               // too small: must grow
    writer.byte(0x01);
    writer.le32(0x05040302);
    writer.le64(0x0D0C0B0A09080706);
    writer.blob(std::vector<std::uint8_t>{0x0E, 0x0F});
    writer.seal();
    const std::vector<std::uint8_t> body{0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                         0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C,
                                         0x0D, 0x02, 0x0E, 0x0F};
    // The trailer is the little-endian CRC32C of this record's bytes only.
    const std::uint32_t crc = codec::crc32c_portable(body);
    std::vector<std::uint8_t> expected{0xAA, 0xBB};
    expected.insert(expected.end(), body.begin(), body.end());
    for (std::size_t i = 0; i < codec::kTrailerBytes; ++i) {
        expected.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    EXPECT_EQ(out, expected);
    EXPECT_TRUE(codec::trailer_matches(std::span(out).subspan(2)));
}

TEST(Codec, BulkVarintsMatchOneAtATime) {
    // Runs of one-byte values broken by longer ones, at every length up
    // to past four blocks, into a buffer with room and one that must grow.
    Rng rng(4242);
    for (std::size_t length = 0; length <= 70; ++length) {
        for (const std::size_t hint : {std::size_t{0}, 2 * length + 8}) {
            std::vector<std::uint64_t> values(length);
            for (std::uint64_t& value : values) {
                value = rng.below(8) == 0 ? rng() >> rng.below(64)
                                          : rng.below(0x80);
            }
            std::vector<std::uint8_t> bulk{0xEE};
            codec::Writer writer(bulk, hint);
            writer.varints(values);
            writer.finish();
            std::vector<std::uint8_t> single{0xEE};
            codec::Writer one(single, 0);
            for (const std::uint64_t value : values) one.varint(value);
            one.finish();
            ASSERT_EQ(bulk, single) << "length " << length << " hint " << hint;
        }
    }
}

TEST(Codec, ReaderStaysInBoundsAndRoutesEveryFault) {
    const std::vector<std::uint8_t> body{0x03, 0xAA, 0xBB, 0xCC, 0x01};
    const std::vector<std::uint8_t> sealed = testing::sealed(body);
    const auto kind_of = [&](auto&& read) {
        WireReader in(sealed, throw_wire_error);
        in.unseal();
        try {
            read(in);
        } catch (const WireError& e) {
            return e.kind();
        }
        ADD_FAILURE() << "read did not fail";
        return WireError::Kind::unsupported_version;
    };
    WireReader in(sealed, throw_wire_error);
    in.unseal();
    EXPECT_EQ(in.size(), body.size());
    const std::span<const std::uint8_t> blob = in.blob();
    EXPECT_EQ(std::vector<std::uint8_t>(blob.begin(), blob.end()),
              (std::vector<std::uint8_t>{0xAA, 0xBB, 0xCC}));
    EXPECT_EQ(in.u8(), 0x01);
    in.end();
    EXPECT_EQ(kind_of([](WireReader& r) { (void)r.bytes(6); }),
              WireError::Kind::truncated);
    EXPECT_EQ(kind_of([](WireReader& r) { (void)r.le64(); }),
              WireError::Kind::truncated);
    EXPECT_EQ(kind_of([](WireReader& r) { (void)r.count(3, 2); }),
              WireError::Kind::length_mismatch);
    EXPECT_EQ(kind_of([](WireReader& r) { r.end(); }),
              WireError::Kind::trailing_bytes);
    std::vector<std::uint8_t> damaged = sealed;
    damaged[0] ^= 0x01;
    WireReader bad(damaged, throw_wire_error);
    EXPECT_FALSE(bad.strip_trailer());
    WireReader worse(damaged, throw_wire_error);
    try {
        worse.unseal();
        FAIL() << "damaged trailer verified";
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::checksum_mismatch);
    }
}

}  // namespace
}  // namespace syncts
