#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>

#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "common/rng.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "trace/generator.hpp"

namespace syncts {
namespace {

TEST(Varint, SmallValuesAreOneByte) {
    const std::vector<std::uint8_t> out = testing::varints({0, 1, 127});
    EXPECT_EQ(out.size(), 3u);
    WireReader in(out, throw_wire_error);
    EXPECT_EQ(in.varint(), 0u);
    EXPECT_EQ(in.varint(), 1u);
    EXPECT_EQ(in.varint(), 127u);
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(Varint, BoundaryValuesRoundTrip) {
    for (const std::uint64_t value :
         {0ull, 127ull, 128ull, 16383ull, 16384ull, 0xFFFFFFFFull,
          0xFFFFFFFFFFFFFFFFull}) {
        const std::vector<std::uint8_t> out = testing::varints({value});
        WireReader in(out, throw_wire_error);
        EXPECT_EQ(in.varint(), value);
        EXPECT_EQ(in.remaining(), 0u);
    }
}

TEST(Varint, TruncatedInputRejected) {
    std::vector<std::uint8_t> out = testing::varints({300});
    out.pop_back();
    WireReader in(out, throw_wire_error);
    EXPECT_THROW(in.varint(), std::invalid_argument);
}

TEST(Varint, OverlongInputRejected) {
    const std::vector<std::uint8_t> bytes(11, 0x80);
    WireReader in(bytes, throw_wire_error);
    EXPECT_THROW(in.varint(), std::invalid_argument);
}

TEST(TimestampWire, RoundTrip) {
    const VectorTimestamp stamp(
        std::vector<std::uint64_t>{0, 1, 127, 128, 1'000'000});
    const auto bytes = encode_timestamp(stamp);
    EXPECT_EQ(bytes.size(), encoded_size(stamp));
    EXPECT_EQ(decode_timestamp(bytes), stamp);
}

TEST(TimestampWire, EmptyTimestamp) {
    const VectorTimestamp stamp(0);
    const auto bytes = encode_timestamp(stamp);
    EXPECT_EQ(bytes.size(), 1u);
    EXPECT_EQ(decode_timestamp(bytes), stamp);
}

TEST(TimestampWire, MalformedInputs) {
    EXPECT_THROW(decode_timestamp({}), std::invalid_argument);
    // Claims width 5 with no component bytes.
    const std::vector<std::uint8_t> lying{5};
    EXPECT_THROW(decode_timestamp(lying), std::invalid_argument);
    // Trailing garbage after a valid stamp.
    auto bytes = encode_timestamp(VectorTimestamp(2));
    bytes.push_back(0);
    EXPECT_THROW(decode_timestamp(bytes), std::invalid_argument);
}

TEST(TimestampWire, FreshClocksCostWidthPlusOneBytes) {
    // The practical O(d) claim: a fresh width-4 clock costs 5 bytes.
    EXPECT_EQ(encoded_size(VectorTimestamp(4)), 5u);
    EXPECT_EQ(encoded_size(VectorTimestamp(64)), 65u);
}

TEST(TimestampWire, ExpectedWidthOverloadRejectsWrongWidth) {
    const VectorTimestamp stamp(std::vector<std::uint64_t>{3, 1, 4});
    const auto bytes = encode_timestamp(stamp);
    EXPECT_EQ(decode_timestamp(bytes, 3), stamp);
    // Width is validated against the decomposition size d before any
    // component is decoded or allocated.
    for (const std::size_t wrong : {0u, 2u, 4u, 1'000'000u}) {
        try {
            decode_timestamp(bytes, wrong);
            FAIL() << "width " << wrong << " accepted";
        } catch (const WireError& e) {
            EXPECT_EQ(e.kind(), WireError::Kind::width_mismatch);
        }
    }
}

TEST(TimestampWire, TypedErrorsCarryTheirKind) {
    try {
        decode_timestamp({});
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::truncated);
    }
    const std::vector<std::uint8_t> lying{5};
    try {
        decode_timestamp(lying);
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::length_mismatch);
    }
    auto trailing = encode_timestamp(VectorTimestamp(2));
    trailing.push_back(0);
    try {
        decode_timestamp(trailing);
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::trailing_bytes);
    }
}

/// RFC 3720 §B.4's CRC32C vectors plus the standard check value, for one
/// body.
template <typename Body>
void expect_crc32c_vectors(Body&& crc) {
    std::vector<std::uint8_t> ascending(32);
    for (std::size_t i = 0; i < ascending.size(); ++i) {
        ascending[i] = static_cast<std::uint8_t>(i);
    }
    const std::vector<std::uint8_t> descending(ascending.rbegin(),
                                               ascending.rend());
    const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5',
                                          '6', '7', '8', '9'};
    EXPECT_EQ(crc(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
    EXPECT_EQ(crc(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending), 0x46DD794Eu);
    EXPECT_EQ(crc(descending), 0x113FDB5Cu);
    EXPECT_EQ(crc(check), 0xE3069283u);
    EXPECT_EQ(crc(std::vector<std::uint8_t>{}), 0u);
}

TEST(Checksum, Crc32cKnownVectors) {
    expect_crc32c_vectors([](std::span<const std::uint8_t> b) {
        return codec::crc32c_portable(b);
    });
    expect_crc32c_vectors(
        [](std::span<const std::uint8_t> b) { return codec::crc32c(b); });
#if defined(SYNCTS_CRC32C_SSE42)
    if (!codec::sse42_available()) GTEST_SKIP() << "host has no SSE4.2";
    expect_crc32c_vectors(
        [](std::span<const std::uint8_t> b) { return codec::crc32c_sse42(b); });
#else
    GTEST_SKIP() << "SSE4.2 body not built for this target";
#endif
}

TEST(Checksum, Crc32cBodiesAgreeAtEveryLengthAndOffset) {
#if defined(SYNCTS_CRC32C_SSE42)
    if (!codec::sse42_available()) GTEST_SKIP() << "host has no SSE4.2";
    Rng rng(7321);
    std::vector<std::uint8_t> buffer(512 + 8);
    for (std::uint8_t& byte : buffer) {
        byte = static_cast<std::uint8_t>(rng.below(256));
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 512; ++length) {
            const std::span<const std::uint8_t> bytes(buffer.data() + offset,
                                                      length);
            ASSERT_EQ(codec::crc32c_sse42(bytes), codec::crc32c_portable(bytes))
                << "offset " << offset << " length " << length;
        }
    }
#else
    GTEST_SKIP() << "SSE4.2 body not built for this target";
#endif
}

/// An epoch-0 frame — the v1 layout — as the tests below build and
/// compare it.
struct V1Frame {
    std::uint64_t sequence = 0;
    std::uint64_t message = 0;
    std::vector<std::uint64_t> stamp;

    friend bool operator==(const V1Frame&, const V1Frame&) = default;
};

std::vector<std::uint8_t> encode_v1(const V1Frame& frame) {
    std::vector<std::uint8_t> out;
    encode_epoch_frame_into(0, frame.sequence, frame.message, frame.stamp,
                            out);
    return out;
}

V1Frame decode_v1(std::span<const std::uint8_t> bytes,
                  std::size_t expected_width) {
    V1Frame frame;
    frame.stamp.resize(expected_width);
    const FrameHeader header = decode_epoch_frame_into(bytes, frame.stamp);
    EXPECT_EQ(header.epoch, 0u);
    frame.sequence = header.sequence;
    frame.message = header.message;
    return frame;
}

TEST(SyncFrameWire, RoundTrip) {
    const V1Frame frame{.sequence = 1234, .message = 9, .stamp = {7, 0, 300}};
    const auto bytes = encode_v1(frame);
    EXPECT_EQ(decode_v1(bytes, 3), frame);
}

TEST(SyncFrameWire, EveryByteFlipIsDetected) {
    const V1Frame frame{.sequence = 2, .message = 5, .stamp = {1, 130}};
    const auto bytes = encode_v1(frame);
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto corrupted = bytes;
            corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(decode_v1(corrupted, 2), WireError)
                << "byte " << byte << " bit " << bit;
        }
    }
}

TEST(SyncFrameWire, TruncationAndExtensionAreDetected) {
    const V1Frame frame{.sequence = 3, .message = 1, .stamp = {42}};
    const auto bytes = encode_v1(frame);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_THROW(decode_v1(cut, 1), WireError) << "kept " << keep;
    }
    auto extended = bytes;
    extended.push_back(0x00);
    EXPECT_THROW(decode_v1(extended, 1), WireError);
}

TEST(SyncFrameWire, WidthMismatchRejectedBeforeComponents) {
    const V1Frame frame{.sequence = 1, .message = 0, .stamp = {5, 6}};
    const auto bytes = encode_v1(frame);
    try {
        decode_v1(bytes, 3);
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::width_mismatch);
    }
}

// A payload with exactly one byte per component takes the decoder's
// one-byte fast path; a continuation bit inside it (a checksum-valid
// hostile frame) must still be rejected exactly as the general loop
// rejects it.
TEST(SyncFrameWire, ContinuationBitInOneBytePerComponentPayloadIsRejected) {
    const std::vector<std::uint8_t> bytes =
        testing::sealed({1, 0, 3, 0x81, 0x01, 0x05});
    std::vector<std::uint64_t> stamp(3);
    try {
        decode_epoch_frame_into(bytes, stamp);
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::truncated);
    }
    const std::vector<std::uint8_t> valid =
        testing::sealed({1, 0, 3, 0x7F, 0x01, 0x05});
    EXPECT_EQ(decode_epoch_frame_into(valid, stamp).sequence, 1u);
    EXPECT_EQ(stamp, (std::vector<std::uint64_t>{0x7F, 0x01, 0x05}));
}

TEST(SyncFrameWire, RealWorkloadFramesRoundTrip) {
    const Graph g = topology::client_server(2, 5);
    const SyncSystem system{Graph(g)};
    Rng rng(4242);
    WorkloadOptions options;
    options.num_messages = 150;
    const SyncComputation c = random_computation(g, options, rng);
    auto timestamper = system.make_timestamper();
    std::uint64_t sequence = 0;
    for (const SyncMessage& m : c.messages()) {
        const VectorTimestamp stamp =
            timestamper.timestamp_message(m.sender, m.receiver);
        const V1Frame frame{
            .sequence = ++sequence,
            .message = m.id,
            .stamp = {stamp.components().begin(), stamp.components().end()}};
        const auto bytes = encode_v1(frame);
        EXPECT_EQ(decode_v1(bytes, frame.stamp.size()), frame);
    }
}

// The single-pass encoders must emit exactly the bytes of the format
// definition: varints written one after another, then the CRC32C
// trailer. The references here write each field with its own varint call
// and seal the result separately, so a change to the frame encoders'
// layout or to the writer's bulk varint path still fails this test (the
// bytes themselves are pinned in format_pins_test).
namespace reference {

void append(std::vector<std::uint8_t>& out,
            const std::vector<std::uint8_t>& bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> full_frame(EpochId epoch, std::uint64_t sequence,
                                     std::uint64_t message,
                                     std::span<const std::uint64_t> stamp) {
    std::vector<std::uint8_t> out;
    if (epoch != 0) {
        out.push_back(kEpochFrameMarker);
        append(out, testing::varints({kEpochFrameVersion, epoch}));
    }
    append(out, testing::varints({sequence, message, stamp.size()}));
    for (const std::uint64_t component : stamp) {
        append(out, testing::varints({component}));
    }
    return testing::sealed(out);
}

std::vector<std::uint8_t> delta_frame(EpochId epoch, std::uint64_t sequence,
                                      std::uint64_t message,
                                      std::span<const std::uint64_t> base,
                                      std::span<const std::uint64_t> stamp) {
    std::vector<std::uint8_t> pairs;
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < stamp.size(); ++i) {
        if (stamp[i] == base[i]) continue;
        ++count;
        append(pairs, testing::varints({i, stamp[i] - base[i]}));
    }
    std::vector<std::uint8_t> out{kEpochFrameMarker};
    append(out, testing::varints(
                    {kDeltaFrameVersion, epoch, sequence, message, count}));
    append(out, pairs);
    return testing::sealed(out);
}

}  // namespace reference

/// A value whose varint takes 1, 2, 3 or 10 bytes (UINT64_MAX included).
std::uint64_t value_of_varint_size(Rng& rng) {
    switch (rng.below(5)) {
        case 0: return rng.below(0x80);
        case 1: return 0x80 + rng.below(0x4000 - 0x80);
        case 2: return 0x4000 + rng.below((1u << 21) - 0x4000);
        case 3: return std::numeric_limits<std::uint64_t>::max();
        default: return (1ull << 63) + rng.below(1ull << 63);
    }
}

/// `out` pre-filled with garbage longer than any frame it will receive.
std::vector<std::uint8_t> garbage_buffer(Rng& rng) {
    std::vector<std::uint8_t> out(1024 + rng.below(512));
    for (std::uint8_t& byte : out) {
        byte = static_cast<std::uint8_t>(rng.below(256));
    }
    return out;
}

TEST(SyncFrameWire, EncodersEmitTheVarintReferenceBytes) {
    const EpochId epochs[] = {0, 1, std::numeric_limits<EpochId>::max()};
    Rng rng(0xB17E5);
    for (int frame = 0; frame < 500; ++frame) {
        const std::size_t width = static_cast<std::size_t>(frame % 65);
        const EpochId epoch = epochs[rng.below(3)];
        const std::uint64_t sequence = std::max<std::uint64_t>(
            value_of_varint_size(rng), 1);
        const std::uint64_t message = value_of_varint_size(rng);
        std::vector<std::uint64_t> stamp(width);
        std::vector<std::uint64_t> base(width);
        for (std::size_t i = 0; i < width; ++i) {
            stamp[i] = value_of_varint_size(rng);
            // The delta base: equal, or below by an increment of any size.
            const std::uint64_t increment =
                rng.below(3) == 0 ? 0 : value_of_varint_size(rng);
            base[i] = stamp[i] - std::min(increment, stamp[i]);
        }
        SCOPED_TRACE(::testing::Message() << "frame " << frame << " width "
                                        << width << " epoch " << epoch);

        std::vector<std::uint8_t> out = garbage_buffer(rng);
        encode_epoch_frame_into(0, sequence, message, stamp, out);
        EXPECT_EQ(out, reference::full_frame(0, sequence, message, stamp));

        out = garbage_buffer(rng);
        encode_epoch_frame_into(epoch, sequence, message, stamp, out);
        EXPECT_EQ(out, reference::full_frame(epoch, sequence, message, stamp));

        out = garbage_buffer(rng);
        ASSERT_TRUE(encode_delta_frame_into(epoch, sequence, message, base,
                                            stamp, out));
        EXPECT_EQ(out, reference::delta_frame(epoch, sequence, message, base,
                                              stamp));
    }
}

TEST(TimestampWire, RealWorkloadRoundTrips) {
    const Graph g = topology::client_server(3, 9);
    const SyncSystem system{Graph(g)};
    Rng rng(909);
    WorkloadOptions options;
    options.num_messages = 300;
    const SyncComputation c = random_computation(g, options, rng);
    auto timestamper = system.make_timestamper();
    std::size_t total_bytes = 0;
    for (const SyncMessage& m : c.messages()) {
        const VectorTimestamp stamp =
            timestamper.timestamp_message(m.sender, m.receiver);
        const auto bytes = encode_timestamp(stamp);
        total_bytes += bytes.size();
        EXPECT_EQ(decode_timestamp(bytes), stamp);
    }
    // 300 messages over d=3: varints keep the piggyback close to d+1
    // bytes even as counters grow into the hundreds (2-byte varints).
    EXPECT_LT(total_bytes, 300u * (2 * 3 + 1));
}

}  // namespace
}  // namespace syncts
