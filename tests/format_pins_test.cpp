#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "clocks/wire.hpp"
#include "common/codec.hpp"
#include "common/spill_store.hpp"
#include "graph/generators.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_sink.hpp"
#include "poset/streaming_closure.hpp"
#include "recover/snapshot.hpp"
#include "recover/wal.hpp"
#include "trace/trace_io.hpp"

/// Byte pins for every binary format (docs/FORMATS.md). Each test encodes
/// a small fixed value and compares it with an inline hex string, so an
/// encoder and its decoder cannot change a format together unnoticed (a
/// round trip would still pass). For each sealed format it also pins the
/// exception type and kind each kind of damage raises: a flipped body
/// bit, the last byte dropped, one byte appended, and a flipped magic
/// byte where the format has a magic.

namespace syncts {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t byte : bytes) {
        out.push_back(kDigits[byte >> 4]);
        out.push_back(kDigits[byte & 0xF]);
    }
    return out;
}

constexpr const char* kWireKinds[] = {
    "truncated",       "overlong_varint", "checksum_mismatch",
    "width_mismatch",  "length_mismatch", "trailing_bytes",
    "unsupported_version"};
constexpr const char* kRecoveryKinds[] = {
    "truncated", "bad_magic", "unsupported_version",
    "checksum_mismatch", "malformed", "log_gap"};
constexpr const char* kPostmortemCodes[] = {
    "bad_magic", "bad_version", "truncated",
    "trailing_bytes", "bad_checksum", "malformed"};
constexpr const char* kSpillKinds[] = {"io", "format", "checksum"};

/// What `decode` returned, or the exception type and kind it raised.
template <typename Decode>
std::string outcome(Decode&& decode) {
    try {
        return decode();
    } catch (const WireError& e) {
        return std::string("WireError/") +
               kWireKinds[static_cast<int>(e.kind())];
    } catch (const RecoveryError& e) {
        return std::string("RecoveryError/") +
               kRecoveryKinds[static_cast<int>(e.kind())];
    } catch (const obs::PostmortemError& e) {
        return std::string("PostmortemError/") +
               kPostmortemCodes[static_cast<int>(e.code())];
    } catch (const SpillError& e) {
        return std::string("SpillError/") +
               kSpillKinds[static_cast<int>(e.kind())];
    } catch (const std::invalid_argument&) {
        return "invalid_argument";
    }
}

/// The four damages, each reported as "name=outcome" (`decode` returns
/// what it read, so a reader without a checksum shows what it made of the
/// damage): a flipped bit in the last byte before the `trailer`-byte
/// checksum, the last byte dropped, a zero byte appended, and — when
/// `magic` — a flipped bit in the first byte.
template <typename Decode>
std::string damage(const std::vector<std::uint8_t>& bytes,
                   std::size_t trailer, bool magic, Decode&& decode) {
    const auto run = [&](const std::vector<std::uint8_t>& damaged) {
        return outcome([&] { return decode(damaged); });
    };
    std::vector<std::uint8_t> flipped = bytes;
    flipped[bytes.size() - trailer - 1] ^= 0x01;
    std::vector<std::uint8_t> dropped = bytes;
    dropped.pop_back();
    std::vector<std::uint8_t> appended = bytes;
    appended.push_back(0x00);
    std::string out = "flip=" + run(flipped) + " drop=" + run(dropped) +
                      " append=" + run(appended);
    if (magic) {
        std::vector<std::uint8_t> bad_magic = bytes;
        bad_magic[0] ^= 0x01;
        out += " magic=" + run(bad_magic);
    }
    return out;
}

TEST(FormatPins, BareTimestamp) {
    const VectorTimestamp stamp(
        std::vector<std::uint64_t>{0, 1, 127, 128, 300, ~std::uint64_t{0}});
    const std::vector<std::uint8_t> bytes = encode_timestamp(stamp);
    EXPECT_EQ(hex(bytes), "0600017f8001ac02ffffffffffffffffff01");
    EXPECT_EQ(decode_timestamp(bytes), stamp);
    EXPECT_EQ(damage(bytes, 0, false,
                     [](const auto& b) {
                         return decode_timestamp(b).to_string();
                     }),
              "flip=(0,1,127,128,300,9223372036854775807) "
              "drop=WireError/truncated append=WireError/trailing_bytes");
}

const std::vector<std::uint64_t> kStamp{3, 0, 300, 1};

/// "epoch/sequence/message stamp" of a decoded frame.
std::string describe(const FrameHeader& header,
                     std::span<const std::uint64_t> stamp) {
    return std::to_string(header.epoch) + "/" +
           std::to_string(header.sequence) + "/" +
           std::to_string(header.message) + " " +
           VectorTimestamp(stamp).to_string();
}

std::string decode_full(const std::vector<std::uint8_t>& bytes) {
    std::vector<std::uint64_t> out(kStamp.size());
    const FrameHeader header = decode_epoch_frame_into(bytes, out);
    return describe(header, out);
}

TEST(FormatPins, WireV1) {
    std::vector<std::uint8_t> bytes;
    encode_epoch_frame_into(0, 5, 200, kStamp, bytes);
    EXPECT_EQ(hex(bytes), "05c801040300ac02017a2b2976");
    EXPECT_EQ(decode_full(bytes), "0/5/200 (3,0,300,1)");
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, false,
                     decode_full),
              "flip=WireError/checksum_mismatch "
              "drop=WireError/checksum_mismatch "
              "append=WireError/checksum_mismatch");
}

TEST(FormatPins, WireV2) {
    std::vector<std::uint8_t> bytes;
    encode_epoch_frame_into(3, 129, 7, kStamp, bytes);
    EXPECT_EQ(hex(bytes), "000203810107040300ac0201dbeaf2bd");
    EXPECT_EQ(decode_full(bytes), "3/129/7 (3,0,300,1)");
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, false,
                     decode_full),
              "flip=WireError/checksum_mismatch "
              "drop=WireError/checksum_mismatch "
              "append=WireError/checksum_mismatch");
}

const std::vector<std::uint64_t> kBase{3, 0, 100, 1};

std::string decode_delta(const std::vector<std::uint8_t>& bytes) {
    std::vector<std::uint64_t> out(kBase.size());
    const FrameHeader header = decode_delta_frame_into(bytes, kBase, out);
    return describe(header, out);
}

TEST(FormatPins, WireV3) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(encode_delta_frame_into(2, 40, 9, kBase, kStamp, bytes));
    EXPECT_EQ(hex(bytes), "00030228090102c8010658a251");
    EXPECT_EQ(decode_delta(bytes), "2/40/9 (3,0,300,1)");
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, false,
                     decode_delta),
              "flip=WireError/checksum_mismatch "
              "drop=WireError/checksum_mismatch "
              "append=WireError/checksum_mismatch");
}

/// A v4 container's outer checksum is advisory: the outcome reports
/// intact() and the entries the reader yields.
std::string read_batch(const std::vector<std::uint8_t>& bytes) {
    BatchReader reader(bytes);
    std::string out = reader.intact() ? "intact" : "damaged";
    BatchFrame::Entry entry;
    while (reader.next(entry)) {
        out += " " + std::to_string(entry.kind) + ":" +
               std::to_string(entry.tag) + ":" + hex(entry.body);
    }
    return out;
}

TEST(FormatPins, WireV4) {
    std::vector<std::uint8_t> full;
    std::vector<std::uint8_t> delta;
    encode_epoch_frame_into(0, 5, 200, kStamp, full);
    ASSERT_TRUE(encode_delta_frame_into(2, 40, 9, kBase, kStamp, delta));
    BatchFrame batch;
    batch.add(0, 7, full);
    batch.add(1, 3, {});
    batch.add(2, 9, delta);
    ASSERT_TRUE(batch.supersede(1, 3));
    std::vector<std::uint8_t> bytes;
    batch.encode_batch_into(bytes);
    EXPECT_EQ(hex(bytes),
              "00040200070d05c801040300ac02017a2b297602090d00030228090102c8"
              "010658a25159d009e3");
    EXPECT_EQ(read_batch(bytes),
              "intact 0:7:05c801040300ac02017a2b2976 "
              "2:9:00030228090102c8010658a251");
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, false, read_batch),
              "flip=damaged 0:7:05c801040300ac02017a2b2976 "
              "2:9:00030228090102c8010658a250 "
              "drop=WireError/length_mismatch append=damaged "
              "0:7:05c801040300ac02017a2b2976 "
              "2:9:00030228090102c8010658a251");
}

TEST(FormatPins, WalRecord) {
    WalRecord record;
    record.type = WalRecordType::ack;
    record.lsn = 300;
    record.peer = 2;
    record.sequence = 64;
    record.message = 1000;
    record.epoch = 1;
    record.frame = {0x10, 0x20, 0x30};
    record.aux = {0x7F};
    std::vector<std::uint8_t> bytes{0xEE};  // encoders append
    encode_wal_record_into(record, bytes);
    EXPECT_EQ(hex(bytes), "eeac02030240e8070103102030017f90ae60e4");
    bytes.erase(bytes.begin());
    const WalRecord decoded = decode_wal_record(bytes);
    EXPECT_EQ(decoded.lsn, record.lsn);
    EXPECT_EQ(decoded.message, record.message);
    EXPECT_EQ(decoded.frame, record.frame);
    EXPECT_EQ(decoded.aux, record.aux);
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, false,
                     [](const auto& b) {
                         return std::to_string(decode_wal_record(b).lsn);
                     }),
              "flip=RecoveryError/checksum_mismatch "
              "drop=RecoveryError/checksum_mismatch "
              "append=RecoveryError/checksum_mismatch");
}

TEST(FormatPins, Snapshot) {
    Snapshot snapshot;
    snapshot.wal_lsn = 12;
    ProcessState& state = snapshot.state;
    state.self = 1;
    state.epoch = 2;
    state.cursor = 7;
    state.steps = 190;
    state.clock = {3, 0, 131};
    state.outstanding.active = true;
    state.outstanding.receiver = 2;
    state.outstanding.sequence = 5;
    state.outstanding.message = 9;
    state.outstanding.frame = {0xAA, 0xBB};
    OutChannelState out{2, 6, FrameWindow(2)};
    out.req_window.put(4, std::vector<std::uint8_t>{0x01});
    out.req_window.put(5, std::vector<std::uint8_t>{0x02, 0x03});
    state.out.push_back(out);
    state.in.push_back({0, 6, FrameWindow(3)});
    const std::vector<std::uint8_t> bytes = encode_snapshot(snapshot);
    EXPECT_EQ(hex(bytes),
              "5359534e010c010207be0103030083010102050902aabb01020602020401"
              "010502020301000603009e5a6908");
    const Snapshot decoded = decode_snapshot(bytes);
    EXPECT_EQ(decoded.state.clock, state.clock);
    EXPECT_EQ(decoded.state.outstanding.frame, state.outstanding.frame);
    EXPECT_EQ(decoded.state.out.at(0).req_window.size(), 2u);
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, true,
                     [](const auto& b) {
                         return std::to_string(decode_snapshot(b).wal_lsn);
                     }),
              "flip=RecoveryError/checksum_mismatch "
              "drop=RecoveryError/checksum_mismatch "
              "append=RecoveryError/checksum_mismatch "
              "magic=RecoveryError/checksum_mismatch");
}

obs::TraceEvent pin_event(std::uint64_t i) {
    obs::TraceEvent event;
    event.virtual_time = 1000 + i;
    event.logical = i;
    event.arg_a = 0x0102030405060708ull;
    event.arg_b = i * 3;
    event.process = static_cast<std::uint32_t>(i);
    event.peer = 0x01020304;
    event.kind = static_cast<obs::TraceEventKind>(i + 1);
    return event;
}

TEST(FormatPins, Postmortem) {
    obs::Postmortem post;
    post.reason = obs::PostmortemReason::crash;
    post.process = 1;
    post.step = 9;
    post.epoch = 2;
    post.frontier_epoch = 1;
    post.wal_lsn = 77;
    post.virtual_time = 4242;
    post.snapshots = 3;
    post.metrics.counters["commits"] = 31;
    post.metrics.gauges["bytes"] = -2;
    post.rates.counters["commits"] = 8;
    post.events.push_back(pin_event(0));
    std::vector<std::uint8_t> bytes{0xEE};  // encoders append
    obs::encode_postmortem_into(post, bytes);
    EXPECT_EQ(hex(bytes),
              "ee5359465201000000010100000009000000000000000200000000000000"
              "01000000000000004d000000000000009210000000000000030000000000"
              "0000010000000000000007000000636f6d6d6974731f0000000000000001"
              "00000000000000050000006279746573feffffffffffffff010000000000"
              "000007000000636f6d6d6974730800000000000000000000000000000001"
              "00000000000000e803000000000000000000000000000008070605040302"
              "0100000000000000000000000004030201017c18c6ec");
    bytes.erase(bytes.begin());
    EXPECT_EQ(obs::decode_postmortem(bytes), post);
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, true,
                     [](const auto& b) {
                         return std::to_string(
                             obs::decode_postmortem(b).events.size());
                     }),
              "flip=PostmortemError/bad_checksum "
              "drop=PostmortemError/bad_checksum "
              "append=PostmortemError/bad_checksum "
              "magic=PostmortemError/bad_magic");
}

TEST(FormatPins, TraceEventDump) {
    obs::TraceSink sink(4);
    sink.record(pin_event(0));
    sink.record(pin_event(1));
    std::vector<std::uint8_t> bytes{0xEE};  // write_binary replaces
    sink.write_binary(bytes);
    EXPECT_EQ(hex(bytes),
              "53594556010000000200000000000000e803000000000000000000000000"
              "000008070605040302010000000000000000000000000403020101e90300"
              "000000000001000000000000000807060504030201030000000000000001"
              "0000000403020102");
    EXPECT_EQ(obs::TraceSink::read_binary(bytes), sink.events());
    // No checksum: a flipped body bit decodes to a different event.
    EXPECT_EQ(damage(bytes, 0, true,
                     [](const auto& b) {
                         return std::to_string(
                             obs::TraceSink::read_binary(b).size());
                     }),
              "flip=2 drop=invalid_argument append=invalid_argument "
              "magic=invalid_argument");
}

std::uint64_t read_stream(std::span<const std::uint8_t> bytes) {
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size()));
    StreamingTraceReader reader(in);
    std::uint64_t events = 0;
    while (reader.next().has_value()) ++events;
    return events;
}

TEST(FormatPins, TraceStream) {
    std::ostringstream out;
    StreamingTraceWriter writer(out, topology::path(3), 2);
    writer.add_message(0, 1);
    writer.add_internal(2);
    writer.add_message(2, 1);
    writer.finish();
    const std::string text = out.str();
    const std::vector<std::uint8_t> bytes(text.begin(), text.end());
    EXPECT_EQ(hex(bytes),
              "535954520206000000030200010102bf3964b34306000000020000010102"
              "1e7578594304000000010002013fc6fe5a45010000000357e7aa2f");
    EXPECT_EQ(read_stream(bytes), 3u);
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, true,
                     [](const auto& b) {
                         return std::to_string(read_stream(b));
                     }),
              "flip=invalid_argument drop=invalid_argument append=3 "
              "magic=invalid_argument");
}

TEST(FormatPins, SpillChunk) {
    const std::vector<std::uint8_t> payload{1, 2, 3, 0xFF, 0x80};
    std::vector<std::uint8_t> bytes{0xEE};  // encode_chunk appends
    SpillStore::encode_chunk(300, payload, bytes);
    EXPECT_EQ(hex(bytes),
              "ee53595350012c010000000000000500000000000000010203ff809fd828"
              "0f");
    bytes.erase(bytes.begin());
    const auto decoded = SpillStore::decode_chunk(bytes, 300);
    EXPECT_EQ(std::vector<std::uint8_t>(decoded.begin(), decoded.end()),
              payload);
    EXPECT_EQ(damage(bytes, codec::kTrailerBytes, true,
                     [](const auto& b) {
                         return hex(SpillStore::decode_chunk(b, 300));
                     }),
              "flip=SpillError/checksum drop=SpillError/format "
              "append=SpillError/format magic=SpillError/format");
}

TEST(FormatPins, ClosureChunkPayload) {
    SpillStore store(::testing::TempDir() + "syncts_format_pins_closure");
    StreamingClosureOptions options;
    options.chunk_rows = 2;
    options.spill = &store;
    StreamingClosure closure(3, 0, options);
    (void)closure.ingest(0, 1);
    (void)closure.ingest(1, 2);
    (void)closure.ingest(2, 0);
    closure.finish();
    std::vector<std::uint8_t> first;
    std::vector<std::uint8_t> second;
    store.get(0, first);
    store.get(1, second);
    EXPECT_EQ(hex(first), "000000000000000002000000000000000100000000000000");
    EXPECT_EQ(hex(second), "020000000000000001000000000000000300000000000000");
    EXPECT_TRUE(closure.less(0, 1));
    EXPECT_TRUE(closure.less(0, 2));
    EXPECT_TRUE(closure.less(1, 2));
}

/// The single-bit flips of `bytes`, one at a time, whose outcome is not
/// `expected`, each as " bit <i>=<outcome>"; empty when all are.
template <typename Decode>
std::string flips_other_than(const std::vector<std::uint8_t>& bytes,
                             const std::string& expected, Decode&& decode) {
    std::string other;
    for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        const std::string got = outcome([&] { return decode(flipped); });
        if (got != expected) other += " bit " + std::to_string(bit) + "=" + got;
    }
    return other;
}

TEST(FormatPins, EverySingleBitFlipIsAChecksumMismatch) {
    // CRC32C catches every error burst of up to 32 bits, so one flipped
    // bit anywhere, trailer included, fails the checksum by construction.
    std::vector<std::uint64_t> stamp(128);
    for (std::size_t i = 0; i < stamp.size(); ++i) stamp[i] = i * 37 % 300;
    std::vector<std::uint8_t> frame;
    encode_epoch_frame_into(0, 5, 200, stamp, frame);
    ASSERT_GT(frame.size(), stamp.size());
    EXPECT_EQ(flips_other_than(frame, "WireError/checksum_mismatch",
                               [&](const auto& b) {
                                   std::vector<std::uint64_t> out(128);
                                   (void)decode_epoch_frame_into(b, out);
                                   return std::string("decoded");
                               }),
              "");

    WalRecord record;
    record.type = WalRecordType::send;
    record.lsn = 300;
    record.peer = 2;
    record.sequence = 5;
    record.message = 200;
    record.frame = frame;
    std::vector<std::uint8_t> wal;
    encode_wal_record_into(record, wal);
    EXPECT_EQ(flips_other_than(wal, "RecoveryError/checksum_mismatch",
                               [](const auto& b) {
                                   (void)decode_wal_record(b);
                                   return std::string("decoded");
                               }),
              "");

    Snapshot snapshot;
    snapshot.wal_lsn = 12;
    snapshot.state.clock = stamp;
    snapshot.state.outstanding.active = true;
    snapshot.state.outstanding.receiver = 2;
    snapshot.state.outstanding.sequence = 5;
    snapshot.state.outstanding.message = 200;
    snapshot.state.outstanding.frame = frame;
    EXPECT_EQ(flips_other_than(encode_snapshot(snapshot),
                               "RecoveryError/checksum_mismatch",
                               [](const auto& b) {
                                   (void)decode_snapshot(b);
                                   return std::string("decoded");
                               }),
              "");
}

std::vector<std::uint8_t> unhex(std::string_view text) {
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < text.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(
            std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
    }
    return out;
}

TEST(FormatPins, RecordsSealedBeforeCrc32cAreRejected) {
    // The pins above as they read while every sealed record ended in the
    // 8-byte hash trailer that CRC32C replaced, and the event dump's old
    // magic "SYTR". No reader has a second path for them: each rejects
    // them with its typed error (docs/FORMATS.md, Shared encoding).
    const std::vector<std::uint8_t> v1 =
        unhex("05c801040300ac02010701daad7412c801");
    const std::vector<std::uint8_t> v3 =
        unhex("00030228090102c801f5d15d9e3b243b7d");
    EXPECT_EQ(outcome([&] { return decode_full(v1); }),
              "WireError/checksum_mismatch");
    EXPECT_EQ(outcome([] {
                  return decode_full(
                      unhex("000203810107040300ac0201aba4cff4fda46564"));
              }),
              "WireError/checksum_mismatch");
    EXPECT_EQ(outcome([&] { return decode_delta(v3); }),
              "WireError/checksum_mismatch");

    // A v4 container fails its advisory checksum, and every entry frame
    // fails its own.
    const std::vector<std::uint8_t> v4 = unhex(
        "00040200071105c801040300ac02010701daad7412c80102091100030228"
        "090102c801f5d15d9e3b243b7dad712edfd7e19586");
    BatchReader reader(v4);
    EXPECT_FALSE(reader.intact());
    BatchFrame::Entry entry;
    std::size_t entries = 0;
    while (reader.next(entry)) {
        const std::vector<std::uint8_t> body(entry.body.begin(),
                                             entry.body.end());
        EXPECT_EQ(outcome([&] {
                      return entry.kind == 0 ? decode_full(body)
                                             : decode_delta(body);
                  }),
                  "WireError/checksum_mismatch");
        ++entries;
    }
    EXPECT_EQ(entries, 2u);

    EXPECT_EQ(outcome([] {
                  return std::to_string(
                      decode_wal_record(
                          unhex("ac02030240e8070103102030017f49cd5c98f92da4fe"))
                          .lsn);
              }),
              "RecoveryError/checksum_mismatch");
    EXPECT_EQ(outcome([] {
                  return std::to_string(
                      decode_snapshot(
                          unhex("5359534e010c010207be0103030083010102050902aabb"
                                "0102060202040101050202030100060300e59f3143d0"
                                "1a2305"))
                          .wal_lsn);
              }),
              "RecoveryError/checksum_mismatch");
    EXPECT_EQ(outcome([] {
                  return std::to_string(
                      obs::decode_postmortem(
                          unhex("53594652010000000101000000090000000000000002"
                                "0000000000000001000000000000004d000000000000"
                                "00921000000000000003000000000000000100000000"
                                "00000007000000636f6d6d6974731f00000000000000"
                                "0100000000000000050000006279746573feffffffff"
                                "ffffff010000000000000007000000636f6d6d697473"
                                "08000000000000000000000000000000010000000000"
                                "0000e803000000000000000000000000000008070605"
                                "04030201000000000000000000000000040302010110"
                                "651f50d0fe77d4"))
                          .events.size());
              }),
              "PostmortemError/bad_checksum");
    EXPECT_EQ(outcome([] {
                  return std::to_string(read_stream(unhex(
                      "53595452020600000003020001010250570f2a1bef3c93430600"
                      "00000200000101024ec1bc5649ceb41a430400000001000201a2"
                      "c1d561292ae36f450100000003768ca57de1f83cbb")));
              }),
              "invalid_argument");
    EXPECT_EQ(outcome([] {
                  return hex(SpillStore::decode_chunk(
                      unhex("53595350012c010000000000000500000000000000010203"
                            "ff804e7daba6737ff0ae"),
                      300));
              }),
              "SpillError/format");
    EXPECT_EQ(outcome([] {
                  return std::to_string(
                      obs::TraceSink::read_binary(
                          unhex("53595452010000000200000000000000e80300000000"
                                "00000000000000000000080706050403020100000000"
                                "00000000000000000403020101e90300000000000001"
                                "00000000000000080706050403020103000000000000"
                                "00010000000403020102"))
                          .size());
              }),
              "invalid_argument");
}

TEST(FormatPins, EventDumpAndTraceStreamRejectEachOther) {
    obs::TraceSink sink(4);
    sink.record(pin_event(0));
    std::vector<std::uint8_t> dump;
    sink.write_binary(dump);
    std::istringstream dump_in(std::string(dump.begin(), dump.end()));
    EXPECT_THROW((void)read_binary_computation(dump_in),
                 std::invalid_argument);

    std::ostringstream out;
    StreamingTraceWriter writer(out, topology::path(3), 2);
    writer.add_message(0, 1);
    writer.finish();
    const std::string text = out.str();
    EXPECT_THROW((void)obs::TraceSink::read_binary(
                     std::vector<std::uint8_t>(text.begin(), text.end())),
                 std::invalid_argument);
}

}  // namespace
}  // namespace syncts
