#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"
#include "common/spill_store.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/decomp_io.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_sink.hpp"
#include "recover/snapshot.hpp"
#include "recover/wal.hpp"
#include "test_util.hpp"
#include "trace/trace_io.hpp"

/// Robustness fuzzing for every parser: random byte soup and damaged valid
/// inputs must either parse or throw the parser's typed error — never
/// crash, hang, or corrupt. The binary codecs share one damage harness;
/// each test keeps the seed and trial count its inputs were recorded
/// with. (Deterministic seeds; these run in milliseconds.)

namespace syncts {
namespace {

std::string random_text(Rng& rng, std::size_t length) {
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789 \n-e.smt";
    std::string text;
    text.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
        text.push_back(
            kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
    }
    return text;
}

template <typename Parser>
void expect_no_crash(Parser&& parser, const std::string& input) {
    try {
        parser(input);
    } catch (const std::invalid_argument&) {
        // expected for malformed input
    }
}

TEST(FuzzParsers, TraceRandomSoup) {
    Rng rng(5001);
    for (int trial = 0; trial < 300; ++trial) {
        expect_no_crash([](const std::string& s) { parse_computation(s); },
                        random_text(rng, 10 + rng.below(150)));
    }
    // Random soup behind a valid header.
    for (int trial = 0; trial < 300; ++trial) {
        expect_no_crash([](const std::string& s) { parse_computation(s); },
                        "syncts-trace 1\n" + random_text(rng, 120));
    }
}

TEST(FuzzParsers, TraceMutatedValidInput) {
    const SyncComputation original = testing::random_workload(
        topology::client_server(2, 3), 40, 0.5, 5002);
    const std::string valid = serialize_computation(original);
    Rng rng(5003);
    for (int trial = 0; trial < 400; ++trial) {
        std::string mutated = valid;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] = static_cast<char>('0' + rng.below(10));
                    break;
                case 1: mutated.erase(pos, 1); break;
                default: mutated.insert(pos, 1, 'x'); break;
            }
        }
        expect_no_crash(
            [](const std::string& s) { parse_computation(s); }, mutated);
    }
}

TEST(FuzzParsers, DecompositionRandomSoupAndMutations) {
    Rng rng(5004);
    for (int trial = 0; trial < 300; ++trial) {
        expect_no_crash(
            [](const std::string& s) { parse_decomposition(s); },
            "syncts-decomp 1\n" + random_text(rng, 120));
    }
    const std::string valid = serialize_decomposition(
        default_decomposition(topology::complete(5)));
    for (int trial = 0; trial < 400; ++trial) {
        std::string mutated = valid;
        const std::size_t pos = rng.below(mutated.size());
        mutated[pos] = static_cast<char>('0' + rng.below(10));
        expect_no_crash(
            [](const std::string& s) { parse_decomposition(s); }, mutated);
    }
}

// ---- The damage harness over every binary codec ------------------------

/// One binary codec under damage: a valid sample, and `accepts`, which
/// decodes bytes and returns false when the codec's own exception type
/// rejected them (any other exception fails the test). What an accepted
/// input must satisfy — for a sealed format, that it is the sample — the
/// codec's check asserts.
struct Codec {
    std::vector<std::uint8_t> sample;
    std::function<bool(std::span<const std::uint8_t>)> accepts;
};

template <typename Error, typename Check>
Codec make_codec(std::vector<std::uint8_t> sample, Check check) {
    return {std::move(sample), [check](std::span<const std::uint8_t> bytes) {
                try {
                    check(bytes);
                    return true;
                } catch (const Error&) {
                    return false;
                }
            }};
}

/// Random soup: `prefix`, then `min` plus below(`range`) random bytes.
std::vector<std::uint8_t> soup(Rng& rng, std::size_t range,
                               std::vector<std::uint8_t> prefix = {},
                               std::size_t min = 0) {
    const std::size_t length = min + rng.below(range);
    for (std::size_t i = 0; i < length; ++i) {
        prefix.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
    return prefix;
}

/// 1–4 random edits — a flipped bit, an erased byte or an inserted random
/// byte each — drawn in the order every recorded seed assumes.
void edit(Rng& rng, std::vector<std::uint8_t>& bytes) {
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t pos = rng.below(bytes.size());
        const auto at = bytes.begin() + static_cast<long>(pos);
        switch (rng.below(3)) {
            case 0:
                bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
                break;
            case 1: bytes.erase(at); break;
            default:
                bytes.insert(at, static_cast<std::uint8_t>(rng.below(256)));
                break;
        }
    }
}

/// One flipped bit.
void flip(Rng& rng, std::vector<std::uint8_t>& bytes) {
    const std::size_t pos = rng.below(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
}

/// How many of `trials` soups (see soup()) `codec` rejected.
std::uint64_t rejected_soups(const Codec& codec, Rng& rng, int trials,
                             std::size_t range,
                             const std::vector<std::uint8_t>& prefix = {},
                             std::size_t min = 0) {
    std::uint64_t rejected = 0;
    for (int trial = 0; trial < trials; ++trial) {
        if (!codec.accepts(soup(rng, range, prefix, min))) ++rejected;
    }
    return rejected;
}

/// How many of the sample's strict prefixes, and of the sample with
/// `appended` added, `codec` rejected: sample.size() + 1 rejects them all.
std::uint64_t rejected_cuts(const Codec& codec, std::uint8_t appended) {
    std::uint64_t rejected = 0;
    for (std::size_t cut = 0; cut < codec.sample.size(); ++cut) {
        SCOPED_TRACE(::testing::Message() << "cut " << cut);
        if (!codec.accepts({codec.sample.data(), cut})) ++rejected;
    }
    std::vector<std::uint8_t> extended = codec.sample;
    extended.push_back(appended);
    if (!codec.accepts(extended)) ++rejected;
    return rejected;
}

/// How many of `trials` copies of the sample, each damaged once by
/// `damage` (edit or flip), `codec` rejected.
template <typename Damage>
std::uint64_t rejected_damage(const Codec& codec, Rng& rng, int trials,
                              Damage damage) {
    std::uint64_t rejected = 0;
    for (int trial = 0; trial < trials; ++trial) {
        std::vector<std::uint8_t> damaged = codec.sample;
        damage(rng, damaged);
        if (!codec.accepts(damaged)) ++rejected;
    }
    return rejected;
}

/// The bare timestamp has no checksum: whatever decodes (possibly from
/// a non-canonical varint) must round-trip through its canonical
/// re-encoding.
Codec timestamp_codec(std::vector<std::uint8_t> sample) {
    return make_codec<std::invalid_argument>(
        std::move(sample), [](std::span<const std::uint8_t> bytes) {
            const VectorTimestamp decoded = decode_timestamp(bytes);
            EXPECT_EQ(decode_timestamp(encode_timestamp(decoded)), decoded);
        });
}

/// The frame decoders' agreement check: `bytes` goes through
/// peek_frame_info + decode_frame_stamp (the runtime's receive path) and
/// through the decoder of its version — decode_delta_frame_into for a
/// delta, decode_epoch_frame_into otherwise — and both must raise the
/// same WireError kind or yield the same header and stamp. `base` is the
/// delta base and fixes the width. Returns whether the frame was
/// rejected.
bool stamp_decoders_agree(std::span<const std::uint8_t> bytes,
                          std::span<const std::uint64_t> base) {
    std::vector<std::uint64_t> via_peek(base.size());
    std::vector<std::uint64_t> via_decoder(base.size());
    std::optional<WireError::Kind> peek_error;
    std::optional<WireError::Kind> decoder_error;
    FrameHeader peek_header;
    FrameHeader decoder_header;
    bool delta = false;
    try {
        const FrameInfo info = peek_frame_info(bytes);
        delta = info.delta;
        decode_frame_stamp(info, base, via_peek);
        peek_header = info.header;
    } catch (const WireError& e) {
        peek_error = e.kind();
    }
    try {
        decoder_header = delta
                             ? decode_delta_frame_into(bytes, base, via_decoder)
                             : decode_epoch_frame_into(bytes, via_decoder);
    } catch (const WireError& e) {
        decoder_error = e.kind();
    }
    EXPECT_EQ(peek_error, decoder_error);
    if (!peek_error && !decoder_error) {
        EXPECT_EQ(via_peek, via_decoder);
        EXPECT_EQ(peek_header.epoch, decoder_header.epoch);
        EXPECT_EQ(peek_header.sequence, decoder_header.sequence);
        EXPECT_EQ(peek_header.message, decoder_header.message);
    }
    return peek_error.has_value();
}

/// A full (v1 or v2) frame; every input also meets the agreement check.
Codec full_frame_codec(EpochId epoch, std::uint64_t sequence,
                       std::uint64_t message,
                       std::vector<std::uint64_t> stamp) {
    std::vector<std::uint8_t> sample;
    encode_epoch_frame_into(epoch, sequence, message, stamp, sample);
    return make_codec<WireError>(
        std::move(sample), [=](std::span<const std::uint8_t> bytes) {
            (void)stamp_decoders_agree(bytes, stamp);
            std::vector<std::uint64_t> out(stamp.size());
            const FrameHeader header = decode_epoch_frame_into(bytes, out);
            // Only possible when the damage cancelled out exactly.
            EXPECT_EQ(header.epoch, epoch);
            EXPECT_EQ(header.sequence, sequence);
            EXPECT_EQ(header.message, message);
            EXPECT_EQ(out, stamp);
        });
}

/// A v3 delta frame; every input also meets the agreement check.
Codec delta_frame_codec(EpochId epoch, std::uint64_t sequence,
                        std::uint64_t message,
                        std::vector<std::uint64_t> base,
                        std::vector<std::uint64_t> stamp) {
    std::vector<std::uint8_t> sample;
    EXPECT_TRUE(
        encode_delta_frame_into(epoch, sequence, message, base, stamp, sample));
    return make_codec<WireError>(
        std::move(sample), [=](std::span<const std::uint8_t> bytes) {
            (void)stamp_decoders_agree(bytes, base);
            std::vector<std::uint64_t> out(base.size());
            const FrameHeader header =
                decode_delta_frame_into(bytes, base, out);
            // Only possible when the damage cancelled out exactly.
            EXPECT_EQ(header.epoch, epoch);
            EXPECT_EQ(header.sequence, sequence);
            EXPECT_EQ(header.message, message);
            EXPECT_EQ(out, stamp);
        });
}

/// A v4 container of two real frames. Its outer checksum is advisory, so
/// damage may still yield entries: never more than declared, and each
/// either fails its own frame checksum or is one of the two frames — end
/// to end, a flipped bit never produces a frame that differs from an
/// original yet decodes.
Codec batch_codec() {
    const std::vector<std::uint64_t> stamp_a{4, 0, 31};
    const std::vector<std::uint64_t> stamp_b{5, 2, 31};
    std::vector<std::uint8_t> frame_a;
    std::vector<std::uint8_t> frame_b;
    encode_epoch_frame_into(1, 6, 2, stamp_a, frame_a);
    encode_epoch_frame_into(1, 7, 3, stamp_b, frame_b);
    BatchFrame builder;
    builder.add(0, 2, frame_a);
    builder.add(1, 3, frame_b);
    std::vector<std::uint8_t> sample;
    builder.encode_batch_into(sample);
    return make_codec<WireError>(
        std::move(sample), [=](std::span<const std::uint8_t> bytes) {
            BatchReader reader(bytes);
            BatchFrame::Entry entry;
            std::uint64_t yielded = 0;
            std::vector<std::uint64_t> out(stamp_a.size());
            while (reader.next(entry)) {
                EXPECT_LE(++yielded, reader.declared_count());
                try {
                    const FrameHeader header =
                        decode_epoch_frame_into(entry.body, out);
                    EXPECT_EQ(header.epoch, 1u);
                    EXPECT_TRUE(out == stamp_a || out == stamp_b);
                } catch (const WireError&) {
                    // damaged entry — rejected by its own checksum
                }
            }
        });
}

WalRecord fuzz_wal_record(WalRecordType type) {
    WalRecord record;
    record.type = type;
    if (type == WalRecordType::commit) {
        record.lsn = 5;
        record.peer = 2;
        record.sequence = 9;
        record.message = 4;
        record.epoch = 1;
        record.frame = {0x10, 0x20, 0x30};
        record.aux = {0x7F};
    } else {
        record.lsn = 118;
        record.peer = 3;
        record.sequence = 64;
        record.message = 1000;
        record.epoch = 2;
        record.aux = {1, 2, 3, 4, 5, 6};
    }
    return record;
}

Codec wal_codec(const WalRecord& record) {
    std::vector<std::uint8_t> sample;
    encode_wal_record_into(record, sample);
    return make_codec<RecoveryError>(
        std::move(sample), [record](std::span<const std::uint8_t> bytes) {
            const WalRecord decoded = decode_wal_record(bytes);
            EXPECT_EQ(decoded.type, record.type);
            EXPECT_EQ(decoded.lsn, record.lsn);
            EXPECT_EQ(decoded.sequence, record.sequence);
            EXPECT_EQ(decoded.aux, record.aux);
        });
}

Codec snapshot_codec() {
    Snapshot snapshot;
    snapshot.state.self = 1;
    snapshot.state.epoch = 2;
    snapshot.state.cursor = 7;
    snapshot.state.steps = 19;
    snapshot.state.clock = {3, 0, 11};
    snapshot.state.out.push_back({2, 4, FrameWindow(2)});
    snapshot.state.in.push_back({0, 6, FrameWindow(2)});
    snapshot.wal_lsn = 12;
    return make_codec<RecoveryError>(
        encode_snapshot(snapshot),
        [snapshot](std::span<const std::uint8_t> bytes) {
            const Snapshot decoded = decode_snapshot(bytes);
            // Damage can only decode if it collided with the checksum —
            // implausible, but correctness still demands the original.
            EXPECT_EQ(decoded.state.self, snapshot.state.self);
            EXPECT_EQ(decoded.wal_lsn, snapshot.wal_lsn);
        });
}

obs::Postmortem fuzz_postmortem() {
    obs::Postmortem post;
    post.reason = obs::PostmortemReason::error;
    post.process = 2;
    post.step = 31;
    post.epoch = 1;
    post.frontier_epoch = 1;
    post.wal_lsn = 77;
    post.virtual_time = 4242;
    post.snapshots = 3;
    post.metrics.counters["sync_commits"] = 31;
    post.metrics.counters["sync_retransmits"] = 2;
    post.metrics.gauges["arena_bytes"] = 4096;
    post.rates.counters["sync_commits"] = 8;
    post.rates.gauges["arena_bytes"] = 4096;
    for (std::uint64_t i = 0; i < 12; ++i) {
        obs::TraceEvent event;
        event.virtual_time = 50 + i;
        event.logical = i;
        event.arg_a = i % 5;
        event.arg_b = i;
        event.process = static_cast<std::uint32_t>(i % 3);
        event.peer = static_cast<std::uint32_t>((i + 1) % 3);
        event.kind = static_cast<obs::TraceEventKind>(i % 4);
        post.events.push_back(event);
    }
    return post;
}

Codec postmortem_codec() {
    const obs::Postmortem original = fuzz_postmortem();
    std::vector<std::uint8_t> sample;
    obs::encode_postmortem_into(original, sample);
    return make_codec<obs::PostmortemError>(
        std::move(sample), [original](std::span<const std::uint8_t> bytes) {
            // Decoding damage succeeds only on a checksum collision; the
            // content must still match.
            EXPECT_EQ(obs::decode_postmortem(bytes), original);
        });
}

/// The SYEV event dump has no checksum, so damage may decode: then it
/// yields every declared event, each with its kind in range.
Codec event_dump_codec() {
    obs::TraceSink sink(16);
    for (const obs::TraceEvent& event : fuzz_postmortem().events) {
        sink.record(event);
    }
    std::vector<std::uint8_t> sample;
    sink.write_binary(sample);
    return make_codec<std::invalid_argument>(
        std::move(sample), [](std::span<const std::uint8_t> bytes) {
            const std::vector<std::uint8_t> dump(bytes.begin(), bytes.end());
            const std::vector<obs::TraceEvent> events =
                obs::TraceSink::read_binary(dump);
            EXPECT_EQ(events.size(),
                      (dump.size() - 16) / obs::kTraceEventBytes);
            for (const obs::TraceEvent& event : events) {
                EXPECT_LE(static_cast<std::uint8_t>(event.kind),
                          static_cast<std::uint8_t>(
                              obs::TraceEventKind::bsched_defer));
            }
        });
}

// Small chunks so truncation cuts land inside chunk frames, between
// frames, and inside the end frame.
std::string valid_sytr_stream(std::size_t chunk_events) {
    const SyncComputation c = testing::random_workload(
        topology::client_server(2, 3), 50, 0.4, 5022);
    std::stringstream out;
    StreamingTraceWriter writer(out, c.topology(), chunk_events);
    for (const SyncMessage& m : c.messages()) {
        writer.add_message(m.sender, m.receiver);
        if (m.id % 3 == 0) writer.add_internal(m.sender);
    }
    writer.finish();
    return out.str();
}

std::uint64_t read_sytr(std::span<const std::uint8_t> bytes) {
    std::istringstream in(std::string(bytes.begin(), bytes.end()));
    StreamingTraceReader reader(in);
    std::uint64_t events = 0;
    while (reader.next().has_value()) ++events;
    return events;
}

/// A SYTR v2 stream. Completing a damaged stream requires every touched
/// frame's checksum to have collided — then the totals still agree.
Codec sytr_codec(std::size_t chunk_events) {
    const std::string valid = valid_sytr_stream(chunk_events);
    std::vector<std::uint8_t> sample(valid.begin(), valid.end());
    const std::uint64_t total = read_sytr(sample);
    return make_codec<std::invalid_argument>(
        std::move(sample), [total](std::span<const std::uint8_t> bytes) {
            EXPECT_EQ(read_sytr(bytes), total);
        });
}

Codec spill_codec(std::uint64_t id, std::vector<std::uint8_t> payload) {
    std::vector<std::uint8_t> sample;
    SpillStore::encode_chunk(id, payload, sample);
    return make_codec<SpillError>(
        std::move(sample), [id, payload](std::span<const std::uint8_t> bytes) {
            // Only a checksum collision decodes — content must match.
            EXPECT_TRUE(std::ranges::equal(SpillStore::decode_chunk(bytes, id),
                                           payload));
        });
}

std::vector<std::uint8_t> spill_payload(std::size_t size, std::uint8_t start,
                                        std::uint8_t step) {
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
        payload[i] = static_cast<std::uint8_t>(start + i * step);
    }
    return payload;
}

const std::vector<std::uint64_t> kFrameStamp{9, 200, 0, 3};
const std::vector<std::uint64_t> kDeltaBase{9, 200, 0, 3, 15};
const std::vector<std::uint64_t> kDeltaStamp{9, 214, 0, 4, 15};

// ---- Every codec under every damage class ------------------------------

TEST(FuzzParsers, EveryCodecUnderEveryDamageClass) {
    // Soup, every strict prefix plus one appended byte, and 1–4 random
    // edits, for every binary codec. A strict codec rejects every soup,
    // prefix and appended byte; the others (no checksum, an advisory
    // one, or an appended byte past the SYTR end frame that is never
    // read) must reject with their typed error or meet their property.
    struct Row {
        const char* name;
        Codec codec;
        bool strict;
    };
    const Row rows[] = {
        {"timestamp",
         timestamp_codec(encode_timestamp(VectorTimestamp(kFrameStamp))),
         false},
        {"wire v1", full_frame_codec(0, 77, 12, kFrameStamp), true},
        {"wire v2", full_frame_codec(5, 42, 9, {4, 0, 31, 7, 1}), true},
        {"wire v3", delta_frame_codec(2, 40, 7, kDeltaBase, kDeltaStamp),
         true},
        {"wire v4", batch_codec(), false},
        {"WAL", wal_codec(fuzz_wal_record(WalRecordType::ack)), true},
        {"SYSN", snapshot_codec(), true},
        {"SYFR", postmortem_codec(), true},
        {"SYEV event dump", event_dump_codec(), true},
        {"SYTR v2", sytr_codec(4), false},
        {"SYSP", spill_codec(3, spill_payload(64, 0xA0, 1)), true},
    };
    Rng rng(5030);
    for (const Row& row : rows) {
        SCOPED_TRACE(row.name);
        const std::uint64_t soups = rejected_soups(row.codec, rng, 300, 128);
        const std::uint64_t cuts = rejected_cuts(row.codec, 0x00);
        (void)rejected_damage(row.codec, rng, 300, edit);
        if (row.strict) {
            EXPECT_EQ(soups, 300u);
            EXPECT_EQ(cuts, row.codec.sample.size() + 1);
        }
    }
}

// ---- Bare timestamps and wire frames (clocks/wire.hpp) -----------------

TEST(FuzzParsers, TimestampWireRandomBytes) {
    Rng rng(5005);
    (void)rejected_soups(timestamp_codec({}), rng, 1000, 40);
}

TEST(FuzzParsers, SyncFrameRandomBytes) {
    // The full-frame reader is the parser the synchronizer feeds with
    // anything the faulty network delivers: random soup must either
    // fail with a typed WireError or (checksum-collision odds aside)
    // decode — never crash. A 4-byte CRC32C passes soup with
    // probability 2^-32 per buffer.
    Rng rng(5008);
    const Codec frames = make_codec<WireError>(
        {}, [&](std::span<const std::uint8_t> bytes) {
            std::vector<std::uint64_t> stamp(1 + rng.below(8));
            EXPECT_TRUE(stamp_decoders_agree(bytes, stamp));
            (void)decode_epoch_frame_into(bytes, stamp);
        });
    EXPECT_EQ(rejected_soups(frames, rng, 2000, 64), 2000u);
}

TEST(FuzzParsers, SyncFrameMutatedValidFrames) {
    Rng rng(5009);
    (void)rejected_damage(full_frame_codec(0, 77, 12, kFrameStamp), rng, 1000,
                          edit);
}

TEST(FuzzParsers, TimestampWireExpectedWidthRandomBytes) {
    // The expected-width overload must reject any width disagreement
    // before decoding components, so random soup can never materialize a
    // wrong-width vector.
    Rng rng(5010);
    const Codec stamps = make_codec<std::invalid_argument>(
        {}, [&](std::span<const std::uint8_t> bytes) {
            const std::size_t d = 1 + rng.below(6);
            EXPECT_EQ(decode_timestamp(bytes, d).width(), d);
        });
    (void)rejected_soups(stamps, rng, 1000, 40);
}

TEST(FuzzParsers, TimestampWireTruncations) {
    // Every strict prefix, and the stamp with a byte appended, must be
    // rejected.
    const Graph g = topology::client_server(2, 4);
    const SyncComputation c = testing::random_workload(g, 60, 0.0, 5007);
    for (const auto& stamp : online_timestamps(c)) {
        const Codec codec = timestamp_codec(encode_timestamp(stamp));
        EXPECT_EQ(rejected_cuts(codec, 0x00), codec.sample.size() + 1);
    }
}

TEST(FuzzParsers, EpochFrameRandomBytes) {
    // The wire-v2 readers sit directly on the faulty network: random soup
    // must always fail with a typed WireError, through both the header
    // peek and the full decode.
    Rng rng(5011);
    EXPECT_EQ(rejected_soups(full_frame_codec(3, 77, 12, kFrameStamp), rng,
                             2000, 64),
              2000u);
}

TEST(FuzzParsers, EpochFrameTruncationsAndTrailingBytes) {
    // Both layouts: epoch 0 emits the v1 frame, any later epoch the
    // marker-escaped v2 frame. Every strict prefix and every oversized
    // extension must be rejected by both readers.
    for (const EpochId epoch : {EpochId{0}, EpochId{3}}) {
        const Codec codec = full_frame_codec(epoch, 77, 12, kFrameStamp);
        const FrameHeader header = peek_frame_info(codec.sample).header;
        EXPECT_EQ(header.epoch, epoch);
        EXPECT_EQ(header.sequence, 77u);
        EXPECT_EQ(rejected_cuts(codec, 0x5A), codec.sample.size() + 1);
    }
}

TEST(FuzzParsers, EpochFrameOversizedVarints) {
    // A v2 marker followed by endless continuation bits must terminate
    // with a WireError — the varint reader bounds itself, never running
    // off the buffer or shifting past 64 bits.
    std::vector<std::uint8_t> bytes{kEpochFrameMarker};
    bytes.insert(bytes.end(), 32, 0xFF);
    std::vector<std::uint64_t> out(2);
    EXPECT_THROW((void)peek_frame_info(bytes), WireError);
    EXPECT_THROW((void)decode_epoch_frame_into(bytes, out), WireError);
    EXPECT_TRUE(stamp_decoders_agree(bytes, out));
}

TEST(FuzzParsers, EpochFrameMutatedValidFrames) {
    Rng rng(5012);
    (void)rejected_damage(full_frame_codec(5, 42, 9, {4, 0, 31, 7, 1}), rng,
                          1000, edit);
}

TEST(FuzzParsers, DeltaFrameRandomBytes) {
    // The delta reader sits on the same faulty network as the full-frame
    // readers: random soup must always fail with a typed WireError.
    Rng rng(5018);
    EXPECT_EQ(rejected_soups(delta_frame_codec(2, 40, 7, {3, 1, 4, 1},
                                               {3, 2, 4, 1}),
                             rng, 2000, 64),
              2000u);
}

TEST(FuzzParsers, DeltaFrameTruncationsAndMutations) {
    Rng rng(5019);
    const Codec codec = delta_frame_codec(2, 40, 7, kDeltaBase, kDeltaStamp);
    EXPECT_EQ(rejected_cuts(codec, 0x5A), codec.sample.size() + 1);
    (void)rejected_damage(codec, rng, 1000, edit);
}

/// marker, version 3, then caller-chosen varints, then a *valid* trailer
/// — so the structural validators (indices, counts, widths), not the
/// checksum, are what reject the frame.
std::vector<std::uint8_t> handcrafted_v3_frame(
    std::vector<std::uint64_t> header_and_pairs) {
    header_and_pairs.insert(header_and_pairs.begin(), kDeltaFrameVersion);
    std::vector<std::uint8_t> body{kEpochFrameMarker};
    const std::vector<std::uint8_t> fields =
        testing::varints(header_and_pairs);
    body.insert(body.end(), fields.begin(), fields.end());
    return testing::sealed(body);
}

TEST(FuzzParsers, DeltaFrameHostileIndicesAndCounts) {
    // Checksum-valid v3 frames whose structure lies: each must be
    // rejected before it can write outside `out` or loop on a hostile
    // count. Header varints are epoch, sequence, message, count, then
    // count x (index, increment) pairs.
    const std::vector<std::uint64_t> base{5, 6, 7, 8};
    std::vector<std::uint64_t> out(base.size());
    const std::vector<std::vector<std::uint64_t>> hostile = {
        {0, 3, 1, 1, 4, 2},          // index 4 out of range for width 4
        {0, 3, 1, 2, 2, 1, 1, 1},    // indices not strictly increasing
        {0, 3, 1, 2, 1, 1, 1, 1},    // repeated index
        {0, 3, 1, 5, 0, 1, 1, 1, 2, 1, 3, 1},  // count 5 > width, 4 pairs
        {0, 3, 1, 1},                // count 1 but no pairs follow
        {0, 3, 1, 2, 0, 1},          // count 2 but only one pair
    };
    for (const auto& fields : hostile) {
        const auto bytes = handcrafted_v3_frame(fields);
        EXPECT_THROW((void)decode_delta_frame_into(bytes, base, out),
                     WireError)
            << "hostile frame with " << fields.size() << " fields decoded";
        EXPECT_TRUE(stamp_decoders_agree(bytes, base));
    }
    // Endless continuation bits after the version escape must terminate.
    std::vector<std::uint8_t> overlong{kEpochFrameMarker, 3};
    overlong.insert(overlong.end(), 32, 0xFF);
    EXPECT_THROW((void)decode_delta_frame_into(overlong, base, out),
                 WireError);
    EXPECT_THROW((void)peek_frame_info(overlong), WireError);
    EXPECT_TRUE(stamp_decoders_agree(overlong, base));
}

TEST(FuzzParsers, BatchContainerRandomBytes) {
    // BatchReader's constructor validates structure, not the advisory
    // outer checksum — so random soup may occasionally construct; the
    // entry iteration must then either yield spans or throw WireError,
    // never crash or loop.
    Rng rng(5020);
    (void)rejected_soups(batch_codec(), rng, 2000, 96);
}

TEST(FuzzParsers, BatchContainerTruncationsAndHostileCounts) {
    BatchFrame builder;
    const std::vector<std::uint8_t> body_a{0x11, 0x22, 0x33};
    const std::vector<std::uint8_t> body_b{0x44};
    const std::vector<std::uint8_t> body_c{0x55, 0x66};
    builder.add(0, 7, body_a);
    builder.add(1, 9, body_b);
    builder.add(0, 8, body_c);
    std::vector<std::uint8_t> bytes;
    builder.encode_batch_into(bytes);
    // Every strict prefix (and the container with a byte appended)
    // either fails construction, breaks structurally during iteration,
    // or yields only original entries — with intact() false.
    const std::vector<std::vector<std::uint8_t>> bodies{body_a, body_b,
                                                        body_c};
    const Codec container = make_codec<WireError>(
        bytes, [&](std::span<const std::uint8_t> damaged) {
            BatchReader reader(damaged);
            EXPECT_FALSE(reader.intact());
            BatchFrame::Entry entry;
            std::size_t yielded = 0;
            while (reader.next(entry)) {
                ASSERT_LT(yielded, bodies.size());
                EXPECT_TRUE(std::ranges::equal(entry.body, bodies[yielded]))
                    << "entry " << yielded;
                ++yielded;
            }
        });
    (void)rejected_cuts(container, 0x00);
    // A hostile declared count cannot make next() run past the payload:
    // the reader throws truncated once the entries run out early.
    std::vector<std::uint8_t> header{kEpochFrameMarker};
    const std::vector<std::uint8_t> fields =
        testing::varints({kBatchFrameVersion, 1000000});
    header.insert(header.end(), fields.begin(), fields.end());
    const std::vector<std::uint8_t> hostile = testing::sealed(header);
    BatchReader reader(hostile);
    EXPECT_TRUE(reader.intact());
    EXPECT_EQ(reader.declared_count(), 1000000u);
    BatchFrame::Entry entry;
    EXPECT_THROW((void)reader.next(entry), WireError);
}

TEST(FuzzParsers, BatchContainerMutatedRealTraffic) {
    Rng rng(5021);
    (void)rejected_damage(batch_codec(), rng, 1500, edit);
}

// ---- Durable state: WAL records, SYSN snapshots (recover/) -------------

TEST(FuzzParsers, WalRecordRandomSoupAndTruncations) {
    Rng rng(5013);
    const Codec codec = wal_codec(fuzz_wal_record(WalRecordType::commit));
    EXPECT_EQ(rejected_soups(codec, rng, 2000, 64), 2000u);
    EXPECT_EQ(rejected_cuts(codec, 0x00), codec.sample.size() + 1);
}

TEST(FuzzParsers, WalRecordMutatedValidRecords) {
    Rng rng(5014);
    (void)rejected_damage(wal_codec(fuzz_wal_record(WalRecordType::ack)), rng,
                          1000, edit);
}

TEST(FuzzParsers, SnapshotRandomSoupAndMutations) {
    Rng rng(5015);
    const Codec codec = snapshot_codec();
    EXPECT_EQ(rejected_soups(codec, rng, 1000, 96), 1000u);
    EXPECT_EQ(rejected_cuts(codec, 0x00), codec.sample.size() + 1);
    (void)rejected_damage(codec, rng, 1000, flip);
}

// ---- SYFR post-mortems (obs/flight_recorder.hpp) -----------------------

TEST(FuzzParsers, PostmortemRandomSoup) {
    // A random buffer carries a valid CRC32C trailer with probability
    // 2^-32; soup behind the valid magic + version header still has to
    // clear the checksum.
    Rng rng(5016);
    const Codec codec = postmortem_codec();
    EXPECT_EQ(rejected_soups(codec, rng, 2000, 256), 2000u);
    EXPECT_EQ(rejected_soups(codec, rng, 2000, 200,
                             {'S', 'Y', 'F', 'R', 1, 0, 0, 0}),
              2000u);
}

TEST(FuzzParsers, PostmortemTruncationsAndTrailingBytes) {
    const Codec codec = postmortem_codec();
    EXPECT_EQ(rejected_cuts(codec, 0x00), codec.sample.size() + 1);
}

TEST(FuzzParsers, PostmortemMutatedValidDumps) {
    Rng rng(5017);
    (void)rejected_damage(postmortem_codec(), rng, 1500, edit);
}

// ---- SYTR streaming trace format (trace/trace_io.hpp) ------------------

TEST(FuzzParsers, SytrRandomSoup) {
    // Soup, then soup behind a valid magic + version prefix, which still
    // has to clear the length guard and the frame checksum.
    Rng rng(5023);
    const Codec codec = sytr_codec(4);
    (void)rejected_soups(codec, rng, 500, 200, {}, 10);
    (void)rejected_soups(codec, rng, 500, 160, {'S', 'Y', 'T', 'R', 2});
}

TEST(FuzzParsers, SytrTruncationMidChunk) {
    // Every strict prefix of a valid multi-frame stream must throw: the
    // header, chunk, and end frames each seal with a checksum trailer,
    // and a missing end frame is itself a truncation. A byte after the
    // end frame is never read.
    const Codec codec = sytr_codec(4);
    EXPECT_EQ(rejected_cuts(codec, 0x00), codec.sample.size());
    // The unmutilated stream parses to completion.
    EXPECT_GT(read_sytr(codec.sample), 50u);
}

TEST(FuzzParsers, SytrBitFlipSoup) {
    Rng rng(5024);
    (void)rejected_damage(sytr_codec(7), rng, 600, edit);
}

/// A SYTR v2 frame: `head` (magic and version, or a frame tag), the
/// u32le payload length, the payload, and a *valid* trailer.
std::string sytr_frame(const std::vector<std::uint8_t>& head,
                       const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> frame;
    codec::Writer writer(frame, 0);
    writer.bytes(head);
    writer.le32(static_cast<std::uint32_t>(payload.size()));
    writer.bytes(payload);
    writer.seal();
    return std::string(frame.begin(), frame.end());
}

TEST(FuzzParsers, SytrHostileCountsBehindValidChecksums) {
    // Checksum-valid header frames whose varints lie: a hostile process
    // or edge count must be rejected by the structural guards, not by
    // attempting a four-billion-entry allocation.
    const auto hostile_header = [](const std::vector<std::uint64_t>& fields) {
        return sytr_frame({'S', 'Y', 'T', 'R', 2}, testing::varints(fields));
    };

    const std::vector<std::pair<std::string, std::string>> cases = {
        {"hostile process count", hostile_header({UINT64_MAX, 0})},
        {"process count above the reader bound",
         hostile_header({kMaxDeclaredProcesses + 1, 0})},
        {"hostile edge count", hostile_header({3, UINT64_MAX})},
        {"edge endpoint out of range", hostile_header({2, 1, 5, 1})},
        {"trailing payload garbage", hostile_header({2, 1, 0, 1, 99})},
    };
    for (const auto& [what, bytes] : cases) {
        std::istringstream in(bytes);
        EXPECT_THROW(StreamingTraceReader reader(in), std::invalid_argument)
            << what;
    }

    // Behind a genuinely valid header, hostile chunk frames: a lying
    // record count, an out-of-range endpoint, a self-message, and an
    // unknown record kind must each throw before any record is yielded.
    const std::string header = hostile_header({2, 1, 0, 1});
    /// A chunk payload: the record count, then one record.
    const auto chunk = [](std::uint8_t kind,
                          const std::vector<std::uint64_t>& fields) {
        std::vector<std::uint8_t> bytes = testing::varints({1});
        bytes.push_back(kind);
        const std::vector<std::uint8_t> encoded = testing::varints(fields);
        bytes.insert(bytes.end(), encoded.begin(), encoded.end());
        return bytes;
    };
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        chunks = {
            {"hostile record count", testing::varints({UINT64_MAX})},
            {"endpoint out of range", chunk(0, {0, 7})},
            {"self-message", chunk(0, {1, 1})},
            {"unknown record kind", chunk(9, {0})},
        };
    for (const auto& [what, payload] : chunks) {
        std::istringstream in(header + sytr_frame({'C'}, payload));
        StreamingTraceReader reader(in);
        EXPECT_THROW((void)reader.next(), std::invalid_argument) << what;
    }

    // Sanity: the same header followed by a well-formed chunk and end
    // frame parses cleanly — the rejections above are the guards, not
    // an over-strict reader.
    std::istringstream in(header + sytr_frame({'C'}, chunk(0, {0, 1})) +
                          sytr_frame({'E'}, testing::varints({1})));
    StreamingTraceReader reader(in);
    std::uint64_t events = 0;
    while (reader.next().has_value()) ++events;
    EXPECT_EQ(events, 1u);
    EXPECT_TRUE(reader.finished());
}

// ---- SpillStore chunk codec (common/spill_store.hpp) -------------------

TEST(FuzzParsers, SpillChunkRandomSoup) {
    // The magic + checksum make accidental acceptance implausible.
    Rng rng(5025);
    const Codec chunks = make_codec<SpillError>(
        {}, [&](std::span<const std::uint8_t> bytes) {
            (void)SpillStore::decode_chunk(bytes, rng.below(4));
        });
    EXPECT_EQ(rejected_soups(chunks, rng, 2000, 96), 2000u);
}

TEST(FuzzParsers, SpillChunkTruncationsAndTrailingBytes) {
    const Codec codec = spill_codec(11, spill_payload(100, 0, 3));
    EXPECT_EQ(rejected_cuts(codec, 0x00), codec.sample.size() + 1);
}

TEST(FuzzParsers, SpillChunkMutatedValidFrames) {
    Rng rng(5026);
    (void)rejected_damage(spill_codec(3, spill_payload(64, 0xA0, 1)), rng,
                          1500, edit);
}

TEST(FuzzParsers, SpillChunkHostileLengthAndWrongId) {
    std::vector<std::uint8_t> payload{1, 2, 3, 4};
    std::vector<std::uint8_t> frame;
    SpillStore::encode_chunk(6, payload, frame);

    // Reading under the wrong id is a format error even though every
    // byte is intact — chunk identity is part of the contract.
    EXPECT_THROW((void)SpillStore::decode_chunk(frame, 7), SpillError);

    // A hostile length field (huge u64 at offset 13) must be caught by
    // the length-consistency check before any allocation-sized trust.
    auto hostile = frame;
    for (std::size_t i = 0; i < 8; ++i) {
        hostile[13 + i] = 0xFF;
    }
    try {
        (void)SpillStore::decode_chunk(hostile, 6);
        FAIL() << "expected SpillError";
    } catch (const SpillError& e) {
        EXPECT_NE(e.kind(), SpillError::Kind::io);
    }
}

}  // namespace
}  // namespace syncts
