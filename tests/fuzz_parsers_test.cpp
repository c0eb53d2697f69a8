#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/spill_store.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/decomp_io.hpp"
#include "obs/flight_recorder.hpp"
#include "recover/snapshot.hpp"
#include "recover/wal.hpp"
#include "test_util.hpp"
#include "trace/trace_io.hpp"

/// Robustness fuzzing for every parser: random byte soup and mutated valid
/// inputs must either parse or throw std::invalid_argument — never crash,
/// hang, or corrupt. (Deterministic seeds; these run in milliseconds.)

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

TEST(FuzzParsers, TimestampWireRandomBytes) {
    Rng rng(5005);
    for (int trial = 0; trial < 1000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(40));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            const VectorTimestamp decoded = decode_timestamp(bytes);
            // If it decoded (possibly from a non-canonical varint), the
            // canonical re-encoding must round-trip to the same value.
            EXPECT_EQ(decode_timestamp(encode_timestamp(decoded)), decoded);
        } catch (const std::invalid_argument&) {
            // expected for malformed input
        }
    }
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

TEST(FuzzParsers, SyncFrameRandomBytes) {
    // The full-frame reader is the parser the synchronizer feeds with
    // anything the faulty network delivers: random soup must either
    // fail with a typed WireError or (checksum-collision odds aside)
    // decode — never crash.
    Rng rng(5008);
    std::uint64_t rejects = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        std::vector<std::uint64_t> stamp(1 + rng.below(8));
        try {
            (void)decode_epoch_frame_into(bytes, stamp);
        } catch (const WireError&) {
            ++rejects;
        }
        EXPECT_TRUE(stamp_decoders_agree(bytes, stamp));
    }
    // An 8-byte checksum makes accidental acceptance of soup implausible.
    EXPECT_EQ(rejects, 2000u);
}

TEST(FuzzParsers, SyncFrameMutatedValidFrames) {
    Rng rng(5009);
    const std::vector<std::uint64_t> stamp{9, 200, 0, 3};
    std::vector<std::uint8_t> bytes;
    encode_epoch_frame_into(0, 77, 12, stamp, bytes);
    std::vector<std::uint64_t> out(stamp.size());
    for (int trial = 0; trial < 1000; ++trial) {
        auto mutated = bytes;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                    break;
                case 1: mutated.erase(mutated.begin() +
                                      static_cast<long>(pos)); break;
                default:
                    mutated.insert(mutated.begin() + static_cast<long>(pos),
                                   static_cast<std::uint8_t>(rng.below(256)));
                    break;
            }
        }
        try {
            const FrameHeader header = decode_epoch_frame_into(mutated, out);
            // Only possible when the edits cancelled out exactly.
            EXPECT_EQ(header.sequence, 77u);
            EXPECT_EQ(header.message, 12u);
            EXPECT_EQ(out, stamp);
        } catch (const WireError&) {
            // expected for nearly every mutation
        }
        (void)stamp_decoders_agree(mutated, stamp);
    }
}

TEST(FuzzParsers, TimestampWireExpectedWidthRandomBytes) {
    // The satellite fix: the expected-width overload must reject any
    // width disagreement before decoding components, so random soup can
    // never materialize a wrong-width vector.
    Rng rng(5010);
    for (int trial = 0; trial < 1000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(40));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        const std::size_t d = 1 + rng.below(6);
        try {
            const VectorTimestamp decoded = decode_timestamp(bytes, d);
            EXPECT_EQ(decoded.width(), d);
        } catch (const std::invalid_argument&) {
            // expected for malformed input
        }
    }
}

TEST(FuzzParsers, TimestampWireTruncations) {
    Rng rng(5006);
    const Graph g = topology::client_server(2, 4);
    const SyncComputation c = testing::random_workload(g, 60, 0.0, 5007);
    const auto stamps = online_timestamps(c);
    for (const auto& stamp : stamps) {
        auto bytes = encode_timestamp(stamp);
        // Every strict prefix must be rejected.
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            const std::vector<std::uint8_t> prefix(bytes.begin(),
                                                   bytes.begin() +
                                                       static_cast<long>(cut));
            EXPECT_THROW(decode_timestamp(prefix), std::invalid_argument);
        }
    }
}

TEST(FuzzParsers, EpochFrameRandomBytes) {
    // The wire-v2 readers sit directly on the faulty network: random soup
    // must always fail with a typed WireError, through both the header
    // peek and the full decode.
    Rng rng(5011);
    std::uint64_t rejects = 0;
    std::vector<std::uint64_t> stamp(4);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            (void)peek_frame_info(bytes);
        } catch (const WireError&) {
            ++rejects;
        }
        try {
            (void)decode_epoch_frame_into(bytes, stamp);
        } catch (const WireError&) {
            ++rejects;
        }
        if (stamp_decoders_agree(bytes, stamp)) ++rejects;
    }
    EXPECT_EQ(rejects, 6000u);
}

TEST(FuzzParsers, EpochFrameTruncationsAndTrailingBytes) {
    std::vector<std::uint8_t> bytes;
    const std::vector<std::uint64_t> stamp{9, 200, 0, 3};
    std::vector<std::uint64_t> out(stamp.size());
    // Both layouts: epoch 0 emits the v1 frame, any later epoch the
    // marker-escaped v2 frame. Every strict prefix and every oversized
    // extension must be rejected by both readers.
    for (const EpochId epoch : {EpochId{0}, EpochId{3}}) {
        encode_epoch_frame_into(epoch, 77, 12, stamp, bytes);
        const FrameHeader header = peek_frame_info(bytes).header;
        EXPECT_EQ(header.epoch, epoch);
        EXPECT_EQ(header.sequence, 77u);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            const std::span<const std::uint8_t> prefix(bytes.data(), cut);
            EXPECT_THROW((void)peek_frame_info(prefix), WireError);
            EXPECT_THROW((void)decode_epoch_frame_into(prefix, out),
                         WireError);
            EXPECT_TRUE(stamp_decoders_agree(prefix, stamp));
        }
        auto oversized = bytes;
        oversized.push_back(0x5A);
        EXPECT_THROW((void)peek_frame_info(oversized), WireError);
        EXPECT_THROW((void)decode_epoch_frame_into(oversized, out), WireError);
        EXPECT_TRUE(stamp_decoders_agree(oversized, stamp));
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
    const std::vector<std::uint64_t> stamp{4, 0, 31, 7, 1};
    std::vector<std::uint8_t> bytes;
    encode_epoch_frame_into(5, 42, 9, stamp, bytes);
    std::vector<std::uint64_t> out(stamp.size());
    for (int trial = 0; trial < 1000; ++trial) {
        auto mutated = bytes;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                    break;
                case 1: mutated.erase(mutated.begin() +
                                      static_cast<long>(pos)); break;
                default:
                    mutated.insert(mutated.begin() + static_cast<long>(pos),
                                   static_cast<std::uint8_t>(rng.below(256)));
                    break;
            }
        }
        try {
            const FrameHeader header = decode_epoch_frame_into(mutated, out);
            // Only possible when the edits cancelled out exactly.
            EXPECT_EQ(header.epoch, 5u);
            EXPECT_EQ(header.sequence, 42u);
            EXPECT_EQ(header.message, 9u);
            EXPECT_EQ(out, stamp);
        } catch (const WireError&) {
            // expected for nearly every mutation
        }
        (void)stamp_decoders_agree(mutated, stamp);
    }
}

TEST(FuzzParsers, WalRecordRandomSoupAndTruncations) {
    Rng rng(5013);
    std::uint64_t rejects = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            (void)decode_wal_record(bytes);
        } catch (const RecoveryError&) {
            ++rejects;
        }
    }
    EXPECT_EQ(rejects, 2000u);

    WalRecord record;
    record.type = WalRecordType::commit;
    record.lsn = 5;
    record.peer = 2;
    record.sequence = 9;
    record.message = 4;
    record.epoch = 1;
    record.frame = {0x10, 0x20, 0x30};
    record.aux = {0x7F};
    std::vector<std::uint8_t> bytes;
    encode_wal_record_into(record, bytes);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::span<const std::uint8_t> prefix(bytes.data(), cut);
        EXPECT_THROW((void)decode_wal_record(prefix), RecoveryError);
    }
}

TEST(FuzzParsers, WalRecordMutatedValidRecords) {
    Rng rng(5014);
    WalRecord record;
    record.type = WalRecordType::ack;
    record.lsn = 118;
    record.peer = 3;
    record.sequence = 64;
    record.message = 1000;
    record.epoch = 2;
    record.aux = {1, 2, 3, 4, 5, 6};
    std::vector<std::uint8_t> bytes;
    encode_wal_record_into(record, bytes);
    for (int trial = 0; trial < 1000; ++trial) {
        auto mutated = bytes;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                    break;
                case 1: mutated.erase(mutated.begin() +
                                      static_cast<long>(pos)); break;
                default:
                    mutated.insert(mutated.begin() + static_cast<long>(pos),
                                   static_cast<std::uint8_t>(rng.below(256)));
                    break;
            }
        }
        try {
            const WalRecord decoded = decode_wal_record(mutated);
            EXPECT_EQ(decoded.type, record.type);
            EXPECT_EQ(decoded.lsn, record.lsn);
            EXPECT_EQ(decoded.sequence, record.sequence);
            EXPECT_EQ(decoded.aux, record.aux);
        } catch (const RecoveryError&) {
            // expected for nearly every mutation
        }
    }
}

TEST(FuzzParsers, SnapshotRandomSoupAndMutations) {
    Rng rng(5015);
    std::uint64_t rejects = 0;
    for (int trial = 0; trial < 1000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(96));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            (void)decode_snapshot(bytes);
        } catch (const RecoveryError&) {
            ++rejects;
        }
    }
    EXPECT_EQ(rejects, 1000u);

    Snapshot snapshot;
    snapshot.state.self = 1;
    snapshot.state.epoch = 2;
    snapshot.state.cursor = 7;
    snapshot.state.steps = 19;
    snapshot.state.clock = {3, 0, 11};
    snapshot.state.out.push_back({2, 4, FrameWindow(2)});
    snapshot.state.in.push_back({0, 6, FrameWindow(2)});
    snapshot.wal_lsn = 12;
    const std::vector<std::uint8_t> bytes = encode_snapshot(snapshot);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::span<const std::uint8_t> prefix(bytes.data(), cut);
        EXPECT_THROW((void)decode_snapshot(prefix), RecoveryError);
    }
    for (int trial = 0; trial < 1000; ++trial) {
        auto mutated = bytes;
        const std::size_t pos = rng.below(mutated.size());
        mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        try {
            const Snapshot decoded = decode_snapshot(mutated);
            // A single bit flip can only decode if it collided with the
            // checksum — implausible, but correctness still demands the
            // original value.
            EXPECT_EQ(decoded.state.self, snapshot.state.self);
            EXPECT_EQ(decoded.wal_lsn, snapshot.wal_lsn);
        } catch (const RecoveryError&) {
            // expected for every realistic mutation
        }
    }
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

TEST(FuzzParsers, PostmortemRandomSoup) {
    Rng rng(5016);
    std::uint64_t rejects = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(256));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            (void)obs::decode_postmortem(bytes);
        } catch (const obs::PostmortemError&) {
            ++rejects;
        }
    }
    // A random buffer cannot carry a valid FNV-1a trailer.
    EXPECT_EQ(rejects, 2000u);

    // Random soup behind the valid magic + version header still has to
    // clear the checksum, so every trial must reject cleanly too.
    rejects = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes{'S', 'Y', 'F', 'R', 1, 0, 0, 0};
        const std::size_t body = rng.below(200);
        for (std::size_t i = 0; i < body; ++i) {
            bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        try {
            (void)obs::decode_postmortem(bytes);
        } catch (const obs::PostmortemError&) {
            ++rejects;
        }
    }
    EXPECT_EQ(rejects, 2000u);
}

TEST(FuzzParsers, PostmortemTruncationsAndTrailingBytes) {
    std::vector<std::uint8_t> bytes;
    obs::encode_postmortem_into(fuzz_postmortem(), bytes);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() +
                                                   static_cast<long>(cut));
        EXPECT_THROW((void)obs::decode_postmortem(prefix),
                     obs::PostmortemError)
            << "cut " << cut;
    }
    auto padded = bytes;
    padded.push_back(0);
    EXPECT_THROW((void)obs::decode_postmortem(padded),
                 obs::PostmortemError);
}

TEST(FuzzParsers, PostmortemMutatedValidDumps) {
    Rng rng(5017);
    const obs::Postmortem original = fuzz_postmortem();
    std::vector<std::uint8_t> bytes;
    obs::encode_postmortem_into(original, bytes);
    for (int trial = 0; trial < 1500; ++trial) {
        auto mutated = bytes;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                    break;
                case 1:
                    mutated.erase(mutated.begin() + static_cast<long>(pos));
                    break;
                default:
                    mutated.insert(mutated.begin() + static_cast<long>(pos),
                                   static_cast<std::uint8_t>(rng.below(256)));
                    break;
            }
        }
        try {
            const obs::Postmortem decoded =
                obs::decode_postmortem(mutated);
            // Decoding can only succeed when the mutations cancelled out
            // to a checksum collision; the content must still match.
            EXPECT_EQ(decoded, original);
        } catch (const obs::PostmortemError&) {
            // expected for nearly every mutation
        }
    }
}

std::vector<std::uint8_t> handcrafted_v3_frame(
    std::span<const std::uint64_t> header_and_pairs) {
    // marker, version 3, then caller-chosen varints, then a *valid*
    // FNV-1a trailer — so the structural validators (indices, counts,
    // widths), not the checksum, are what reject the frame.
    std::vector<std::uint8_t> bytes{kEpochFrameMarker};
    encode_varint(kDeltaFrameVersion, bytes);
    for (const std::uint64_t value : header_and_pairs) {
        encode_varint(value, bytes);
    }
    std::uint64_t checksum = fnv1a64(bytes);
    for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(checksum));
        checksum >>= 8;
    }
    return bytes;
}

TEST(FuzzParsers, DeltaFrameRandomBytes) {
    // The delta reader sits on the same faulty network as the full-frame
    // readers: random soup must always fail with a typed WireError.
    Rng rng(5018);
    std::uint64_t rejects = 0;
    std::vector<std::uint64_t> base{3, 1, 4, 1};
    std::vector<std::uint64_t> out(base.size());
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(64));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            (void)decode_delta_frame_into(bytes, base, out);
        } catch (const WireError&) {
            ++rejects;
        }
        try {
            (void)peek_frame_info(bytes);
        } catch (const WireError&) {
            ++rejects;
        }
        if (stamp_decoders_agree(bytes, base)) ++rejects;
    }
    EXPECT_EQ(rejects, 6000u);
}

TEST(FuzzParsers, DeltaFrameTruncationsAndMutations) {
    Rng rng(5019);
    const std::vector<std::uint64_t> base{9, 200, 0, 3, 15};
    const std::vector<std::uint64_t> stamp{9, 214, 0, 4, 15};
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(encode_delta_frame_into(2, 40, 7, base, stamp, bytes));
    std::vector<std::uint64_t> out(base.size());
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::span<const std::uint8_t> prefix(bytes.data(), cut);
        EXPECT_THROW((void)decode_delta_frame_into(prefix, base, out),
                     WireError);
        EXPECT_THROW((void)peek_frame_info(prefix), WireError);
        EXPECT_TRUE(stamp_decoders_agree(prefix, base));
    }
    for (int trial = 0; trial < 1000; ++trial) {
        auto mutated = bytes;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                    break;
                case 1: mutated.erase(mutated.begin() +
                                      static_cast<long>(pos)); break;
                default:
                    mutated.insert(mutated.begin() + static_cast<long>(pos),
                                   static_cast<std::uint8_t>(rng.below(256)));
                    break;
            }
        }
        try {
            const FrameHeader header =
                decode_delta_frame_into(mutated, base, out);
            // Only possible when the edits cancelled out exactly.
            EXPECT_EQ(header.epoch, 2u);
            EXPECT_EQ(header.sequence, 40u);
            EXPECT_EQ(out, stamp);
        } catch (const WireError&) {
            // expected for nearly every mutation
        }
        (void)stamp_decoders_agree(mutated, base);
    }
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
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(96));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            BatchReader reader(bytes);
            BatchFrame::Entry entry;
            std::size_t yielded = 0;
            while (reader.next(entry)) {
                ++yielded;
                ASSERT_LE(yielded, reader.declared_count());
            }
        } catch (const WireError&) {
            // expected for nearly every buffer
        }
    }
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
    // Every strict prefix either fails construction or breaks
    // structurally during iteration; entries yielded before the break
    // must be bitwise prefixes of the originals.
    const std::vector<std::vector<std::uint8_t>> bodies{body_a, body_b,
                                                        body_c};
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::span<const std::uint8_t> prefix(bytes.data(), cut);
        try {
            BatchReader reader(prefix);
            EXPECT_FALSE(reader.intact()) << "cut " << cut;
            BatchFrame::Entry entry;
            std::size_t yielded = 0;
            while (reader.next(entry)) {
                ASSERT_LT(yielded, bodies.size());
                EXPECT_TRUE(std::equal(entry.body.begin(), entry.body.end(),
                                       bodies[yielded].begin(),
                                       bodies[yielded].end()))
                    << "cut " << cut << " entry " << yielded;
                ++yielded;
            }
        } catch (const WireError&) {
            // expected once the cut lands mid-entry
        }
    }
    // A hostile declared count cannot make next() run past the payload:
    // the reader throws truncated once the entries run out early.
    std::vector<std::uint8_t> hostile{kEpochFrameMarker};
    encode_varint(kBatchFrameVersion, hostile);
    encode_varint(1000000, hostile);  // declared count, no entries follow
    std::uint64_t checksum = fnv1a64(hostile);
    for (int i = 0; i < 8; ++i) {
        hostile.push_back(static_cast<std::uint8_t>(checksum));
        checksum >>= 8;
    }
    BatchReader reader(hostile);
    EXPECT_TRUE(reader.intact());
    EXPECT_EQ(reader.declared_count(), 1000000u);
    BatchFrame::Entry entry;
    EXPECT_THROW((void)reader.next(entry), WireError);
}

TEST(FuzzParsers, BatchContainerMutatedRealTraffic) {
    // Containers of real checksummed frames, mutated: the reader either
    // throws on a structural break or yields entries whose bodies the
    // per-entry frame decode then accepts or rejects — end to end, a
    // flipped bit can never produce a frame that differs from an
    // original yet decodes.
    Rng rng(5021);
    const std::vector<std::uint64_t> stamp_a{4, 0, 31};
    const std::vector<std::uint64_t> stamp_b{5, 2, 31};
    std::vector<std::uint8_t> frame_a;
    std::vector<std::uint8_t> frame_b;
    encode_epoch_frame_into(1, 6, 2, stamp_a, frame_a);
    encode_epoch_frame_into(1, 7, 3, stamp_b, frame_b);
    BatchFrame builder;
    builder.add(0, 2, frame_a);
    builder.add(1, 3, frame_b);
    std::vector<std::uint8_t> bytes;
    builder.encode_batch_into(bytes);
    std::vector<std::uint64_t> out(stamp_a.size());
    for (int trial = 0; trial < 1500; ++trial) {
        auto mutated = bytes;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                    break;
                case 1: mutated.erase(mutated.begin() +
                                      static_cast<long>(pos)); break;
                default:
                    mutated.insert(mutated.begin() + static_cast<long>(pos),
                                   static_cast<std::uint8_t>(rng.below(256)));
                    break;
            }
        }
        try {
            BatchReader reader(mutated);
            BatchFrame::Entry entry;
            while (reader.next(entry)) {
                try {
                    const FrameHeader header =
                        decode_epoch_frame_into(entry.body, out);
                    EXPECT_EQ(header.epoch, 1u);
                    EXPECT_TRUE(out == stamp_a || out == stamp_b);
                } catch (const WireError&) {
                    // damaged entry — rejected by its own checksum
                }
            }
        } catch (const WireError&) {
            // structural break — remainder of the container is lost
        }
    }
}

// ---- SYTR streaming trace format (trace/trace_io.hpp) ------------------

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

void append_test_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

// Seals `payload` behind `prefix` (magic+version or a frame tag) with
// the u32le length + FNV trailer framing the SYTR reader validates.
std::string sytr_frame(std::vector<std::uint8_t> prefix,
                       const std::vector<std::uint8_t>& payload) {
    prefix.push_back(static_cast<std::uint8_t>(payload.size()));
    prefix.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
    prefix.push_back(static_cast<std::uint8_t>(payload.size() >> 16));
    prefix.push_back(static_cast<std::uint8_t>(payload.size() >> 24));
    prefix.insert(prefix.end(), payload.begin(), payload.end());
    common::append_checksum_trailer(prefix, 0);
    return std::string(reinterpret_cast<const char*>(prefix.data()),
                       prefix.size());
}

void expect_sytr_no_crash(const std::string& bytes) {
    try {
        std::istringstream in(bytes);
        StreamingTraceReader reader(in);
        while (reader.next().has_value()) {
        }
    } catch (const std::invalid_argument&) {
        // expected for malformed input
    }
}

TEST(FuzzParsers, SytrRandomSoup) {
    Rng rng(5023);
    for (int trial = 0; trial < 500; ++trial) {
        std::string soup(10 + rng.below(200), '\0');
        for (auto& ch : soup) ch = static_cast<char>(rng.below(256));
        expect_sytr_no_crash(soup);
    }
    // Soup behind a valid magic + version prefix still has to clear the
    // length guard and the frame checksum.
    for (int trial = 0; trial < 500; ++trial) {
        std::string prefixed("SYTR\x02", 5);
        const std::size_t body = rng.below(160);
        for (std::size_t i = 0; i < body; ++i) {
            prefixed.push_back(static_cast<char>(rng.below(256)));
        }
        expect_sytr_no_crash(prefixed);
    }
}

TEST(FuzzParsers, SytrTruncationMidChunk) {
    // Every strict prefix of a valid multi-frame stream must throw: the
    // header, chunk, and end frames each seal with a checksum trailer,
    // and a missing end frame is itself a truncation.
    const std::string valid = valid_sytr_stream(4);
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
        std::istringstream in(valid.substr(0, cut));
        EXPECT_THROW(
            {
                StreamingTraceReader reader(in);
                while (reader.next().has_value()) {
                }
            },
            std::invalid_argument)
            << "cut " << cut;
    }
    // The unmutilated stream parses to completion.
    std::istringstream in(valid);
    StreamingTraceReader reader(in);
    std::uint64_t events = 0;
    while (reader.next().has_value()) ++events;
    EXPECT_TRUE(reader.finished());
    EXPECT_GT(events, 50u);
}

TEST(FuzzParsers, SytrBitFlipSoup) {
    Rng rng(5024);
    const std::string valid = valid_sytr_stream(7);
    std::istringstream reference_in(valid);
    StreamingTraceReader reference(reference_in);
    std::uint64_t total = 0;
    while (reference.next().has_value()) ++total;

    for (int trial = 0; trial < 600; ++trial) {
        std::string mutated = valid;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] = static_cast<char>(
                        static_cast<std::uint8_t>(mutated[pos]) ^
                        (1u << rng.below(8)));
                    break;
                case 1: mutated.erase(pos, 1); break;
                default:
                    mutated.insert(pos, 1,
                                   static_cast<char>(rng.below(256)));
                    break;
            }
        }
        try {
            std::istringstream in(mutated);
            StreamingTraceReader reader(in);
            std::uint64_t events = 0;
            while (reader.next().has_value()) ++events;
            // Completing the stream requires every touched frame's
            // checksum to have collided — then the totals still agree.
            if (reader.finished()) {
                EXPECT_EQ(events, total);
            }
        } catch (const std::invalid_argument&) {
            // expected for nearly every mutation
        }
    }
}

TEST(FuzzParsers, SytrHostileCountsBehindValidChecksums) {
    // Checksum-valid header frames whose varints lie: a hostile process
    // or edge count must be rejected by the structural guards, not by
    // attempting a four-billion-entry allocation.
    const auto hostile_header =
        [](std::uint64_t n, std::uint64_t e,
           const std::vector<std::uint64_t>& edge_fields) {
            std::vector<std::uint8_t> payload;
            append_test_varint(payload, n);
            append_test_varint(payload, e);
            for (const std::uint64_t v : edge_fields) {
                append_test_varint(payload, v);
            }
            return sytr_frame({'S', 'Y', 'T', 'R', 2}, payload);
        };

    const std::vector<std::pair<std::string, std::string>> cases = {
        {"hostile process count", hostile_header(UINT64_MAX, 0, {})},
        {"hostile edge count", hostile_header(3, UINT64_MAX, {})},
        {"edge endpoint out of range", hostile_header(2, 1, {5, 1})},
        {"trailing payload garbage", hostile_header(2, 1, {0, 1, 99})},
    };
    for (const auto& [what, bytes] : cases) {
        std::istringstream in(bytes);
        EXPECT_THROW(StreamingTraceReader reader(in), std::invalid_argument)
            << what;
    }

    // Behind a genuinely valid header, hostile chunk frames: a lying
    // record count, an out-of-range endpoint, a self-message, and an
    // unknown record kind must each throw before any record is yielded.
    const std::string header = hostile_header(2, 1, {0, 1});
    const auto hostile_chunk =
        [&](const std::vector<std::uint8_t>& payload) {
            return header + sytr_frame({'C'}, payload);
        };
    const auto record = [](std::uint8_t kind,
                           const std::vector<std::uint64_t>& fields) {
        std::vector<std::uint8_t> bytes{kind};
        for (const std::uint64_t v : fields) append_test_varint(bytes, v);
        return bytes;
    };
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> chunks;
    {
        std::vector<std::uint8_t> lying_count;
        append_test_varint(lying_count, UINT64_MAX);
        chunks.emplace_back("hostile record count", lying_count);

        std::vector<std::uint8_t> bad_endpoint;
        append_test_varint(bad_endpoint, 1);
        const auto r1 = record(0, {0, 7});
        bad_endpoint.insert(bad_endpoint.end(), r1.begin(), r1.end());
        chunks.emplace_back("endpoint out of range", bad_endpoint);

        std::vector<std::uint8_t> self_message;
        append_test_varint(self_message, 1);
        const auto r2 = record(0, {1, 1});
        self_message.insert(self_message.end(), r2.begin(), r2.end());
        chunks.emplace_back("self-message", self_message);

        std::vector<std::uint8_t> bad_kind;
        append_test_varint(bad_kind, 1);
        const auto r3 = record(9, {0});
        bad_kind.insert(bad_kind.end(), r3.begin(), r3.end());
        chunks.emplace_back("unknown record kind", bad_kind);
    }
    for (const auto& [what, payload] : chunks) {
        std::istringstream in(hostile_chunk(payload));
        StreamingTraceReader reader(in);
        EXPECT_THROW((void)reader.next(), std::invalid_argument) << what;
    }

    // Sanity: the same header followed by a well-formed chunk and end
    // frame parses cleanly — the rejections above are the guards, not
    // an over-strict reader.
    std::vector<std::uint8_t> good_payload;
    append_test_varint(good_payload, 1);
    const auto good_record = record(0, {0, 1});
    good_payload.insert(good_payload.end(), good_record.begin(),
                        good_record.end());
    std::vector<std::uint8_t> end_payload;
    append_test_varint(end_payload, 1);
    std::istringstream in(header + sytr_frame({'C'}, good_payload) +
                          sytr_frame({'E'}, end_payload));
    StreamingTraceReader reader(in);
    std::uint64_t events = 0;
    while (reader.next().has_value()) ++events;
    EXPECT_EQ(events, 1u);
    EXPECT_TRUE(reader.finished());
}

// ---- SpillStore chunk codec (common/spill_store.hpp) -------------------

TEST(FuzzParsers, SpillChunkRandomSoup) {
    Rng rng(5025);
    std::uint64_t rejects = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> bytes(rng.below(96));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
        try {
            (void)SpillStore::decode_chunk(bytes, rng.below(4));
        } catch (const SpillError&) {
            ++rejects;
        }
    }
    // The magic + checksum make accidental acceptance implausible.
    EXPECT_EQ(rejects, 2000u);
}

TEST(FuzzParsers, SpillChunkTruncationsAndTrailingBytes) {
    std::vector<std::uint8_t> payload(100);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 3);
    }
    std::vector<std::uint8_t> frame;
    SpillStore::encode_chunk(11, payload, frame);
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        const std::span<const std::uint8_t> prefix(frame.data(), cut);
        EXPECT_THROW((void)SpillStore::decode_chunk(prefix, 11), SpillError)
            << "cut " << cut;
    }
    auto padded = frame;
    padded.push_back(0);
    EXPECT_THROW((void)SpillStore::decode_chunk(padded, 11), SpillError);
}

TEST(FuzzParsers, SpillChunkMutatedValidFrames) {
    Rng rng(5026);
    std::vector<std::uint8_t> payload(64);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(0xA0 + i);
    }
    std::vector<std::uint8_t> frame;
    SpillStore::encode_chunk(3, payload, frame);
    for (int trial = 0; trial < 1500; ++trial) {
        auto mutated = frame;
        const std::size_t edits = 1 + rng.below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.below(mutated.size());
            switch (rng.below(3)) {
                case 0:
                    mutated[pos] ^=
                        static_cast<std::uint8_t>(1u << rng.below(8));
                    break;
                case 1: mutated.erase(mutated.begin() +
                                      static_cast<long>(pos)); break;
                default:
                    mutated.insert(mutated.begin() + static_cast<long>(pos),
                                   static_cast<std::uint8_t>(rng.below(256)));
                    break;
            }
        }
        try {
            const auto decoded = SpillStore::decode_chunk(mutated, 3);
            // Only a checksum collision decodes — content must match.
            EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                                   payload.begin(), payload.end()));
        } catch (const SpillError&) {
            // expected for nearly every mutation
        }
    }
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
