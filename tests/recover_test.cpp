#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "recover/frame_window.hpp"
#include "recover/recovery_manager.hpp"
#include "recover/snapshot.hpp"
#include "recover/wal.hpp"

/// Unit coverage of the crash-recovery building blocks (docs/
/// RECOVERY.md): the frame window, the WAL, the snapshot codec and the
/// recovery manager's failure modes.

namespace syncts {
namespace {

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
    std::vector<std::uint8_t> out;
    for (const int v : values) out.push_back(static_cast<std::uint8_t>(v));
    return out;
}

TEST(Recover, FrameWindowRetainsNewestAndOverwritesInPlace) {
    FrameWindow window(3);
    EXPECT_TRUE(window.empty());
    for (std::uint64_t s = 1; s <= 5; ++s) {
        window.put(s, bytes_of({static_cast<int>(s)}));
    }
    EXPECT_EQ(window.size(), 3u);
    EXPECT_EQ(window.find(2), nullptr);  // pruned
    ASSERT_NE(window.find(3), nullptr);
    ASSERT_NE(window.find(5), nullptr);
    EXPECT_EQ(*window.find(5), bytes_of({5}));
    // Re-putting a retained sequence overwrites in place…
    window.put(4, bytes_of({44}));
    EXPECT_EQ(*window.find(4), bytes_of({44}));
    EXPECT_EQ(window.size(), 3u);
    // …and a sequence older than the window is ignored.
    window.put(1, bytes_of({11}));
    EXPECT_EQ(window.find(1), nullptr);
    EXPECT_THROW(FrameWindow(0), std::invalid_argument);
}

WalRecord make_record(std::uint64_t sequence) {
    WalRecord record;
    record.type = WalRecordType::commit;
    record.peer = 2;
    record.sequence = sequence;
    record.message = sequence * 7;
    record.epoch = 1;
    record.frame = bytes_of({1, 2, 3});
    record.aux = bytes_of({4, 5});
    return record;
}

TEST(Recover, WalFlushTruncateAndCrashSemantics) {
    Wal wal(3);
    EXPECT_EQ(wal.append(make_record(1)), 1u);
    EXPECT_EQ(wal.append(make_record(2)), 2u);
    EXPECT_EQ(wal.buffered_records(), 2u);  // under the flush interval
    EXPECT_EQ(wal.append(make_record(3)), 3u);
    EXPECT_EQ(wal.buffered_records(), 0u);  // auto group flush
    EXPECT_EQ(wal.durable_records(), 3u);

    wal.append(make_record(4));
    wal.drop_unflushed();  // the crash loses the unflushed tail…
    EXPECT_EQ(wal.dropped_records(), 1u);
    const std::vector<WalRecord> replayed = wal.replay(1);
    ASSERT_EQ(replayed.size(), 3u);
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        EXPECT_EQ(replayed[i].lsn, i + 1);
        EXPECT_EQ(replayed[i].sequence, i + 1);
        EXPECT_EQ(replayed[i].frame, bytes_of({1, 2, 3}));
    }
    // …and the next append reuses the lost LSN (contiguity preserved).
    EXPECT_EQ(wal.append(make_record(4)), 4u);
    wal.flush();
    EXPECT_EQ(wal.replay(4).size(), 1u);

    wal.truncate(4);
    EXPECT_EQ(wal.truncated_records(), 3u);
    EXPECT_EQ(wal.first_lsn(), 4u);
    EXPECT_EQ(wal.replay(4).size(), 1u);
    // Replaying from before the truncation point is a log gap.
    EXPECT_THROW(wal.replay(2), RecoveryError);
}

TEST(Recover, WalRecordCodecRejectsDamage) {
    std::vector<std::uint8_t> encoded;
    WalRecord record = make_record(9);
    record.lsn = 12;
    encode_wal_record_into(record, encoded);
    const WalRecord decoded = decode_wal_record(encoded);
    EXPECT_EQ(decoded.lsn, 12u);
    EXPECT_EQ(decoded.sequence, 9u);
    EXPECT_EQ(decoded.aux, record.aux);

    for (std::size_t at = 0; at < encoded.size(); at += 3) {
        std::vector<std::uint8_t> damaged = encoded;
        damaged[at] ^= 0x40;
        EXPECT_THROW(decode_wal_record(damaged), RecoveryError)
            << "byte " << at;
    }
    EXPECT_THROW(decode_wal_record(std::span<const std::uint8_t>(
                     encoded.data(), encoded.size() - 2)),
                 RecoveryError);
}

Snapshot make_snapshot() {
    Snapshot snapshot;
    snapshot.state.self = 1;
    snapshot.state.epoch = 2;
    snapshot.state.cursor = 5;
    snapshot.state.steps = 17;
    snapshot.state.clock = {3, 0, 9};
    OutChannelState out;
    out.peer = 0;
    out.next_sequence = 6;
    out.req_window = FrameWindow(4);
    out.req_window.put(5, bytes_of({10}));
    out.req_window.put(6, bytes_of({11, 12}));
    snapshot.state.out.push_back(out);
    InChannelState in;
    in.peer = 2;
    in.last_committed = 3;
    in.ack_window = FrameWindow(4);
    in.ack_window.put(3, bytes_of({13}));
    snapshot.state.in.push_back(in);
    snapshot.state.outstanding.active = true;
    snapshot.state.outstanding.receiver = 0;
    snapshot.state.outstanding.sequence = 6;
    snapshot.state.outstanding.message = 41;
    snapshot.state.outstanding.frame = bytes_of({11, 12});
    snapshot.wal_lsn = 23;
    return snapshot;
}

TEST(Recover, SnapshotRoundTripsAndRejectsDamage) {
    const Snapshot snapshot = make_snapshot();
    const std::vector<std::uint8_t> encoded = encode_snapshot(snapshot);
    const Snapshot decoded = decode_snapshot(encoded);
    EXPECT_EQ(decoded.wal_lsn, 23u);
    EXPECT_EQ(decoded.state.self, 1u);
    EXPECT_EQ(decoded.state.epoch, 2u);
    EXPECT_EQ(decoded.state.cursor, 5u);
    EXPECT_EQ(decoded.state.steps, 17u);
    EXPECT_EQ(decoded.state.clock, snapshot.state.clock);
    ASSERT_EQ(decoded.state.out.size(), 1u);
    EXPECT_EQ(decoded.state.out[0].next_sequence, 6u);
    EXPECT_EQ(decoded.state.out[0].req_window.capacity(), 4u);
    ASSERT_NE(decoded.state.out[0].req_window.find(6), nullptr);
    EXPECT_EQ(*decoded.state.out[0].req_window.find(6), bytes_of({11, 12}));
    ASSERT_EQ(decoded.state.in.size(), 1u);
    EXPECT_EQ(decoded.state.in[0].last_committed, 3u);
    ASSERT_TRUE(decoded.state.outstanding.active);
    EXPECT_EQ(decoded.state.outstanding.message, 41u);

    // Re-encoding the decoded snapshot is byte-identical (canonical
    // form — what makes checkpoint bytes comparable across restarts).
    EXPECT_EQ(encode_snapshot(decoded), encoded);

    for (std::size_t at = 0; at < encoded.size(); at += 5) {
        std::vector<std::uint8_t> damaged = encoded;
        damaged[at] ^= 0x10;
        EXPECT_THROW(decode_snapshot(damaged), RecoveryError)
            << "byte " << at;
    }
    EXPECT_THROW(decode_snapshot(std::span<const std::uint8_t>(
                     encoded.data(), 7)),
                 RecoveryError);
    EXPECT_THROW(decode_snapshot(std::vector<std::uint8_t>{}),
                 RecoveryError);
}

TEST(Recover, RecoveryManagerRejectsGapsAndDamage) {
    const Graph topology = topology::path(3);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    const auto provider = [&](EpochId) { return decomposition; };

    Snapshot snapshot;
    snapshot.state.self = 0;
    snapshot.state.clock.resize(decomposition->size(), 0);
    Wal wal(1);
    snapshot.wal_lsn = wal.next_lsn();
    const std::vector<std::uint8_t> good = encode_snapshot(snapshot);

    // Empty WAL + fresh snapshot recovers to the captured state.
    const RecoverOutcome outcome =
        RecoveryManager::recover(good, wal, provider);
    EXPECT_EQ(outcome.replayed_records, 0u);
    EXPECT_EQ(outcome.state.epoch, 0u);

    // A WAL whose retained suffix starts after the snapshot's stability
    // point is unusable: records the snapshot needs are gone.
    WalRecord record;
    record.type = WalRecordType::epoch;
    record.epoch = 1;
    wal.append(record);
    wal.append(record);
    wal.flush();
    wal.truncate(3);
    EXPECT_THROW(RecoveryManager::recover(good, wal, provider),
                 RecoveryError);

    std::vector<std::uint8_t> damaged = good;
    damaged[damaged.size() / 2] ^= 0x08;
    Wal empty(1);
    EXPECT_THROW(RecoveryManager::recover(damaged, empty, provider),
                 RecoveryError);
}

}  // namespace
}  // namespace syncts
