#include "recover/snapshot.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace syncts {

namespace {

constexpr std::uint8_t kSnapshotMagic[4] = {'S', 'Y', 'S', 'N'};
constexpr std::uint64_t kSnapshotVersion = 1;

void write_window(codec::Writer& writer, const FrameWindow& window) {
    writer.varint(window.capacity());
    writer.varint(window.size());
    window.for_each([&](const FrameWindow::Entry& entry) {
        writer.varint(entry.sequence);
        writer.blob(entry.frame);
    });
}

FrameWindow read_window(RecoveryReader& in) {
    const std::uint64_t capacity = in.varint();
    if (capacity == 0 || capacity > in.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot window capacity is implausible");
    }
    FrameWindow window(capacity);
    const std::uint64_t count = in.varint();
    if (count > capacity) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot window holds more than its capacity");
    }
    std::uint64_t previous = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t sequence = in.varint();
        if (i > 0 && sequence <= previous) {
            throw RecoveryError(RecoveryError::Kind::malformed,
                                "snapshot window sequences not increasing");
        }
        previous = sequence;
        window.put(sequence, in.blob());
    }
    return window;
}

ProcessId read_process(RecoveryReader& in) {
    const std::uint64_t value = in.varint();
    if (value > kNoProcess) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot process id out of range");
    }
    return static_cast<ProcessId>(value);
}

}  // namespace

void encode_snapshot_into(const Snapshot& snapshot,
                          std::vector<std::uint8_t>& out) {
    const ProcessState& state = snapshot.state;
    // The clock and the outstanding frame; the windows grow the record.
    codec::Writer writer(out, 32 + 2 * state.clock.size() +
                                  state.outstanding.frame.size());
    writer.bytes(kSnapshotMagic);
    writer.varint(kSnapshotVersion);
    writer.varint(snapshot.wal_lsn);
    writer.varint(state.self);
    writer.varint(state.epoch);
    writer.varint(state.cursor);
    writer.varint(state.steps);
    writer.varint(state.clock.size());
    writer.varints(state.clock);
    writer.byte(state.outstanding.active ? 1 : 0);
    if (state.outstanding.active) {
        writer.varint(state.outstanding.receiver);
        writer.varint(state.outstanding.sequence);
        writer.varint(state.outstanding.message);
        writer.blob(state.outstanding.frame);
    }
    writer.varint(state.out.size());
    for (const OutChannelState& channel : state.out) {
        writer.varint(channel.peer);
        writer.varint(channel.next_sequence);
        write_window(writer, channel.req_window);
    }
    writer.varint(state.in.size());
    for (const InChannelState& channel : state.in) {
        writer.varint(channel.peer);
        writer.varint(channel.last_committed);
        write_window(writer, channel.ack_window);
    }
    writer.seal();
}

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snapshot) {
    std::vector<std::uint8_t> out;
    encode_snapshot_into(snapshot, out);
    return out;
}

Snapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
    RecoveryReader in(bytes, throw_recovery_error);
    in.need(sizeof(kSnapshotMagic) + codec::kTrailerBytes,
            "snapshot shorter than magic plus checksum");
    in.unseal();
    if (!std::ranges::equal(in.bytes(sizeof(kSnapshotMagic)),
                            kSnapshotMagic)) {
        throw RecoveryError(RecoveryError::Kind::bad_magic,
                            "snapshot magic mismatch");
    }
    const std::uint64_t version = in.varint();
    if (version != kSnapshotVersion) {
        throw RecoveryError(RecoveryError::Kind::unsupported_version,
                            "snapshot from an unsupported format version");
    }
    Snapshot snapshot;
    snapshot.wal_lsn = in.varint();
    ProcessState& state = snapshot.state;
    state.self = read_process(in);
    const std::uint64_t epoch = in.varint();
    if (epoch > std::numeric_limits<EpochId>::max()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot epoch exceeds the epoch id range");
    }
    state.epoch = static_cast<EpochId>(epoch);
    state.cursor = in.varint();
    state.steps = in.varint();
    const std::uint64_t clock_width = in.varint();
    if (clock_width > in.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot clock width exceeds the frame");
    }
    state.clock.resize(clock_width);
    in.varints(state.clock);
    const std::uint8_t active = in.u8();
    if (active > 1) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot outstanding flag is not boolean");
    }
    if (active == 1) {
        state.outstanding.active = true;
        state.outstanding.receiver = read_process(in);
        state.outstanding.sequence = in.varint();
        state.outstanding.message = in.varint();
        const std::span<const std::uint8_t> frame = in.blob();
        state.outstanding.frame.assign(frame.begin(), frame.end());
    }
    const std::uint64_t out_count = in.varint();
    if (out_count > in.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot out-channel count exceeds the frame");
    }
    state.out.reserve(out_count);
    for (std::uint64_t i = 0; i < out_count; ++i) {
        OutChannelState channel;
        channel.peer = read_process(in);
        channel.next_sequence = in.varint();
        channel.req_window = read_window(in);
        state.out.push_back(std::move(channel));
    }
    const std::uint64_t in_count = in.varint();
    if (in_count > in.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot in-channel count exceeds the frame");
    }
    state.in.reserve(in_count);
    for (std::uint64_t i = 0; i < in_count; ++i) {
        InChannelState channel;
        channel.peer = read_process(in);
        channel.last_committed = in.varint();
        channel.ack_window = read_window(in);
        state.in.push_back(std::move(channel));
    }
    in.end();
    return snapshot;
}

}  // namespace syncts
