#include "recover/snapshot.hpp"

#include <limits>
#include <string>
#include <utility>

#include "clocks/wire.hpp"
#include "common/checksum.hpp"

namespace syncts {

namespace {

constexpr std::uint8_t kSnapshotMagic[4] = {'S', 'Y', 'S', 'N'};
constexpr std::uint64_t kSnapshotVersion = 1;

/// decode_varint rethrown in recovery's error domain.
std::uint64_t read_varint(std::span<const std::uint8_t> bytes,
                          std::size_t& offset) {
    try {
        return decode_varint(bytes, offset);
    } catch (const WireError& error) {
        throw RecoveryError(RecoveryError::Kind::truncated, error.what());
    }
}

std::vector<std::uint8_t> read_blob(std::span<const std::uint8_t> bytes,
                                    std::size_t& offset) {
    const std::uint64_t length = read_varint(bytes, offset);
    if (length > bytes.size() - offset) {
        throw RecoveryError(RecoveryError::Kind::truncated,
                            "snapshot blob length exceeds the frame");
    }
    const auto begin = bytes.begin() + static_cast<std::ptrdiff_t>(offset);
    offset += length;
    return std::vector<std::uint8_t>(begin,
                                     begin + static_cast<std::ptrdiff_t>(
                                                 length));
}

void write_blob(std::span<const std::uint8_t> blob,
                std::vector<std::uint8_t>& out) {
    encode_varint(blob.size(), out);
    out.insert(out.end(), blob.begin(), blob.end());
}

void write_window(const FrameWindow& window, std::vector<std::uint8_t>& out) {
    encode_varint(window.capacity(), out);
    encode_varint(window.size(), out);
    window.for_each([&](const FrameWindow::Entry& entry) {
        encode_varint(entry.sequence, out);
        write_blob(entry.frame, out);
    });
}

FrameWindow read_window(std::span<const std::uint8_t> bytes,
                        std::size_t& offset) {
    const std::uint64_t capacity = read_varint(bytes, offset);
    if (capacity == 0 || capacity > bytes.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot window capacity is implausible");
    }
    FrameWindow window(capacity);
    const std::uint64_t count = read_varint(bytes, offset);
    if (count > capacity) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot window holds more than its capacity");
    }
    std::uint64_t previous = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t sequence = read_varint(bytes, offset);
        if (i > 0 && sequence <= previous) {
            throw RecoveryError(RecoveryError::Kind::malformed,
                                "snapshot window sequences not increasing");
        }
        previous = sequence;
        const std::vector<std::uint8_t> frame = read_blob(bytes, offset);
        window.put(sequence, frame);
    }
    return window;
}

ProcessId read_process(std::span<const std::uint8_t> bytes,
                       std::size_t& offset) {
    const std::uint64_t value = read_varint(bytes, offset);
    if (value > kNoProcess) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot process id out of range");
    }
    return static_cast<ProcessId>(value);
}

}  // namespace

void encode_snapshot_into(const Snapshot& snapshot,
                          std::vector<std::uint8_t>& out) {
    const std::size_t start = out.size();
    out.insert(out.end(), std::begin(kSnapshotMagic),
               std::end(kSnapshotMagic));
    encode_varint(kSnapshotVersion, out);
    encode_varint(snapshot.wal_lsn, out);
    const ProcessState& state = snapshot.state;
    encode_varint(state.self, out);
    encode_varint(state.epoch, out);
    encode_varint(state.cursor, out);
    encode_varint(state.steps, out);
    encode_varint(state.clock.size(), out);
    for (const std::uint64_t word : state.clock) encode_varint(word, out);
    out.push_back(state.outstanding.active ? 1 : 0);
    if (state.outstanding.active) {
        encode_varint(state.outstanding.receiver, out);
        encode_varint(state.outstanding.sequence, out);
        encode_varint(state.outstanding.message, out);
        write_blob(state.outstanding.frame, out);
    }
    encode_varint(state.out.size(), out);
    for (const OutChannelState& channel : state.out) {
        encode_varint(channel.peer, out);
        encode_varint(channel.next_sequence, out);
        write_window(channel.req_window, out);
    }
    encode_varint(state.in.size(), out);
    for (const InChannelState& channel : state.in) {
        encode_varint(channel.peer, out);
        encode_varint(channel.last_committed, out);
        write_window(channel.ack_window, out);
    }
    common::append_checksum_trailer(out, start);
}

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snapshot) {
    std::vector<std::uint8_t> out;
    encode_snapshot_into(snapshot, out);
    return out;
}

Snapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < sizeof(kSnapshotMagic) + 8) {
        throw RecoveryError(RecoveryError::Kind::truncated,
                            "snapshot shorter than magic plus checksum");
    }
    const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 8);
    const std::uint64_t stored =
        common::read_checksum_trailer(bytes, body.size());
    if (common::fnv1a64(body) != stored) {
        throw RecoveryError(RecoveryError::Kind::checksum_mismatch,
                            "snapshot checksum mismatch");
    }
    std::size_t offset = 0;
    for (const std::uint8_t magic : kSnapshotMagic) {
        if (body[offset++] != magic) {
            throw RecoveryError(RecoveryError::Kind::bad_magic,
                                "snapshot magic mismatch");
        }
    }
    const std::uint64_t version = read_varint(body, offset);
    if (version != kSnapshotVersion) {
        throw RecoveryError(RecoveryError::Kind::unsupported_version,
                            "snapshot from an unsupported format version");
    }
    Snapshot snapshot;
    snapshot.wal_lsn = read_varint(body, offset);
    ProcessState& state = snapshot.state;
    state.self = read_process(body, offset);
    const std::uint64_t epoch = read_varint(body, offset);
    if (epoch > std::numeric_limits<EpochId>::max()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot epoch exceeds the epoch id range");
    }
    state.epoch = static_cast<EpochId>(epoch);
    state.cursor = read_varint(body, offset);
    state.steps = read_varint(body, offset);
    const std::uint64_t clock_width = read_varint(body, offset);
    if (clock_width > body.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot clock width exceeds the frame");
    }
    state.clock.reserve(clock_width);
    for (std::uint64_t i = 0; i < clock_width; ++i) {
        state.clock.push_back(read_varint(body, offset));
    }
    if (offset >= body.size()) {
        throw RecoveryError(RecoveryError::Kind::truncated,
                            "snapshot ends before the outstanding flag");
    }
    const std::uint8_t active = body[offset++];
    if (active > 1) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot outstanding flag is not boolean");
    }
    if (active == 1) {
        state.outstanding.active = true;
        state.outstanding.receiver = read_process(body, offset);
        state.outstanding.sequence = read_varint(body, offset);
        state.outstanding.message = read_varint(body, offset);
        state.outstanding.frame = read_blob(body, offset);
    }
    const std::uint64_t out_count = read_varint(body, offset);
    if (out_count > body.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot out-channel count exceeds the frame");
    }
    state.out.reserve(out_count);
    for (std::uint64_t i = 0; i < out_count; ++i) {
        OutChannelState channel;
        channel.peer = read_process(body, offset);
        channel.next_sequence = read_varint(body, offset);
        channel.req_window = read_window(body, offset);
        state.out.push_back(std::move(channel));
    }
    const std::uint64_t in_count = read_varint(body, offset);
    if (in_count > body.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot in-channel count exceeds the frame");
    }
    state.in.reserve(in_count);
    for (std::uint64_t i = 0; i < in_count; ++i) {
        InChannelState channel;
        channel.peer = read_process(body, offset);
        channel.last_committed = read_varint(body, offset);
        channel.ack_window = read_window(body, offset);
        state.in.push_back(std::move(channel));
    }
    if (offset != body.size()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "snapshot has undecoded trailing bytes");
    }
    return snapshot;
}

}  // namespace syncts
