#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "recover/frame_window.hpp"
#include "recover/recovery_error.hpp"

/// \file snapshot.hpp
/// Versioned, checksummed checkpoint of a process's full recovery state
/// (docs/RECOVERY.md).
///
/// The paper's synchronous model makes this small: a process's timestamp
/// behaviour is fully determined by its width-d clock vector plus the
/// sequence-numbered rendezvous history per channel. A snapshot therefore
/// carries the clock vector, the epoch it is relative to, the per-channel
/// sequence state with the retained frame windows, the in-flight send (if
/// any), and the WAL position from which replay must resume. Everything
/// after `wal_lsn` is reconstructed by RecoveryManager from the log;
/// everything before it has been folded into this snapshot, which is what
/// licenses truncating the log prefix (the stability rule).

namespace syncts {

/// Directed out-channel (self → peer): the last assigned sequence number
/// and the window of recently sent REQ frames (rejoin retransmission).
struct OutChannelState {
    ProcessId peer = 0;
    std::uint64_t next_sequence = 0;
    FrameWindow req_window;
};

/// Directed in-channel (peer → self): the highest committed sequence and
/// the window of recently sent ACK frames (duplicate/rejoin replay).
struct InChannelState {
    ProcessId peer = 0;
    std::uint64_t last_committed = 0;
    FrameWindow ack_window;
};

/// The one REQ a process may have in flight (rendezvous blocks the
/// sender, so there is at most one). The frame bytes are kept verbatim:
/// a restart retransmits exactly what was on the wire.
struct OutstandingState {
    bool active = false;
    ProcessId receiver = 0;
    std::uint64_t sequence = 0;
    std::uint64_t message = 0;
    std::vector<std::uint8_t> frame;
};

/// A process's complete durable protocol state. `clock` is the width-d
/// epoch-relative vector of the process's OnlineProcessClock; a restart
/// rebinds the clock to `epoch`'s decomposition and restores the vector
/// with OnlineProcessClock::restore_from.
struct ProcessState {
    ProcessId self = 0;
    EpochId epoch = 0;
    /// Completed script steps (commits + accepted ACKs) in `epoch`.
    std::uint64_t cursor = 0;
    /// Lifetime protocol steps across epochs — the crash-rule progress
    /// counter, rewound together with everything else.
    std::uint64_t steps = 0;
    std::vector<std::uint64_t> clock;
    std::vector<OutChannelState> out;  ///< sorted by peer
    std::vector<InChannelState> in;    ///< sorted by peer
    OutstandingState outstanding;
};

/// A checkpoint: the state plus the WAL position replay resumes from.
struct Snapshot {
    ProcessState state;
    std::uint64_t wal_lsn = 0;
};

/// Serializes the snapshot: "SYSN" magic, varint version, the state
/// fields as varints (frames length-prefixed verbatim), trailed by an
/// 4-byte little-endian CRC32C checksum of everything before it.
void encode_snapshot_into(const Snapshot& snapshot,
                          std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> encode_snapshot(const Snapshot& snapshot);

/// Inverse of encode_snapshot. Throws RecoveryError on damage. The
/// windows of the decoded state keep their serialized capacities.
Snapshot decode_snapshot(std::span<const std::uint8_t> bytes);

}  // namespace syncts
