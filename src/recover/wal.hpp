#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "recover/recovery_error.hpp"

/// \file wal.hpp
/// Append-only write-ahead log of rendezvous wire frames
/// (docs/RECOVERY.md).
///
/// Every protocol step that advances a process's clock — sending a REQ,
/// committing a received REQ, accepting an ACK, crossing an epoch
/// barrier — appends one record holding the frame bytes involved.
/// Records become durable at *flush points*: a group flush every
/// `flush_interval` appends (the fsync-batching a disk-backed log would
/// do), so a crash loses at most one interval's tail. RecoveryManager
/// replays durable records over the latest snapshot; the snapshot's
/// `wal_lsn` marks the stability point, and `truncate()` garbage-collects
/// the prefix before it — the Drummond–Barbosa rule: state known folded
/// into a checkpoint everywhere it matters need not be kept, which
/// bounds log growth on long runs.
///
/// The log models a device in memory — the simulated runtime's crashes
/// are injected (`drop_unflushed()`), not real — but the byte format is
/// the real one: each record is varint-framed and individually
/// checksummed, and replay validates checksums and LSN continuity.

namespace syncts {

enum class WalRecordType : std::uint8_t {
    send = 1,    ///< REQ handed to the network (frame = REQ bytes)
    commit = 2,  ///< received REQ committed (frame = REQ, aux = sent ACK)
    ack = 3,     ///< ACK accepted, send completed (aux = received ACK)
    epoch = 4,   ///< epoch barrier crossed into `epoch`
};

struct WalRecord {
    WalRecordType type = WalRecordType::send;
    std::uint64_t lsn = 0;  ///< assigned by append(), contiguous from 1
    ProcessId peer = 0;     ///< channel partner (unused for epoch records)
    std::uint64_t sequence = 0;
    std::uint64_t message = 0;
    EpochId epoch = 0;  ///< engine epoch when the step executed
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> aux;
};

class Wal {
public:
    /// `flush_interval` appends per group flush (>= 1; 1 = every record
    /// durable immediately).
    explicit Wal(std::uint64_t flush_interval = 4);

    /// Serializes and buffers `record`, assigning and returning its LSN.
    /// Auto-flushes when a full flush interval has accumulated.
    std::uint64_t append(WalRecord record);

    /// Makes every buffered record durable (a flush point).
    void flush();

    /// Crash model: the unflushed tail is lost. Its LSNs are reused by
    /// later appends, keeping the log contiguous with the durable prefix.
    void drop_unflushed();

    /// Garbage-collects durable records with lsn < `stable_lsn` — legal
    /// once a snapshot with wal_lsn >= stable_lsn is itself durable.
    void truncate(std::uint64_t stable_lsn);

    /// Decodes the durable records with lsn >= `from_lsn`, validating
    /// per-record checksums and LSN contiguity. Throws RecoveryError,
    /// including a log_gap when `from_lsn` precedes the retained prefix
    /// (records the caller needs were truncated or lost).
    std::vector<WalRecord> replay(std::uint64_t from_lsn) const;

    /// LSN the next append will get (also: one past the last assigned).
    std::uint64_t next_lsn() const noexcept { return next_lsn_; }

    /// Oldest retained durable LSN (== next_lsn() when empty).
    std::uint64_t first_lsn() const noexcept;

    std::size_t durable_records() const noexcept { return durable_.size(); }
    std::size_t buffered_records() const noexcept { return buffered_.size(); }
    std::uint64_t flush_interval() const noexcept { return flush_interval_; }

    /// Lifetime stats for the recover_* instrumentation.
    std::uint64_t appends() const noexcept { return appends_; }
    std::uint64_t flushes() const noexcept { return flushes_; }
    std::uint64_t truncated_records() const noexcept { return truncated_; }
    std::uint64_t dropped_records() const noexcept { return dropped_; }

private:
    struct Stored {
        std::uint64_t lsn = 0;
        std::vector<std::uint8_t> bytes;
    };

    std::uint64_t flush_interval_;
    std::uint64_t next_lsn_ = 1;
    std::deque<Stored> durable_;
    std::deque<Stored> buffered_;
    std::uint64_t appends_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t truncated_ = 0;
    std::uint64_t dropped_ = 0;
};

/// Record byte format (exposed for tests/fuzzing): varint lsn, one type
/// byte, varint peer/sequence/message/epoch, varint-length-prefixed frame
/// and aux, trailed by a 4-byte little-endian CRC32C checksum.
void encode_wal_record_into(const WalRecord& record,
                            std::vector<std::uint8_t>& out);
WalRecord decode_wal_record(std::span<const std::uint8_t> bytes);

}  // namespace syncts
