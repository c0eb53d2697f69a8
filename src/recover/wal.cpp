#include "recover/wal.hpp"

#include <limits>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace syncts {

void encode_wal_record_into(const WalRecord& record,
                            std::vector<std::uint8_t>& out) {
    // Header varints at their common sizes, then the two blobs.
    codec::Writer writer(out, 24 + record.frame.size() + record.aux.size());
    writer.varint(record.lsn);
    writer.byte(static_cast<std::uint8_t>(record.type));
    writer.varint(record.peer);
    writer.varint(record.sequence);
    writer.varint(record.message);
    writer.varint(record.epoch);
    writer.blob(record.frame);
    writer.blob(record.aux);
    writer.seal();
}

WalRecord decode_wal_record(std::span<const std::uint8_t> bytes) {
    RecoveryReader in(bytes, throw_recovery_error);
    in.need(codec::kTrailerBytes + 2, "WAL record shorter than its checksum");
    in.unseal();
    WalRecord record;
    record.lsn = in.varint();
    const std::uint8_t type = in.u8();
    if (type < static_cast<std::uint8_t>(WalRecordType::send) ||
        type > static_cast<std::uint8_t>(WalRecordType::epoch)) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "WAL record has an unknown type");
    }
    record.type = static_cast<WalRecordType>(type);
    const std::uint64_t peer = in.varint();
    if (peer > kNoProcess) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "WAL record peer out of range");
    }
    record.peer = static_cast<ProcessId>(peer);
    record.sequence = in.varint();
    record.message = in.varint();
    const std::uint64_t epoch = in.varint();
    if (epoch > std::numeric_limits<EpochId>::max()) {
        throw RecoveryError(RecoveryError::Kind::malformed,
                            "WAL record epoch exceeds the epoch id range");
    }
    record.epoch = static_cast<EpochId>(epoch);
    const std::span<const std::uint8_t> frame = in.blob();
    record.frame.assign(frame.begin(), frame.end());
    const std::span<const std::uint8_t> aux = in.blob();
    record.aux.assign(aux.begin(), aux.end());
    in.end();
    return record;
}

Wal::Wal(std::uint64_t flush_interval) : flush_interval_(flush_interval) {
    SYNCTS_REQUIRE(flush_interval_ >= 1,
                   "WAL flush interval must be >= 1 record");
}

std::uint64_t Wal::append(WalRecord record) {
    record.lsn = next_lsn_++;
    Stored stored;
    stored.lsn = record.lsn;
    encode_wal_record_into(record, stored.bytes);
    buffered_.push_back(std::move(stored));
    ++appends_;
    if (buffered_.size() >= flush_interval_) flush();
    return record.lsn;
}

void Wal::flush() {
    if (buffered_.empty()) return;
    while (!buffered_.empty()) {
        durable_.push_back(std::move(buffered_.front()));
        buffered_.pop_front();
    }
    ++flushes_;
}

void Wal::drop_unflushed() {
    // The dropped records are gone forever, so their LSNs are reusable —
    // and must be reused: the buffered tail holds the highest assigned
    // LSNs, and leaving a hole behind would make the next appends
    // discontiguous with the durable prefix, poisoning every later
    // replay with a phantom log gap.
    dropped_ += buffered_.size();
    next_lsn_ -= buffered_.size();
    buffered_.clear();
}

void Wal::truncate(std::uint64_t stable_lsn) {
    while (!durable_.empty() && durable_.front().lsn < stable_lsn) {
        durable_.pop_front();
        ++truncated_;
    }
}

std::uint64_t Wal::first_lsn() const noexcept {
    if (!durable_.empty()) return durable_.front().lsn;
    if (!buffered_.empty()) return buffered_.front().lsn;
    return next_lsn_;
}

std::vector<WalRecord> Wal::replay(std::uint64_t from_lsn) const {
    if (from_lsn < first_lsn()) {
        // Records the caller needs were truncated (or never survived a
        // crash): even an empty result would silently skip history.
        throw RecoveryError(RecoveryError::Kind::log_gap,
                            "WAL replay starts before the retained prefix");
    }
    std::vector<WalRecord> records;
    std::uint64_t expected = 0;
    for (const Stored& stored : durable_) {
        if (stored.lsn < from_lsn) continue;
        WalRecord record = decode_wal_record(stored.bytes);
        if (record.lsn != stored.lsn) {
            throw RecoveryError(RecoveryError::Kind::malformed,
                                "WAL record LSN disagrees with its index");
        }
        if (expected != 0 && record.lsn != expected) {
            throw RecoveryError(RecoveryError::Kind::log_gap,
                                "WAL replay found a gap in the LSN sequence");
        }
        expected = record.lsn + 1;
        records.push_back(std::move(record));
    }
    return records;
}

}  // namespace syncts
