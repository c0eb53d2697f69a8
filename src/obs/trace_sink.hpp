#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/codec.hpp"

/// \file trace_sink.hpp
/// Typed causal trace events captured into a fixed-capacity ring buffer.
///
/// Every event carries both timebases the system has: the simulated
/// (virtual) clock of the discrete-event network and a logical time (the
/// total of the recording process's clock vector, or the commit index),
/// so a trace answers *where* retransmissions and waits sit relative to
/// causal progress, not just relative to wall time.
///
/// Capture is steady-state zero-allocation: the ring is sized once at
/// construction and `record()` overwrites the oldest event when full
/// (`recorded()` vs `size()` tells you how much wrapped away). Export
/// formats:
///   - Chrome trace-event JSON (`write_chrome_trace`) — loadable in
///     chrome://tracing and Perfetto; every event emits the required
///     `name`/`ph`/`ts`/`pid`/`tid` fields.
///   - A compact little-endian binary frame (`write_binary` /
///     `read_binary`) for when the JSON would dwarf the run.
/// See docs/OBSERVABILITY.md for the schema.

namespace syncts::obs {

enum class TraceEventKind : std::uint8_t {
    send = 0,        ///< first transmission of a REQ
    receive,         ///< fresh REQ delivered (buffered for the program)
    ack,             ///< ACK accepted by the sender (rendezvous complete)
    commit,          ///< receiver committed the rendezvous (clock stamped)
    retransmit,      ///< REQ re-sent after a timeout
    timeout,         ///< retransmission timer fired live
    duplicate_drop,  ///< duplicate/stale frame suppressed without reply
    ack_replay,      ///< cached ACK re-sent for a committed sequence
    corrupt_reject,  ///< frame failed wire validation and was discarded
    drop,            ///< packet lost in the network (injected fault)
    stamp,           ///< a clock engine stamped a message
    phase,           ///< a named phase span (duration in arg_a)
    internal,        ///< internal event ticked a clock
    epoch_reject,    ///< frame from another topology epoch rejected
    nack,            ///< NACK sent/handled for an epoch-stale REQ
    epoch,           ///< topology epoch barrier crossed (arg_a = epoch id)
    crash,           ///< process crashed, volatile state lost (arg_a = step)
    restart,         ///< process restarted from snapshot + WAL replay
    hello,           ///< rejoin HELLO sent/answered (arg_a = sequence)
    park,            ///< out-of-order frame parked ahead of the commit point
    batch,           ///< batch container flushed (arg_a = frames, arg_b = bytes)
    coalesce,        ///< queued ACK superseded by a newer one (same rendezvous)
    delta_resync,    ///< delta frame dropped awaiting a full-vector resync
    bsched_defer,    ///< flush deferred by the bandwidth scheduler (arg_b = ticks)
};

const char* to_string(TraceEventKind kind) noexcept;

/// One fixed-size trace record. `arg_a`/`arg_b` are kind-specific
/// (sequence number and message id for protocol events, duration for
/// phase events).
struct TraceEvent {
    std::uint64_t virtual_time = 0;  ///< simulated-clock ticks
    std::uint64_t logical = 0;       ///< clock-vector total / commit index
    std::uint64_t arg_a = 0;
    std::uint64_t arg_b = 0;
    std::uint32_t process = 0;
    std::uint32_t peer = 0;
    TraceEventKind kind = TraceEventKind::send;

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Bytes one packed event occupies in the SYEV/SYFR binary formats:
/// 4 x u64 + 2 x u32 + the kind byte, little-endian throughout.
inline constexpr std::size_t kTraceEventBytes = 4 * 8 + 2 * 4 + 1;

/// Writes the packed little-endian form of `event` (kTraceEventBytes)
/// through a codec writer. Shared by the SYEV event dump and the SYFR
/// post-mortem so the two stay bit-compatible per event.
inline void write_trace_event(codec::Writer& writer, const TraceEvent& event) {
    writer.le64(event.virtual_time);
    writer.le64(event.logical);
    writer.le64(event.arg_a);
    writer.le64(event.arg_b);
    writer.le32(event.process);
    writer.le32(event.peer);
    writer.byte(static_cast<std::uint8_t>(event.kind));
}

/// Reads `declared` packed events into `out`; they must fill the rest of
/// the reader exactly (codec::Fault::count otherwise, checked in division
/// form so a forged count whose product with the event size wraps past
/// 2^64 cannot pass), and a kind byte past the enum fails
/// codec::Fault::malformed. The one event decoder of both binary readers.
template <typename Fail>
void read_trace_events(codec::Reader<Fail>& in, std::uint64_t declared,
                       std::vector<TraceEvent>& out) {
    if (in.remaining() % kTraceEventBytes != 0 ||
        declared != in.remaining() / kTraceEventBytes) {
        in.fail(codec::Fault::count, "event count does not match its bytes");
    }
    out.reserve(static_cast<std::size_t>(declared));
    for (std::uint64_t i = 0; i < declared; ++i) {
        TraceEvent& event = out.emplace_back();
        event.virtual_time = in.le64();
        event.logical = in.le64();
        event.arg_a = in.le64();
        event.arg_b = in.le64();
        event.process = in.le32();
        event.peer = in.le32();
        const std::uint8_t kind = in.u8();
        if (kind > static_cast<std::uint8_t>(TraceEventKind::bsched_defer)) {
            in.fail(codec::Fault::malformed, "trace event kind out of range");
        }
        event.kind = static_cast<TraceEventKind>(kind);
    }
}

class TraceSink {
public:
    /// Ring buffer holding up to `capacity` events (>= 1).
    explicit TraceSink(std::size_t capacity);

    std::size_t capacity() const noexcept { return ring_.size(); }

    /// Events currently retained (min(recorded(), capacity())).
    std::size_t size() const noexcept {
        return recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                        : ring_.size();
    }

    /// Events ever recorded, including ones the ring overwrote.
    std::uint64_t recorded() const noexcept { return recorded_; }

    /// Events lost to wraparound.
    std::uint64_t dropped() const noexcept {
        return recorded_ - static_cast<std::uint64_t>(size());
    }

    /// High-water mark of retained events since construction or the last
    /// clear() — `capacity()` once the ring has ever filled. Surfaced as
    /// the `trace_peak_events` gauge so wraparound pressure is visible
    /// in every syncts_stats report.
    std::size_t peak_size() const noexcept { return peak_; }

    /// O(1), allocation-free; overwrites the oldest event when full.
    /// Inline, division-free (head_ tracks recorded_ % capacity): this
    /// sits on the protocol's hot path for every traced event.
    void record(const TraceEvent& event) noexcept {
        ring_[head_] = event;
        if (++head_ == ring_.size()) head_ = 0;
        ++recorded_;
        if (size() > peak_) peak_ = size();
    }

    void clear() noexcept;

    /// Visits retained events oldest-first.
    void for_each(const std::function<void(const TraceEvent&)>& fn) const;

    /// Retained events oldest-first as an owning vector (test/tool path).
    std::vector<TraceEvent> events() const;

    /// Appends the retained events as a Chrome trace-event JSON document:
    /// {"displayTimeUnit":"ms","traceEvents":[{"name":...,"ph":...,
    ///  "ts":...,"pid":...,"tid":...,"args":{...}}, ...]}.
    /// Protocol events are instants (ph "i"); phase events are complete
    /// spans (ph "X" with dur = arg_a). pid 1 is the simulation, tid is
    /// the recording process.
    void write_chrome_trace(std::string& out) const;
    std::string to_chrome_trace() const;

    /// Compact binary form (the SYEV event dump, docs/FORMATS.md):
    /// magic "SYEV", u32 version 1, u64 count, then packed little-endian
    /// events. Replaces the contents of `out`.
    void write_binary(std::vector<std::uint8_t>& out) const;

    /// Parses `write_binary` output; throws std::invalid_argument on a
    /// malformed buffer, an out-of-range event kind included.
    static std::vector<TraceEvent> read_binary(
        const std::vector<std::uint8_t>& bytes);

private:
    std::vector<TraceEvent> ring_;
    std::uint64_t recorded_ = 0;
    std::size_t head_ = 0;  ///< next write slot (== recorded_ % capacity)
    std::size_t peak_ = 0;
};

}  // namespace syncts::obs
