#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "trace/computation.hpp"

/// \file trace_io.hpp
/// Plain-text persistence for recorded computations, so a monitoring
/// deployment can record now and analyze later (the offline algorithm's
/// intended workflow). The format is line-oriented and versioned:
///
///   syncts-trace 1
///   processes <N>
///   edges <M>
///   e <u> <v>          # one per channel
///   events <K>
///   m <sender> <receiver>
///   i <process>
///
/// Events appear in a valid instant order; internal events keep their
/// position within their process's sequence (cross-process interleaving of
/// internal events carries no ordering information and is not preserved).

namespace syncts {

/// Serializes the computation (with its topology) to the text format.
std::string serialize_computation(const SyncComputation& computation);
void write_computation(std::ostream& out, const SyncComputation& computation);

/// Parses the text format. Throws std::invalid_argument on malformed
/// input (bad header, unknown record, dangling indices, wrong counts).
SyncComputation parse_computation(const std::string& text);
SyncComputation read_computation(std::istream& in);

// ---------------------------------------------------------------------------
// SYTR v2: the binary *streaming* computation-trace format
// (docs/FORMATS.md §"Binary computation traces"). Unlike the text format —
// which a reader must slurp whole — SYTR v2 is framed so a consumer can
// ingest events as they arrive from a file or pipe and validate each frame
// independently:
//
//   header frame: "SYTR" ver=2 | payload_len u32le |
//                 varint N, varint E, E × (varint u, varint v) | trailer
//   chunk frame:  'C' | payload_len u32le | varint count, count × record |
//                 trailer
//     record:     0x00 varint sender varint receiver   (message)
//                 0x01 varint process                  (internal event)
//   end frame:    'E' | payload_len u32le | varint total_events | trailer
//
// Every trailer is the 4-byte CRC32C of the bytes of its own frame
// (common/codec.hpp), so a flipped bit or a mid-chunk truncation is
// caught at the frame where it happened, not at end of stream.
// payload_len is capped
// (kStreamFrameCap) so a hostile length field cannot drive allocation.

inline constexpr std::uint8_t kStreamTraceVersion = 2;
/// Upper bound on any SYTR v2 frame payload; larger lengths are hostile.
inline constexpr std::uint32_t kStreamFrameCap = 1u << 20;

/// One pulled event.
struct TraceRecord {
    enum class Kind : std::uint8_t { message = 0, internal = 1 };
    Kind kind = Kind::message;
    ProcessId a = 0;  ///< sender, or the process of an internal event
    ProcessId b = 0;  ///< receiver (messages only)
};

/// Incremental SYTR v2 writer. Records buffer into chunks of
/// `chunk_events`; finish() flushes the tail and seals the stream with
/// the end frame (required — a stream without it reads as truncated).
class StreamingTraceWriter {
public:
    StreamingTraceWriter(std::ostream& out, const Graph& topology,
                         std::size_t chunk_events = 512);

    void add_message(ProcessId sender, ProcessId receiver);
    void add_internal(ProcessId process);
    void finish();

    std::uint64_t events_written() const noexcept { return total_events_; }

private:
    void flush_chunk();

    std::ostream& out_;
    std::size_t num_processes_;
    std::size_t chunk_events_;
    std::vector<std::uint8_t> chunk_;  ///< record bytes, reused per chunk
    std::size_t chunk_count_ = 0;
    std::uint64_t total_events_ = 0;
    bool finished_ = false;
};

/// Pull-based SYTR v2 reader: the constructor consumes and validates the
/// header frame; next() returns one event at a time, pulling and
/// validating chunk frames lazily — suitable for ingesting a trace far
/// larger than memory from a file or pipe. Malformed input (bad magic,
/// checksum mismatch, truncation, hostile lengths, out-of-range
/// endpoints) throws std::invalid_argument.
class StreamingTraceReader {
public:
    explicit StreamingTraceReader(std::istream& in);

    const Graph& topology() const noexcept { return topology_; }

    /// Next event, or nullopt once the end frame was consumed (which
    /// also cross-checks the declared total against events_read()).
    std::optional<TraceRecord> next();

    std::uint64_t events_read() const noexcept { return events_read_; }
    bool finished() const noexcept { return finished_; }

private:
    void pull_frame();

    std::istream& in_;
    Graph topology_;
    std::vector<TraceRecord> pending_;  ///< decoded chunk, drained in order
    std::size_t pending_at_ = 0;
    std::vector<std::uint8_t> frame_;  ///< frame scratch, reused
    std::uint64_t events_read_ = 0;
    bool finished_ = false;
};

/// Whole-computation conveniences over the streaming halves.
void write_binary_computation(std::ostream& out,
                              const SyncComputation& computation);
SyncComputation read_binary_computation(std::istream& in);

}  // namespace syncts
