#include "trace/trace_io.hpp"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/codec.hpp"

namespace syncts {

void write_computation(std::ostream& out,
                       const SyncComputation& computation) {
    const Graph& g = computation.topology();
    out << "syncts-trace 1\n";
    out << "processes " << g.num_vertices() << '\n';
    out << "edges " << g.num_edges() << '\n';
    for (const Edge& e : g.edges()) out << "e " << e.u << ' ' << e.v << '\n';

    const std::size_t total =
        computation.num_messages() + computation.num_internal_events();
    out << "events " << total << '\n';

    for_each_instant(
        computation,
        [&](ProcessId p, InternalId) { out << "i " << p << '\n'; },
        [&](const SyncMessage& m) {
            out << "m " << m.sender << ' ' << m.receiver << '\n';
        });
}

std::string serialize_computation(const SyncComputation& computation) {
    std::ostringstream os;
    write_computation(os, computation);
    return os.str();
}

namespace {

std::string next_token(std::istream& in, const char* what) {
    std::string token;
    SYNCTS_REQUIRE(static_cast<bool>(in >> token),
                   std::string("trace input truncated, expected ") + what);
    return token;
}

std::size_t next_number(std::istream& in, const char* what) {
    const std::string token = next_token(in, what);
    try {
        // std::stoull would read "-1" as 2^64 - 1.
        SYNCTS_REQUIRE(token[0] >= '0' && token[0] <= '9',
                       "a number starts with a digit");
        std::size_t consumed = 0;
        const unsigned long long value = std::stoull(token, &consumed);
        SYNCTS_REQUIRE(consumed == token.size(), "trailing garbage in number");
        return static_cast<std::size_t>(value);
    } catch (const std::logic_error&) {
        throw std::invalid_argument(std::string("expected a number for ") +
                                    what + ", got '" + token + "'");
    }
}

}  // namespace

SyncComputation read_computation(std::istream& in) {
    SYNCTS_REQUIRE(next_token(in, "magic") == "syncts-trace",
                   "not a syncts trace (bad magic)");
    SYNCTS_REQUIRE(next_number(in, "version") == 1,
                   "unsupported trace version");
    SYNCTS_REQUIRE(next_token(in, "processes keyword") == "processes",
                   "expected 'processes'");
    const std::size_t n = next_number(in, "process count");
    SYNCTS_REQUIRE(n <= kMaxDeclaredProcesses,
                   "process count " + std::to_string(n) +
                       " exceeds the reader bound of " +
                       std::to_string(kMaxDeclaredProcesses));
    SYNCTS_REQUIRE(next_token(in, "edges keyword") == "edges",
                   "expected 'edges'");
    const std::size_t m = next_number(in, "edge count");

    Graph g(n);
    for (std::size_t i = 0; i < m; ++i) {
        SYNCTS_REQUIRE(next_token(in, "edge record") == "e",
                       "expected edge record 'e'");
        const std::size_t u = next_number(in, "edge endpoint");
        const std::size_t v = next_number(in, "edge endpoint");
        SYNCTS_REQUIRE(u < n && v < n, "edge endpoint out of range");
        g.add_edge(static_cast<ProcessId>(u), static_cast<ProcessId>(v));
    }

    SYNCTS_REQUIRE(next_token(in, "events keyword") == "events",
                   "expected 'events'");
    const std::size_t total = next_number(in, "event count");
    SyncComputation computation(std::move(g));
    for (std::size_t i = 0; i < total; ++i) {
        const std::string kind = next_token(in, "event record");
        if (kind == "m") {
            const std::size_t sender = next_number(in, "sender");
            const std::size_t receiver = next_number(in, "receiver");
            SYNCTS_REQUIRE(sender < n && receiver < n,
                           "event process out of range");
            computation.add_message(static_cast<ProcessId>(sender),
                                    static_cast<ProcessId>(receiver));
        } else if (kind == "i") {
            const std::size_t p = next_number(in, "process");
            SYNCTS_REQUIRE(p < n, "event process out of range");
            computation.add_internal(static_cast<ProcessId>(p));
        } else {
            throw std::invalid_argument("unknown event record '" + kind +
                                        "'");
        }
    }
    return computation;
}

SyncComputation parse_computation(const std::string& text) {
    std::istringstream in(text);
    return read_computation(in);
}

// ---------------------------------------------------------------------------
// SYTR v2 streaming binary format.

namespace {

constexpr std::uint8_t kStreamHeader[5] = {'S', 'Y', 'T', 'R',
                                           kStreamTraceVersion};
constexpr std::uint8_t kChunkTag[1] = {'C'};
constexpr std::uint8_t kEndTag[1] = {'E'};

[[noreturn]] void throw_stream_error(codec::Fault, const char* what) {
    throw std::invalid_argument(std::string("SYTR stream: ") + what);
}

using StreamReader = codec::Reader<decltype(&throw_stream_error)>;

/// Seals and writes one frame: `head` (magic and version, or a frame
/// tag), the u32le payload length, the payload, and the trailer over all
/// of them.
void write_frame(std::ostream& out, std::span<const std::uint8_t> head,
                 std::span<const std::uint8_t> payload) {
    SYNCTS_REQUIRE(payload.size() <= kStreamFrameCap,
                   "stream frame payload over cap");
    std::vector<std::uint8_t> frame;
    codec::Writer writer(frame, head.size() + 4 + payload.size() +
                                     codec::kTrailerBytes);
    writer.bytes(head);
    writer.le32(static_cast<std::uint32_t>(payload.size()));
    writer.bytes(payload);
    writer.seal();
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    SYNCTS_REQUIRE(static_cast<bool>(out), "stream write failed");
}

/// Reads `n` bytes into frame (appending); throws on EOF.
void read_exact(std::istream& in, std::vector<std::uint8_t>& frame,
                std::size_t n, const char* what) {
    const std::size_t start = frame.size();
    frame.resize(start + n);
    in.read(reinterpret_cast<char*>(frame.data() + start),
            static_cast<std::streamsize>(n));
    SYNCTS_REQUIRE(static_cast<std::size_t>(in.gcount()) == n,
                   std::string("stream truncated reading ") + what);
}

/// Reads the rest of the frame whose head, ending in its u32le payload
/// `length`, is already in `frame`; verifies the trailer; and returns a
/// reader over the payload.
StreamReader read_payload(std::istream& in, std::vector<std::uint8_t>& frame,
                          std::uint32_t length, const char* what) {
    SYNCTS_REQUIRE(length <= kStreamFrameCap, std::string("hostile ") +
                                                  what + " length " +
                                                  std::to_string(length));
    const std::size_t head = frame.size();
    read_exact(in, frame, length + codec::kTrailerBytes, what);
    StreamReader payload(frame, throw_stream_error);
    payload.unseal();
    (void)payload.bytes(head);
    return payload;
}

/// Appends one record to a chunk: its kind byte, then its varints.
void append_record(std::vector<std::uint8_t>& chunk, TraceRecord::Kind kind,
                   std::initializer_list<std::uint64_t> fields) {
    codec::Writer writer(chunk, 1 + 2 * codec::kMaxVarintBytes);
    writer.byte(static_cast<std::uint8_t>(kind));
    for (const std::uint64_t field : fields) writer.varint(field);
    writer.finish();
}

}  // namespace

StreamingTraceWriter::StreamingTraceWriter(std::ostream& out,
                                           const Graph& topology,
                                           std::size_t chunk_events)
    : out_(out),
      num_processes_(topology.num_vertices()),
      chunk_events_(chunk_events == 0 ? 1 : chunk_events) {
    std::vector<std::uint8_t> payload;
    codec::Writer writer(payload, 4 + 4 * topology.num_edges());
    writer.varint(topology.num_vertices());
    writer.varint(topology.num_edges());
    for (const Edge& e : topology.edges()) {
        writer.varint(e.u);
        writer.varint(e.v);
    }
    writer.finish();
    write_frame(out_, kStreamHeader, payload);
}

void StreamingTraceWriter::add_message(ProcessId sender, ProcessId receiver) {
    SYNCTS_REQUIRE(!finished_, "stream already finished");
    SYNCTS_REQUIRE(sender < num_processes_ && receiver < num_processes_,
                   "endpoint out of range");
    SYNCTS_REQUIRE(sender != receiver, "a message needs distinct endpoints");
    append_record(chunk_, TraceRecord::Kind::message, {sender, receiver});
    ++chunk_count_;
    ++total_events_;
    if (chunk_count_ >= chunk_events_) flush_chunk();
}

void StreamingTraceWriter::add_internal(ProcessId process) {
    SYNCTS_REQUIRE(!finished_, "stream already finished");
    SYNCTS_REQUIRE(process < num_processes_, "process out of range");
    append_record(chunk_, TraceRecord::Kind::internal, {process});
    ++chunk_count_;
    ++total_events_;
    if (chunk_count_ >= chunk_events_) flush_chunk();
}

void StreamingTraceWriter::flush_chunk() {
    if (chunk_count_ == 0) return;
    std::vector<std::uint8_t> payload;
    codec::Writer writer(payload, codec::kMaxVarintBytes + chunk_.size());
    writer.varint(chunk_count_);
    writer.bytes(chunk_);
    writer.finish();
    write_frame(out_, kChunkTag, payload);
    chunk_.clear();
    chunk_count_ = 0;
}

void StreamingTraceWriter::finish() {
    if (finished_) return;
    flush_chunk();
    std::vector<std::uint8_t> payload;
    codec::Writer writer(payload, codec::kMaxVarintBytes);
    writer.varint(total_events_);
    writer.finish();
    write_frame(out_, kEndTag, payload);
    out_.flush();
    finished_ = true;
}

StreamingTraceReader::StreamingTraceReader(std::istream& in) : in_(in) {
    frame_.clear();
    read_exact(in_, frame_, 4 + 1 + 4, "stream header");
    StreamReader head(frame_, throw_stream_error);
    SYNCTS_REQUIRE(std::ranges::equal(head.bytes(4),
                                      std::span(kStreamHeader).first(4)),
                   "not a SYTR stream (bad magic)");
    const std::uint8_t version = head.u8();
    SYNCTS_REQUIRE(version == kStreamTraceVersion,
                   "unsupported SYTR stream version " +
                       std::to_string(version));
    StreamReader payload =
        read_payload(in_, frame_, head.le32(), "stream header");

    const std::uint64_t n = payload.varint();
    const std::uint64_t e = payload.varint();
    SYNCTS_REQUIRE(n <= kMaxDeclaredProcesses,
                   "hostile process count " + std::to_string(n));
    // Each edge costs at least two payload bytes — reject counts the
    // payload cannot possibly hold before allocating for them.
    SYNCTS_REQUIRE(e <= payload.remaining() / 2 + 1,
                   "hostile edge count " + std::to_string(e));
    Graph g(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < e; ++i) {
        const std::uint64_t u = payload.varint();
        const std::uint64_t v = payload.varint();
        SYNCTS_REQUIRE(u < n && v < n, "edge endpoint out of range");
        g.add_edge(static_cast<ProcessId>(u), static_cast<ProcessId>(v));
    }
    payload.end();
    topology_ = std::move(g);
}

void StreamingTraceReader::pull_frame() {
    frame_.clear();
    read_exact(in_, frame_, 1 + 4, "frame tag");
    StreamReader head(frame_, throw_stream_error);
    const char tag = static_cast<char>(head.u8());
    SYNCTS_REQUIRE(tag == 'C' || tag == 'E',
                   std::string("unknown frame tag '") + tag + "'");
    StreamReader payload = read_payload(
        in_, frame_, head.le32(), tag == 'C' ? "chunk frame" : "end frame");
    if (tag == 'E') {
        const std::uint64_t total = payload.varint();
        payload.end();
        SYNCTS_REQUIRE(total == events_read_,
                       "end frame declares " + std::to_string(total) +
                           " events but " + std::to_string(events_read_) +
                           " were read");
        finished_ = true;
        return;
    }
    const std::uint64_t count = payload.varint();
    // Every record costs at least two payload bytes.
    SYNCTS_REQUIRE(count > 0 && count <= payload.remaining() / 2 + 1,
                   "hostile record count " + std::to_string(count));
    const std::uint64_t n = topology_.num_vertices();
    pending_.clear();
    pending_.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint8_t kind = payload.u8();
        TraceRecord record;
        if (kind == static_cast<std::uint8_t>(TraceRecord::Kind::message)) {
            const std::uint64_t s = payload.varint();
            const std::uint64_t r = payload.varint();
            SYNCTS_REQUIRE(s < n && r < n, "endpoint out of range");
            SYNCTS_REQUIRE(s != r, "self-message in stream");
            record.kind = TraceRecord::Kind::message;
            record.a = static_cast<ProcessId>(s);
            record.b = static_cast<ProcessId>(r);
        } else if (kind ==
                   static_cast<std::uint8_t>(TraceRecord::Kind::internal)) {
            const std::uint64_t p = payload.varint();
            SYNCTS_REQUIRE(p < n, "process out of range");
            record.kind = TraceRecord::Kind::internal;
            record.a = static_cast<ProcessId>(p);
        } else {
            throw std::invalid_argument("unknown record kind " +
                                        std::to_string(kind));
        }
        pending_.push_back(record);
    }
    payload.end();
    pending_at_ = 0;
}

std::optional<TraceRecord> StreamingTraceReader::next() {
    while (pending_at_ >= pending_.size()) {
        if (finished_) return std::nullopt;
        pull_frame();
    }
    ++events_read_;
    return pending_[pending_at_++];
}

void write_binary_computation(std::ostream& out,
                              const SyncComputation& computation) {
    StreamingTraceWriter writer(out, computation.topology());
    for_each_instant(
        computation, [&](ProcessId p, InternalId) { writer.add_internal(p); },
        [&](const SyncMessage& m) {
            writer.add_message(m.sender, m.receiver);
        });
    writer.finish();
}

SyncComputation read_binary_computation(std::istream& in) {
    StreamingTraceReader reader(in);
    SyncComputation computation(reader.topology());
    while (const auto record = reader.next()) {
        if (record->kind == TraceRecord::Kind::message) {
            computation.add_message(record->a, record->b);
        } else {
            computation.add_internal(record->a);
        }
    }
    SYNCTS_REQUIRE(reader.finished(), "stream ended without end frame");
    return computation;
}

}  // namespace syncts
