#include "obs/trace_sink.hpp"

#include <algorithm>
#include <stdexcept>

namespace syncts::obs {

const char* to_string(TraceEventKind kind) noexcept {
    switch (kind) {
        case TraceEventKind::send: return "send";
        case TraceEventKind::receive: return "receive";
        case TraceEventKind::ack: return "ack";
        case TraceEventKind::commit: return "commit";
        case TraceEventKind::retransmit: return "retransmit";
        case TraceEventKind::timeout: return "timeout";
        case TraceEventKind::duplicate_drop: return "duplicate_drop";
        case TraceEventKind::ack_replay: return "ack_replay";
        case TraceEventKind::corrupt_reject: return "corrupt_reject";
        case TraceEventKind::drop: return "drop";
        case TraceEventKind::stamp: return "stamp";
        case TraceEventKind::phase: return "phase";
        case TraceEventKind::internal: return "internal";
        case TraceEventKind::epoch_reject: return "epoch_reject";
        case TraceEventKind::nack: return "nack";
        case TraceEventKind::epoch: return "epoch";
        case TraceEventKind::crash: return "crash";
        case TraceEventKind::restart: return "restart";
        case TraceEventKind::hello: return "hello";
        case TraceEventKind::park: return "park";
        case TraceEventKind::batch: return "batch";
        case TraceEventKind::coalesce: return "coalesce";
        case TraceEventKind::delta_resync: return "delta_resync";
        case TraceEventKind::bsched_defer: return "bsched_defer";
    }
    return "unknown";
}

TraceSink::TraceSink(std::size_t capacity) {
    if (capacity == 0) {
        throw std::invalid_argument("trace sink capacity must be >= 1");
    }
    ring_.resize(capacity);
}

void TraceSink::clear() noexcept {
    recorded_ = 0;
    head_ = 0;
    peak_ = 0;
}

void TraceSink::for_each(
    const std::function<void(const TraceEvent&)>& fn) const {
    const std::size_t kept = size();
    const std::uint64_t first = recorded_ - kept;
    for (std::size_t i = 0; i < kept; ++i) {
        fn(ring_[static_cast<std::size_t>((first + i) % ring_.size())]);
    }
}

std::vector<TraceEvent> TraceSink::events() const {
    std::vector<TraceEvent> out;
    out.reserve(size());
    for_each([&](const TraceEvent& e) { out.push_back(e); });
    return out;
}

void TraceSink::write_chrome_trace(std::string& out) const {
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for_each([&](const TraceEvent& e) {
        if (!first) out += ',';
        first = false;
        out += "{\"name\":\"";
        out += to_string(e.kind);
        out += "\",\"ph\":\"";
        out += e.kind == TraceEventKind::phase ? 'X' : 'i';
        out += "\",\"ts\":" + std::to_string(e.virtual_time);
        if (e.kind == TraceEventKind::phase) {
            out += ",\"dur\":" + std::to_string(e.arg_a);
        }
        out += ",\"pid\":1,\"tid\":" + std::to_string(e.process);
        if (e.kind != TraceEventKind::phase) {
            out += ",\"s\":\"t\"";
        }
        out += ",\"args\":{\"peer\":" + std::to_string(e.peer) +
               ",\"logical\":" + std::to_string(e.logical) +
               ",\"a\":" + std::to_string(e.arg_a) +
               ",\"b\":" + std::to_string(e.arg_b) + "}}";
    });
    out += "]}";
}

std::string TraceSink::to_chrome_trace() const {
    std::string out;
    write_chrome_trace(out);
    return out;
}

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'Y', 'E', 'V'};
constexpr std::uint32_t kVersion = 1;
/// Magic, version and count.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

[[noreturn]] void throw_dump_error(codec::Fault, const char* what) {
    throw std::invalid_argument(std::string("binary trace: ") + what);
}

}  // namespace

void TraceSink::write_binary(std::vector<std::uint8_t>& out) const {
    out.clear();
    codec::Writer writer(out, kHeaderBytes + size() * kTraceEventBytes);
    writer.bytes(kMagic);
    writer.le32(kVersion);
    writer.le64(size());
    for_each([&](const TraceEvent& e) { write_trace_event(writer, e); });
    writer.finish();
}

std::vector<TraceEvent> TraceSink::read_binary(
    const std::vector<std::uint8_t>& bytes) {
    codec::Reader in(bytes, throw_dump_error);
    if (bytes.size() < kHeaderBytes ||
        !std::ranges::equal(in.bytes(sizeof(kMagic)), kMagic)) {
        throw std::invalid_argument("not a syncts binary trace");
    }
    if (in.le32() != kVersion) {
        throw std::invalid_argument("unsupported binary trace version");
    }
    const std::uint64_t count = in.le64();
    std::vector<TraceEvent> events;
    read_trace_events(in, count, events);
    return events;
}

}  // namespace syncts::obs
