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

constexpr std::uint8_t kMagic[4] = {'S', 'Y', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kEventBytes = kTraceEventBytes;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint64_t load_u64(const std::uint8_t* at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
    }
    return v;
}

std::uint32_t load_u32(const std::uint8_t* at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(at[i]) << (8 * i);
    }
    return v;
}

}  // namespace

void encode_trace_event_into(const TraceEvent& event,
                             std::vector<std::uint8_t>& out) {
    put_u64(out, event.virtual_time);
    put_u64(out, event.logical);
    put_u64(out, event.arg_a);
    put_u64(out, event.arg_b);
    put_u32(out, event.process);
    put_u32(out, event.peer);
    out.push_back(static_cast<std::uint8_t>(event.kind));
}

TraceEvent decode_trace_event(const std::uint8_t* at) {
    TraceEvent e;
    e.virtual_time = load_u64(at);
    e.logical = load_u64(at + 8);
    e.arg_a = load_u64(at + 16);
    e.arg_b = load_u64(at + 24);
    e.process = load_u32(at + 32);
    e.peer = load_u32(at + 36);
    e.kind = static_cast<TraceEventKind>(at[40]);
    return e;
}

void TraceSink::write_binary(std::vector<std::uint8_t>& out) const {
    out.clear();
    out.reserve(4 + 4 + 8 + size() * kEventBytes);
    out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
    put_u32(out, kVersion);
    put_u64(out, static_cast<std::uint64_t>(size()));
    for_each([&](const TraceEvent& e) { encode_trace_event_into(e, out); });
}

std::vector<TraceEvent> TraceSink::read_binary(
    const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() < 16 || !std::equal(std::begin(kMagic),
                                         std::end(kMagic), bytes.begin())) {
        throw std::invalid_argument("not a syncts binary trace");
    }
    if (load_u32(bytes.data() + 4) != kVersion) {
        throw std::invalid_argument("unsupported binary trace version");
    }
    // Division form: a forged count whose product with the event size
    // wraps past 2^64 must not pass the length check.
    const std::uint64_t count = load_u64(bytes.data() + 8);
    const std::size_t payload = bytes.size() - 16;
    if (payload % kEventBytes != 0 || count != payload / kEventBytes) {
        throw std::invalid_argument("binary trace length mismatch");
    }
    std::vector<TraceEvent> events;
    events.reserve(static_cast<std::size_t>(count));
    std::size_t at = 16;
    for (std::uint64_t i = 0; i < count; ++i) {
        events.push_back(decode_trace_event(bytes.data() + at));
        at += kEventBytes;
    }
    return events;
}

}  // namespace syncts::obs
