#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/checksum.hpp"

namespace syncts::obs {

const char* to_string(PostmortemReason reason) noexcept {
    switch (reason) {
        case PostmortemReason::crash: return "crash";
        case PostmortemReason::error: return "error";
        case PostmortemReason::manual: return "manual";
    }
    return "unknown";
}

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'Y', 'F', 'R'};
constexpr std::uint32_t kVersion = 1;
/// Bound on metric-name lengths: generous for real registries, small
/// enough that a fuzzed length prefix cannot force a giant allocation.
constexpr std::uint32_t kMaxNameBytes = 1u << 12;
constexpr std::uint64_t kMaxTableEntries = 1u << 20;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
    return common::fnv1a64({data, size});
}

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

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/// Strict bounds-checked little-endian cursor; every read throws
/// PostmortemError::truncated instead of walking off the buffer.
class Cursor {
public:
    explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    std::size_t at() const noexcept { return at_; }
    std::size_t remaining() const noexcept { return bytes_.size() - at_; }

    const std::uint8_t* take(std::size_t n) {
        if (remaining() < n) {
            throw PostmortemError(PostmortemError::Code::truncated,
                                  "postmortem truncated");
        }
        const std::uint8_t* p = bytes_.data() + at_;
        at_ += n;
        return p;
    }

    std::uint8_t u8() { return *take(1); }

    std::uint32_t u32() {
        const std::uint8_t* p = take(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        }
        return v;
    }

    std::uint64_t u64() {
        const std::uint8_t* p = take(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        }
        return v;
    }

    std::string name() {
        const std::uint32_t len = u32();
        if (len > kMaxNameBytes) {
            throw PostmortemError(PostmortemError::Code::malformed,
                                  "postmortem metric name too long");
        }
        const std::uint8_t* p = take(len);
        return std::string(reinterpret_cast<const char*>(p), len);
    }

private:
    std::span<const std::uint8_t> bytes_;
    std::size_t at_ = 0;
};

std::uint64_t table_count(Cursor& cursor) {
    const std::uint64_t count = cursor.u64();
    // Minimum 12 bytes per entry (empty name + value): a huge forged
    // count cannot pass, so decode never reserves unbounded memory.
    if (count > kMaxTableEntries || count * 12 > cursor.remaining()) {
        throw PostmortemError(PostmortemError::Code::malformed,
                              "postmortem table count implausible");
    }
    return count;
}

}  // namespace

void encode_postmortem_into(const Postmortem& postmortem,
                            std::vector<std::uint8_t>& out) {
    const std::size_t start = out.size();
    out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
    put_u32(out, kVersion);
    out.push_back(static_cast<std::uint8_t>(postmortem.reason));
    put_u32(out, postmortem.process);
    put_u64(out, postmortem.step);
    put_u64(out, postmortem.epoch);
    put_u64(out, postmortem.frontier_epoch);
    put_u64(out, postmortem.wal_lsn);
    put_u64(out, postmortem.virtual_time);
    put_u64(out, postmortem.snapshots);

    put_u64(out, postmortem.metrics.counters.size());
    for (const auto& [name, value] : postmortem.metrics.counters) {
        put_string(out, name);
        put_u64(out, value);
    }
    put_u64(out, postmortem.metrics.gauges.size());
    for (const auto& [name, value] : postmortem.metrics.gauges) {
        put_string(out, name);
        put_u64(out, static_cast<std::uint64_t>(value));
    }
    put_u64(out, postmortem.rates.counters.size());
    for (const auto& [name, value] : postmortem.rates.counters) {
        put_string(out, name);
        put_u64(out, value);
    }
    put_u64(out, postmortem.rates.gauges.size());
    for (const auto& [name, value] : postmortem.rates.gauges) {
        put_string(out, name);
        put_u64(out, static_cast<std::uint64_t>(value));
    }

    put_u64(out, postmortem.events.size());
    for (const TraceEvent& event : postmortem.events) {
        encode_trace_event_into(event, out);
    }

    put_u64(out, fnv1a(out.data() + start, out.size() - start));
}

Postmortem decode_postmortem(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < 4 + 4 + 8) {
        throw PostmortemError(PostmortemError::Code::truncated,
                              "postmortem shorter than its envelope");
    }
    for (std::size_t i = 0; i < 4; ++i) {
        if (bytes[i] != kMagic[i]) {
            throw PostmortemError(PostmortemError::Code::bad_magic,
                                  "not a SYFR postmortem");
        }
    }
    // The checksum covers everything before the trailing 8 bytes; verify
    // first so every later "malformed" is a structural claim about bytes
    // the producer really wrote, not about transit damage.
    const std::size_t body = bytes.size() - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
        stored |= static_cast<std::uint64_t>(bytes[body + static_cast<std::size_t>(i)])
                  << (8 * i);
    }
    if (fnv1a(bytes.data(), body) != stored) {
        throw PostmortemError(PostmortemError::Code::bad_checksum,
                              "postmortem checksum mismatch");
    }

    Cursor cursor(bytes.subspan(0, body));
    cursor.take(4);  // magic, already checked
    if (cursor.u32() != kVersion) {
        throw PostmortemError(PostmortemError::Code::bad_version,
                              "unsupported postmortem version");
    }

    Postmortem pm;
    const std::uint8_t reason = cursor.u8();
    if (reason < static_cast<std::uint8_t>(PostmortemReason::crash) ||
        reason > static_cast<std::uint8_t>(PostmortemReason::manual)) {
        throw PostmortemError(PostmortemError::Code::malformed,
                              "postmortem reason out of range");
    }
    pm.reason = static_cast<PostmortemReason>(reason);
    pm.process = cursor.u32();
    pm.step = cursor.u64();
    pm.epoch = cursor.u64();
    pm.frontier_epoch = cursor.u64();
    pm.wal_lsn = cursor.u64();
    pm.virtual_time = cursor.u64();
    pm.snapshots = cursor.u64();

    const auto read_counter_table = [&](auto& table) {
        const std::uint64_t count = table_count(cursor);
        for (std::uint64_t i = 0; i < count; ++i) {
            std::string name = cursor.name();
            const std::uint64_t value = cursor.u64();
            if (!table.emplace(std::move(name), value).second) {
                throw PostmortemError(PostmortemError::Code::malformed,
                                      "postmortem duplicate metric name");
            }
        }
    };
    const auto read_gauge_table = [&](auto& table) {
        const std::uint64_t count = table_count(cursor);
        for (std::uint64_t i = 0; i < count; ++i) {
            std::string name = cursor.name();
            const auto value = static_cast<std::int64_t>(cursor.u64());
            if (!table.emplace(std::move(name), value).second) {
                throw PostmortemError(PostmortemError::Code::malformed,
                                      "postmortem duplicate metric name");
            }
        }
    };
    read_counter_table(pm.metrics.counters);
    read_gauge_table(pm.metrics.gauges);
    read_counter_table(pm.rates.counters);
    read_gauge_table(pm.rates.gauges);

    // Division form: a forged count whose product with the event size
    // wraps past 2^64 must not pass the length check.
    const std::uint64_t events = cursor.u64();
    const std::size_t payload = cursor.remaining();
    if (payload % kTraceEventBytes != 0 ||
        events != payload / kTraceEventBytes) {
        throw PostmortemError(PostmortemError::Code::malformed,
                              "postmortem event count mismatch");
    }
    pm.events.reserve(static_cast<std::size_t>(events));
    for (std::uint64_t i = 0; i < events; ++i) {
        TraceEvent event = decode_trace_event(cursor.take(kTraceEventBytes));
        if (static_cast<std::uint8_t>(event.kind) >
            static_cast<std::uint8_t>(TraceEventKind::bsched_defer)) {
            throw PostmortemError(PostmortemError::Code::malformed,
                                  "postmortem event kind out of range");
        }
        pm.events.push_back(event);
    }
    if (cursor.remaining() != 0) {
        throw PostmortemError(PostmortemError::Code::trailing_bytes,
                              "postmortem has trailing bytes");
    }
    return pm;
}

FlightRecorder::FlightRecorder(std::size_t capacity,
                               std::uint64_t snapshot_interval)
    : interval_(snapshot_interval) {
    if (capacity == 0) {
        throw std::invalid_argument("flight recorder capacity must be >= 1");
    }
    if (snapshot_interval == 0) {
        throw std::invalid_argument(
            "flight recorder snapshot interval must be >= 1");
    }
    ring_.resize(capacity);
}


void FlightRecorder::refresh_snapshot(const MetricsRegistry& registry) {
    // The interval refresh runs inside the protocol's throughput gate,
    // so it is pure value loads against the cached positional layout —
    // no string compares, no map nodes, no allocations. The name-keyed
    // snapshot/rates maps are rebuilt lazily when actually read.
    if (source_ != &registry ||
        layout_version_ != registry.layout_version()) {
        rekey(registry);
    }
    prev_counters_ = counter_values_;
    registry.read_values(counter_values_, gauge_values_);
    ++snapshots_;
    materialized_ = false;
}

void FlightRecorder::rekey(const MetricsRegistry& registry) {
    // Layout changed (or first use with this registry): re-pull the
    // names and carry previous counter values across by name, so
    // counters registered earlier keep their interval baseline while
    // new names start at zero — the counts-from-zero rule.
    std::map<std::string, std::uint64_t, std::less<>> carried;
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        carried.emplace(std::move(counter_names_[i]), counter_values_[i]);
    }
    registry.value_layout(counter_names_, gauge_names_);
    counter_values_.assign(counter_names_.size(), 0);
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        if (const auto it = carried.find(counter_names_[i]);
            it != carried.end()) {
            counter_values_[i] = it->second;
        }
    }
    prev_counters_.resize(counter_names_.size());
    gauge_values_.assign(gauge_names_.size(), 0);
    source_ = &registry;
    layout_version_ = registry.layout_version();
}

void FlightRecorder::materialize() const {
    if (materialized_) return;
    materialized_ = true;
    snapshot_.counters.clear();
    snapshot_.gauges.clear();
    rates_.counters.clear();
    rates_.gauges.clear();
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        // Names come from value_layout in map order, so end-hinted
        // inserts are O(1).
        snapshot_.counters.emplace_hint(snapshot_.counters.end(),
                                        counter_names_[i],
                                        counter_values_[i]);
        const std::uint64_t prev = prev_counters_[i];
        // Counter-reset rule: a value behind its baseline restarts the
        // interval at the current value.
        rates_.counters.emplace_hint(
            rates_.counters.end(), counter_names_[i],
            prev > counter_values_[i] ? counter_values_[i]
                                      : counter_values_[i] - prev);
    }
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
        snapshot_.gauges.emplace_hint(snapshot_.gauges.end(),
                                      gauge_names_[i], gauge_values_[i]);
    }
    // Gauges are instantaneous; the interval view passes levels through.
    rates_.gauges = snapshot_.gauges;
}

const MetricsSnapshot& FlightRecorder::last_snapshot() const {
    materialize();
    return snapshot_;
}

const MetricsDelta& FlightRecorder::last_rates() const {
    materialize();
    return rates_;
}

void FlightRecorder::note_frontier(std::uint64_t epoch) {
    if (epoch <= frontier_) return;
    frontier_ = epoch;
    const auto it = epoch_entry_.find(epoch);
    if (it == epoch_entry_.end()) return;
    truncate_before(it->second);
    // Entry instants below the frontier can never be asked about again.
    epoch_entry_.erase(epoch_entry_.begin(), it);
}

void FlightRecorder::truncate_before(std::uint64_t virtual_time) {
    while (first_ < recorded_) {
        const TraceEvent& oldest =
            ring_[static_cast<std::size_t>(first_ % ring_.size())];
        if (oldest.virtual_time >= virtual_time) break;
        ++first_;
        ++truncated_;
    }
}

std::vector<TraceEvent> FlightRecorder::events() const {
    std::vector<TraceEvent> out;
    out.reserve(retained());
    for (std::uint64_t i = first_; i < recorded_; ++i) {
        out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
    }
    return out;
}

void FlightRecorder::dump(PostmortemReason reason, std::uint32_t process,
                          std::uint64_t step, std::uint64_t epoch,
                          std::uint64_t wal_lsn, std::uint64_t virtual_time,
                          const MetricsRegistry* registry) {
    if (registry != nullptr) {
        // Fold the in-flight interval in so the dump reflects the crash
        // instant, not the last periodic snapshot.
        refresh_snapshot(*registry);
        since_snapshot_ = 0;
    }
    Postmortem pm;
    pm.reason = reason;
    pm.process = process;
    pm.step = step;
    pm.epoch = epoch;
    pm.frontier_epoch = frontier_;
    pm.wal_lsn = wal_lsn;
    pm.virtual_time = virtual_time;
    pm.snapshots = snapshots_;
    materialize();
    pm.metrics = snapshot_;
    pm.rates = rates_;
    pm.events = events();

    last_dump_.clear();
    encode_postmortem_into(pm, last_dump_);
    ++dumps_;

    if (!dump_path_.empty()) {
        if (std::FILE* f = std::fopen(dump_path_.c_str(), "wb")) {
            std::fwrite(last_dump_.data(), 1, last_dump_.size(), f);
            std::fclose(f);
        }
    }
}

void FlightRecorder::publish_metrics(MetricsRegistry& registry) const {
    registry.counter("flight_dumps").inc(dumps_);
    registry.gauge("flight_retained_events")
        .set(static_cast<std::int64_t>(retained()));
    registry.gauge("flight_truncated_events")
        .set(static_cast<std::int64_t>(truncated_));
    registry.gauge("flight_snapshots")
        .set(static_cast<std::int64_t>(snapshots_));
}

}  // namespace syncts::obs
