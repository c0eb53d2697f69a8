#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/codec.hpp"

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

[[noreturn]] void throw_postmortem_error(codec::Fault fault,
                                         const char* what) {
    using Code = PostmortemError::Code;
    // A count the bytes left cannot hold is implausible, hence malformed.
    Code code = Code::malformed;
    switch (fault) {
        case codec::Fault::truncated: code = Code::truncated; break;
        case codec::Fault::trailing: code = Code::trailing_bytes; break;
        case codec::Fault::checksum: code = Code::bad_checksum; break;
        case codec::Fault::overlong_varint:
        case codec::Fault::count:
        case codec::Fault::malformed: break;
    }
    throw PostmortemError(code, what);
}

using PostmortemReader = codec::Reader<decltype(&throw_postmortem_error)>;

template <typename Table>
void write_table(codec::Writer& writer, const Table& table) {
    writer.le64(table.size());
    for (const auto& [name, value] : table) {
        writer.le32(static_cast<std::uint32_t>(name.size()));
        writer.bytes({reinterpret_cast<const std::uint8_t*>(name.data()),
                      name.size()});
        writer.le64(static_cast<std::uint64_t>(value));
    }
}

template <typename Table>
void read_table(PostmortemReader& in, Table& table) {
    const std::uint64_t count = in.le64();
    // Minimum 12 bytes per entry (empty name + value): a huge forged
    // count cannot pass, so decode never reserves unbounded memory.
    if (count > kMaxTableEntries) {
        in.fail(codec::Fault::count, "postmortem table count implausible");
    }
    for (std::uint64_t i = 0, n = in.count(count, 12); i < n; ++i) {
        const std::uint32_t length = in.le32();
        if (length > kMaxNameBytes) {
            in.fail(codec::Fault::malformed,
                    "postmortem metric name too long");
        }
        const std::span<const std::uint8_t> name = in.bytes(length);
        const auto value =
            static_cast<typename Table::mapped_type>(in.le64());
        if (!table.emplace(std::string(name.begin(), name.end()), value)
                 .second) {
            in.fail(codec::Fault::malformed,
                    "postmortem duplicate metric name");
        }
    }
}

}  // namespace

void encode_postmortem_into(const Postmortem& postmortem,
                            std::vector<std::uint8_t>& out) {
    // The header and tables at a few dozen bytes per metric, then the
    // events.
    const std::size_t metrics =
        postmortem.metrics.counters.size() + postmortem.metrics.gauges.size() +
        postmortem.rates.counters.size() + postmortem.rates.gauges.size();
    codec::Writer writer(
        out, 96 + 40 * metrics + kTraceEventBytes * postmortem.events.size());
    writer.bytes(kMagic);
    writer.le32(kVersion);
    writer.byte(static_cast<std::uint8_t>(postmortem.reason));
    writer.le32(postmortem.process);
    writer.le64(postmortem.step);
    writer.le64(postmortem.epoch);
    writer.le64(postmortem.frontier_epoch);
    writer.le64(postmortem.wal_lsn);
    writer.le64(postmortem.virtual_time);
    writer.le64(postmortem.snapshots);
    write_table(writer, postmortem.metrics.counters);
    write_table(writer, postmortem.metrics.gauges);
    write_table(writer, postmortem.rates.counters);
    write_table(writer, postmortem.rates.gauges);
    writer.le64(postmortem.events.size());
    for (const TraceEvent& event : postmortem.events) {
        write_trace_event(writer, event);
    }
    writer.seal();
}

Postmortem decode_postmortem(std::span<const std::uint8_t> bytes) {
    PostmortemReader in(bytes, throw_postmortem_error);
    in.need(4 + 4 + codec::kTrailerBytes,
            "postmortem shorter than its envelope");
    if (!std::ranges::equal(in.bytes(sizeof(kMagic)), kMagic)) {
        throw PostmortemError(PostmortemError::Code::bad_magic,
                              "not a SYFR postmortem");
    }
    // The checksum covers everything before the trailer; verify
    // first so every later "malformed" is a structural claim about bytes
    // the producer really wrote, not about transit damage.
    in.unseal();
    if (in.le32() != kVersion) {
        throw PostmortemError(PostmortemError::Code::bad_version,
                              "unsupported postmortem version");
    }

    Postmortem pm;
    const std::uint8_t reason = in.u8();
    if (reason < static_cast<std::uint8_t>(PostmortemReason::crash) ||
        reason > static_cast<std::uint8_t>(PostmortemReason::manual)) {
        throw PostmortemError(PostmortemError::Code::malformed,
                              "postmortem reason out of range");
    }
    pm.reason = static_cast<PostmortemReason>(reason);
    pm.process = in.le32();
    pm.step = in.le64();
    pm.epoch = in.le64();
    pm.frontier_epoch = in.le64();
    pm.wal_lsn = in.le64();
    pm.virtual_time = in.le64();
    pm.snapshots = in.le64();
    read_table(in, pm.metrics.counters);
    read_table(in, pm.metrics.gauges);
    read_table(in, pm.rates.counters);
    read_table(in, pm.rates.gauges);
    const std::uint64_t events = in.le64();
    read_trace_events(in, events, pm.events);
    in.end();
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
