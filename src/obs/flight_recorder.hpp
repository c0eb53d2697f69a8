#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

/// \file flight_recorder.hpp
/// The always-on black box: a bounded ring of recent trace events plus
/// periodic metrics snapshots, dumped as a checksummed `SYFR`
/// post-mortem when a crash rule fires or the runtime throws a typed
/// error (docs/PROFILING.md).
///
/// Retention follows the Drummond–Barbosa stability rule the runtime's
/// epoch segments and WAL already obey: state that is durably folded
/// into a checkpoint everywhere it matters need not be kept. The runtime
/// feeds the recorder its stability frontier (the lowest epoch any
/// process could still rewind into, below which the runtime retires
/// epoch segments), and the recorder discards retained events older
/// than that epoch's entry — a post-mortem never carries history that
/// recovery could not need, which bounds the dump on long runs
/// independently of the ring capacity.
///
/// The recorder is deterministic: it never reads wall clocks, so under
/// the same seed the dumped bytes are bit-identical — the event suffix
/// of a crash-at-step-k dump equals the crash-free run's trace prefix
/// (pinned in tests/profiler_test.cpp).

namespace syncts::obs {

enum class PostmortemReason : std::uint8_t {
    crash = 1,   ///< an injected CrashRule fired
    error = 2,   ///< a typed runtime error (stall, wire, recovery)
    manual = 3,  ///< caller-requested dump
};

const char* to_string(PostmortemReason reason) noexcept;

/// Typed decode failure for SYFR bytes — fuzzed alongside the WAL and
/// snapshot codecs (tests/fuzz_parsers_test.cpp).
class PostmortemError : public std::runtime_error {
public:
    enum class Code {
        bad_magic,
        bad_version,
        truncated,
        trailing_bytes,
        bad_checksum,
        malformed,
    };

    PostmortemError(Code code, const std::string& what)
        : std::runtime_error(what), code_(code) {}

    Code code() const noexcept { return code_; }

private:
    Code code_;
};

/// Decoded SYFR dump (see docs/FORMATS.md section 7 for the byte
/// layout).
struct Postmortem {
    PostmortemReason reason = PostmortemReason::manual;
    std::uint32_t process = 0;        ///< crashed / faulting process
    std::uint64_t step = 0;           ///< its protocol step count
    std::uint64_t epoch = 0;          ///< its epoch at the dump
    std::uint64_t frontier_epoch = 0; ///< stability frontier at the dump
    std::uint64_t wal_lsn = 0;        ///< durable WAL position (next LSN)
    std::uint64_t virtual_time = 0;   ///< dump instant
    std::uint64_t snapshots = 0;      ///< metrics snapshots taken so far
    MetricsSnapshot metrics;          ///< last periodic snapshot
    MetricsDelta rates;               ///< delta over the last interval
    std::vector<TraceEvent> events;   ///< retained ring, oldest first

    friend bool operator==(const Postmortem&, const Postmortem&) = default;
};

/// Appends the SYFR binary form: magic + version + header + the last
/// metrics snapshot/delta + packed events, trailed by a 4-byte
/// little-endian CRC32C checksum over everything before it.
void encode_postmortem_into(const Postmortem& postmortem,
                            std::vector<std::uint8_t>& out);

/// Strict parse of `encode_postmortem_into` output. Throws
/// PostmortemError (never UB) on truncated, bit-flipped, or otherwise
/// malformed input.
Postmortem decode_postmortem(std::span<const std::uint8_t> bytes);

class FlightRecorder {
public:
    /// `capacity` bounds the event ring (>= 1); `snapshot_interval` is
    /// the number of tick() calls (protocol steps) between metrics
    /// snapshots (>= 1).
    explicit FlightRecorder(std::size_t capacity = 4096,
                            std::uint64_t snapshot_interval = 64);

    std::size_t capacity() const noexcept { return ring_.size(); }
    std::uint64_t snapshot_interval() const noexcept { return interval_; }

    /// O(1) ring capture; also notes epoch entry times (kind::epoch) so
    /// frontier truncation can map epochs to event times. Inline and
    /// division-free — the recorder mirrors every hot-path trace event.
    void record(const TraceEvent& event) {
        if (event.kind == TraceEventKind::epoch) [[unlikely]] {
            epoch_entry_.try_emplace(event.arg_a, event.virtual_time);
        }
        if (retained() == ring_.size()) {
            ++first_;
            ++wrapped_;
        }
        ring_[head_] = event;
        if (++head_ == ring_.size()) head_ = 0;
        ++recorded_;
    }

    /// Called once per protocol step with the live registry; every
    /// `snapshot_interval` calls it stores a snapshot and the delta
    /// (interval rates) against the previous one. The periodic refresh
    /// is raw value loads against a cached name layout
    /// (`MetricsRegistry::read_values`) — no strings, maps, or
    /// allocations on the protocol path; the name-keyed snapshot and
    /// rate maps are materialized lazily at dump or accessor time.
    void tick(const MetricsRegistry& registry) {
        if (++since_snapshot_ < interval_) return;
        since_snapshot_ = 0;
        refresh_snapshot(registry);
    }

    /// Advances the stability frontier: retained events older than the
    /// frontier epoch's entry are discarded (Drummond–Barbosa rule — no
    /// surviving rewind can need them).
    void note_frontier(std::uint64_t epoch);

    /// Builds, retains (last_dump()) and — when set_dump_path() was
    /// called — writes one SYFR post-mortem.
    void dump(PostmortemReason reason, std::uint32_t process,
              std::uint64_t step, std::uint64_t epoch,
              std::uint64_t wal_lsn, std::uint64_t virtual_time,
              const MetricsRegistry* registry = nullptr);

    /// Dumps overwrite; empty before the first dump.
    const std::vector<std::uint8_t>& last_dump() const noexcept {
        return last_dump_;
    }
    std::uint64_t dumps() const noexcept { return dumps_; }

    /// Events currently retained / discarded at the frontier / lost to
    /// ring wraparound.
    std::size_t retained() const noexcept {
        return static_cast<std::size_t>(recorded_ - first_);
    }
    std::uint64_t truncated() const noexcept { return truncated_; }
    std::uint64_t wrapped() const noexcept { return wrapped_; }
    std::uint64_t frontier() const noexcept { return frontier_; }
    std::uint64_t snapshots() const noexcept { return snapshots_; }
    const MetricsSnapshot& last_snapshot() const;
    const MetricsDelta& last_rates() const;

    /// Retained events oldest first.
    std::vector<TraceEvent> events() const;

    /// When set, every dump is also written to this file (overwriting —
    /// black-box semantics keep the latest incident).
    void set_dump_path(std::string path) { dump_path_ = std::move(path); }

    /// Publishes recorder health into `registry` (`flight_*` metrics —
    /// see docs/OBSERVABILITY.md).
    void publish_metrics(MetricsRegistry& registry) const;

private:
    void truncate_before(std::uint64_t virtual_time);
    void refresh_snapshot(const MetricsRegistry& registry);
    void rekey(const MetricsRegistry& registry);
    void materialize() const;

    std::vector<TraceEvent> ring_;
    std::uint64_t recorded_ = 0;  ///< total events ever recorded
    std::size_t head_ = 0;        ///< next write slot (recorded_ % capacity)
    std::uint64_t first_ = 0;     ///< logical index of the oldest retained
    std::uint64_t truncated_ = 0;
    std::uint64_t wrapped_ = 0;
    std::uint64_t frontier_ = 0;
    /// First virtual time seen for each epoch id (entry instant).
    std::map<std::uint64_t, std::uint64_t> epoch_entry_;

    std::uint64_t interval_;
    std::uint64_t since_snapshot_ = 0;
    std::uint64_t snapshots_ = 0;

    /// Positional value store for the periodic refresh: names are
    /// cached once per registry layout (layout_version gates staleness)
    /// and the interval refresh is two vectors of relaxed loads. A
    /// counter's previous value doubles as its interval baseline —
    /// zero means "count from zero", exactly the new-counter rule.
    const MetricsRegistry* source_ = nullptr;
    std::uint64_t layout_version_ = 0;
    std::vector<std::string> counter_names_;
    std::vector<std::string> gauge_names_;
    std::vector<std::uint64_t> counter_values_;
    std::vector<std::uint64_t> prev_counters_;
    std::vector<std::int64_t> gauge_values_;

    /// Name-keyed views, rebuilt from the vectors only when read
    /// (last_snapshot / last_rates / dump).
    mutable bool materialized_ = true;
    mutable MetricsSnapshot snapshot_;
    mutable MetricsDelta rates_;

    std::uint64_t dumps_ = 0;
    std::vector<std::uint8_t> last_dump_;
    std::string dump_path_;
};

}  // namespace syncts::obs
