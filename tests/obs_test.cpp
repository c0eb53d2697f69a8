#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clocks/online_clock.hpp"
#include "common/rng.hpp"
#include "common/timestamp_arena.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/synchronizer.hpp"
#include "test_util.hpp"
#include "trace/generator.hpp"

/// The instrumentation layer: registry semantics, histogram percentiles,
/// ring-buffer wraparound, binary round-trips, Chrome trace-event export
/// (schema-checked and golden-file pinned), end-to-end synchronizer
/// metrics — including the non-overlapping ACK-replay accounting — and
/// report determinism.

namespace syncts {
namespace {

constexpr std::uint32_t kAckKind = 1;

// ---- Minimal JSON validator -----------------------------------------
// Recursive-descent structural check (no external deps): verifies the
// text is one well-formed JSON value. Returns false instead of throwing
// so tests can assert on malformed inputs too.

class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : text_(text) {}

    bool valid() {
        pos_ = 0;
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == text_.size();
    }

private:
    bool value() {
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }
    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }
    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') ++pos_;
            ++pos_;
        }
        if (pos_ >= text_.size()) return false;
        ++pos_;  // closing quote
        return true;
    }
    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }
    bool literal(const char* word) {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0) return false;
        pos_ += len;
        return true;
    }
    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

bool is_valid_json(const std::string& text) {
    return JsonChecker(text).valid();
}

/// A tiny fixed rendezvous workload: path(2), two messages 0 -> 1,
/// reliable unit-latency network — small enough that its trace is pinned
/// byte-for-byte by the golden file.
struct SmallRun {
    std::shared_ptr<const EdgeDecomposition> decomposition;
    SyncComputation script;

    SmallRun()
        : decomposition(std::make_shared<const EdgeDecomposition>(
              trivial_complete_decomposition(topology::path(2)))),
          script(topology::path(2)) {
        script.add_message(0, 1);
        script.add_message(0, 1);
    }
};

// ---- Counters, gauges, histograms -----------------------------------

TEST(Metrics, CounterStartsAtZeroAndAccumulates) {
    obs::Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.inc();
    counter.inc(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
    obs::Gauge gauge;
    gauge.set(-7);
    EXPECT_EQ(gauge.value(), -7);
    gauge.add(10);
    EXPECT_EQ(gauge.value(), 3);
}

TEST(Metrics, HistogramSummaryPercentiles) {
    const std::vector<std::uint64_t> bounds{1, 2, 4, 8, 16};
    obs::Histogram histogram{std::span<const std::uint64_t>(bounds)};
    for (std::uint64_t v = 1; v <= 100; ++v) histogram.record(v % 10 + 1);
    const obs::Histogram::Summary summary = histogram.summary();
    EXPECT_EQ(summary.count, 100u);
    EXPECT_EQ(summary.min, 1u);
    EXPECT_EQ(summary.max, 10u);
    // Values are 1..10 uniform; the p50 bucket bound is 8 (values 5..8),
    // p95/p99 land in the 16-bucket but are clamped to the observed max.
    EXPECT_EQ(summary.p50, 8u);
    EXPECT_EQ(summary.p95, 10u);
    EXPECT_EQ(summary.p99, 10u);
}

TEST(Metrics, HistogramOverflowClampsToObservedMax) {
    const std::vector<std::uint64_t> bounds{10};
    obs::Histogram histogram{std::span<const std::uint64_t>(bounds)};
    histogram.record(1'000'000);
    const obs::Histogram::Summary summary = histogram.summary();
    EXPECT_EQ(summary.count, 1u);
    EXPECT_EQ(summary.p50, 1'000'000u);
    EXPECT_EQ(summary.max, 1'000'000u);
}

TEST(Metrics, HistogramSingleObservationQuantiles) {
    const std::vector<std::uint64_t> bounds{1, 2, 4, 8, 16};
    obs::Histogram histogram{std::span<const std::uint64_t>(bounds)};
    histogram.record(3);
    const obs::Histogram::Summary summary = histogram.summary();
    EXPECT_EQ(summary.count, 1u);
    EXPECT_EQ(summary.min, 3u);
    EXPECT_EQ(summary.max, 3u);
    // Every quantile lands in the one occupied bucket (bound 4) and is
    // clamped to the observed maximum — a single sample reports itself.
    EXPECT_EQ(summary.p50, 3u);
    EXPECT_EQ(summary.p95, 3u);
    EXPECT_EQ(summary.p99, 3u);
}

TEST(Metrics, HistogramP99ClampsInsideAWideTopBucket) {
    // Nine values 2..10 all land in the [2, 1000] bucket; the p99 bound
    // must report the observed max (10), never the bucket bound (1000).
    const std::vector<std::uint64_t> bounds{1, 1000};
    obs::Histogram histogram{std::span<const std::uint64_t>(bounds)};
    for (std::uint64_t v = 2; v <= 10; ++v) histogram.record(v);
    const obs::Histogram::Summary summary = histogram.summary();
    EXPECT_EQ(summary.p50, 10u);
    EXPECT_EQ(summary.p99, 10u);
    EXPECT_EQ(summary.max, 10u);
}

TEST(Metrics, HistogramRejectsNonIncreasingBounds) {
    const std::vector<std::uint64_t> bad{4, 4};
    EXPECT_THROW(
        obs::Histogram{std::span<const std::uint64_t>(bad)},
        std::invalid_argument);
}

// ---- Registry --------------------------------------------------------

TEST(MetricsRegistry, CreateOrReturnKeepsStableAddresses) {
    obs::MetricsRegistry registry;
    obs::Counter& a = registry.counter("hits");
    a.inc();
    obs::Counter& b = registry.counter("hits");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 1u);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, CrossKindNameCollisionThrows) {
    obs::MetricsRegistry registry;
    registry.counter("x");
    EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
    EXPECT_THROW(registry.histogram("x"), std::invalid_argument);
}

TEST(MetricsRegistry, JsonIsValidSortedAndDeterministic) {
    obs::MetricsRegistry registry;
    registry.counter("zeta").inc(3);
    registry.counter("alpha").inc(1);
    registry.gauge("width").set(-2);
    registry.histogram("lat").record(7);
    const std::string json = registry.to_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
    // Sorted name order within each section.
    EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
    EXPECT_NE(json.find("\"width\":-2"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_EQ(json, registry.to_json());  // byte-stable
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
    obs::MetricsRegistry registry;
    registry.counter("c").inc(5);
    registry.gauge("g").set(5);
    registry.histogram("h").record(5);
    registry.reset();
    EXPECT_EQ(registry.counter("c").value(), 0u);
    EXPECT_EQ(registry.gauge("g").value(), 0);
    EXPECT_EQ(registry.histogram("h").count(), 0u);
    EXPECT_EQ(registry.size(), 3u);
}

// ---- Snapshots and deltas --------------------------------------------

TEST(MetricsSnapshot, SnapshotCopiesCountersAndGaugesInNameOrder) {
    obs::MetricsRegistry registry;
    registry.counter("zeta").inc(2);
    registry.counter("alpha").inc(7);
    registry.gauge("level").set(-4);
    registry.histogram("lat").record(1);  // histograms are not snapshotted
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters.at("alpha"), 7u);
    EXPECT_EQ(snap.counters.at("zeta"), 2u);
    EXPECT_EQ(snap.gauges.at("level"), -4);
}

TEST(MetricsSnapshot, DeltaReportsCounterIncrementsAndGaugeLevels) {
    obs::MetricsRegistry registry;
    registry.counter("commits").inc(10);
    registry.gauge("width").set(3);
    const obs::MetricsSnapshot before = registry.snapshot();
    registry.counter("commits").inc(4);
    registry.gauge("width").set(9);
    const obs::MetricsSnapshot after = registry.snapshot();
    const obs::MetricsDelta delta = obs::snapshot_delta(before, after);
    // Counters are monotonic: the delta is the interval increment.
    EXPECT_EQ(delta.counters.at("commits"), 4u);
    // Gauges are instantaneous levels and pass through unchanged.
    EXPECT_EQ(delta.gauges.at("width"), 9);
}

TEST(MetricsSnapshot, DeltaAppliesTheCounterResetRule) {
    obs::MetricsRegistry registry;
    registry.counter("commits").inc(10);
    const obs::MetricsSnapshot before = registry.snapshot();
    registry.reset();
    registry.counter("commits").inc(3);
    const obs::MetricsDelta delta =
        obs::snapshot_delta(before, registry.snapshot());
    // A counter that moved backwards restarts the interval at its new
    // value instead of underflowing.
    EXPECT_EQ(delta.counters.at("commits"), 3u);
}

TEST(MetricsSnapshot, DeltaCountsMidIntervalRegistrationsFromZero) {
    obs::MetricsRegistry registry;
    registry.counter("old").inc(1);
    const obs::MetricsSnapshot before = registry.snapshot();
    registry.counter("fresh").inc(6);
    const obs::MetricsDelta delta =
        obs::snapshot_delta(before, registry.snapshot());
    EXPECT_EQ(delta.counters.at("fresh"), 6u);
    EXPECT_EQ(delta.counters.at("old"), 0u);
}

// ---- Trace ring ------------------------------------------------------

obs::TraceEvent make_event(std::uint64_t i) {
    obs::TraceEvent event;
    event.virtual_time = i;
    event.logical = i * 2;
    event.arg_a = i + 100;
    event.arg_b = i + 200;
    event.process = static_cast<std::uint32_t>(i % 3);
    event.peer = static_cast<std::uint32_t>((i + 1) % 3);
    event.kind = obs::TraceEventKind::send;
    return event;
}

TEST(TraceSink, RingWrapsAroundKeepingNewestOldestFirst) {
    obs::TraceSink sink(4);
    for (std::uint64_t i = 0; i < 10; ++i) sink.record(make_event(i));
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.recorded(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    const std::vector<obs::TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i], make_event(6 + i)) << "slot " << i;
    }
}

TEST(TraceSink, ClearEmptiesButKeepsCapacity) {
    obs::TraceSink sink(2);
    sink.record(make_event(1));
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.recorded(), 0u);
    EXPECT_EQ(sink.capacity(), 2u);
}

TEST(TraceSink, BinaryRoundTripsExactly) {
    obs::TraceSink sink(16);
    for (std::uint64_t i = 0; i < 5; ++i) {
        obs::TraceEvent event = make_event(i);
        event.kind = static_cast<obs::TraceEventKind>(i % 5);
        sink.record(event);
    }
    std::vector<std::uint8_t> bytes;
    sink.write_binary(bytes);
    EXPECT_EQ(sink.events(), obs::TraceSink::read_binary(bytes));
}

TEST(TraceSink, BinaryRejectsMalformedBuffers) {
    obs::TraceSink sink(4);
    sink.record(make_event(0));
    std::vector<std::uint8_t> bytes;
    sink.write_binary(bytes);

    std::vector<std::uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(obs::TraceSink::read_binary(bad_magic),
                 std::invalid_argument);

    std::vector<std::uint8_t> truncated = bytes;
    truncated.pop_back();
    EXPECT_THROW(obs::TraceSink::read_binary(truncated),
                 std::invalid_argument);

    // A count of 41^-1 mod 2^64 makes count * 41 wrap to 1, so one
    // payload byte fits a multiply-form length check.
    constexpr std::uint64_t kWrapping = 10348173504763894809ull;
    static_assert(kWrapping * obs::kTraceEventBytes == 1);
    std::vector<std::uint8_t> wrapped(bytes.begin(), bytes.begin() + 16);
    for (std::size_t i = 0; i < 8; ++i) {
        wrapped[8 + i] = static_cast<std::uint8_t>(kWrapping >> (8 * i));
    }
    wrapped.push_back(0);
    EXPECT_THROW(obs::TraceSink::read_binary(wrapped),
                 std::invalid_argument);

    // An event kind past the enum is rejected, as the SYFR reader
    // rejects it: the kind byte closes the first event.
    std::vector<std::uint8_t> bad_kind = bytes;
    bad_kind[16 + obs::kTraceEventBytes - 1] = 200;
    EXPECT_THROW(obs::TraceSink::read_binary(bad_kind),
                 std::invalid_argument);
}

TEST(TraceSink, ChromeTraceIsValidJsonWithRequiredFields) {
    obs::TraceSink sink(8);
    sink.record(make_event(3));
    obs::TraceEvent span = make_event(4);
    span.kind = obs::TraceEventKind::phase;
    span.arg_a = 12;  // duration
    sink.record(span);
    const std::string json = sink.to_chrome_trace();
    EXPECT_TRUE(is_valid_json(json)) << json;
    for (const char* field :
         {"\"name\"", "\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"",
          "\"traceEvents\"", "\"displayTimeUnit\""}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
    // The phase event must be a complete span with a duration.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":12"), std::string::npos);
    // Instants carry the required scope field.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

// ---- Golden file -----------------------------------------------------

std::string golden_path() {
    return std::string(SYNCTS_GOLDEN_DIR) + "/fig5_small_trace.json";
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Byte-exact pin of the trace a small deterministic Fig. 5 run emits.
/// Regenerate (after an intentional schema change) with:
///   SYNCTS_REGOLD=1 ./obs_test --gtest_filter='*GoldenFile*'
TEST(TraceSink, GoldenFileChromeTraceOfSmallFig5Run) {
    const SmallRun fx;
    obs::TraceSink sink(64);
    SynchronizerOptions options;
    options.seed = 1;
    options.trace = &sink;
    const SynchronizerResult result =
        run_rendezvous_protocol(fx.decomposition, fx.script, options);
    ASSERT_EQ(result.message_stamps.size(), 2u);
    const std::string json = sink.to_chrome_trace();
    ASSERT_TRUE(is_valid_json(json)) << json;

    if (std::getenv("SYNCTS_REGOLD") != nullptr) {
        std::ofstream out(golden_path(), std::ios::binary);
        out << json;
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
        GTEST_SKIP() << "golden file regenerated";
    }
    const std::string golden = read_file(golden_path());
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << golden_path()
        << " (regenerate with SYNCTS_REGOLD=1)";
    EXPECT_EQ(json, golden);
}

// ---- End-to-end instrumentation -------------------------------------

TEST(Instrumentation, SynchronizerPublishesNonOverlappingCounters) {
    const SmallRun fx;
    obs::MetricsRegistry registry;
    SynchronizerOptions options;
    options.metrics = &registry;
    // Drop m0's ACK once: the retransmitted REQ hits the committed
    // channel and replays the cached ACK.
    options.faults.targeted_drops.push_back(
        {.source = 1, .destination = 0, .kind = kAckKind, .occurrence = 1});
    const SynchronizerResult result =
        run_rendezvous_protocol(fx.decomposition, fx.script, options);

    // Registry counters are non-overlapping: the replay is exactly one
    // ack_replay, not also a duplicate.
    EXPECT_EQ(registry.counter("sync_ack_replays").value(), 1u);
    EXPECT_EQ(registry.counter("sync_req_duplicates").value(), 0u);
    EXPECT_EQ(registry.counter("sync_commits").value(), 2u);
    EXPECT_EQ(registry.counter("sync_req_sent").value(), 2u);
    EXPECT_GE(registry.counter("sync_retransmits").value(), 1u);
    EXPECT_EQ(registry.counter("sync_ack_duplicates").value(), 0u);
    // Latency histograms cover every rendezvous.
    EXPECT_EQ(registry.histogram("sync_rendezvous_ticks").count(), 2u);
    EXPECT_EQ(registry.histogram("sync_attempts_per_message").count(), 2u);
}

TEST(Instrumentation, SynchronizerTraceCoversTheReplayPath) {
    const SmallRun fx;
    obs::TraceSink sink(256);
    SynchronizerOptions options;
    options.trace = &sink;
    options.faults.targeted_drops.push_back(
        {.source = 1, .destination = 0, .kind = kAckKind, .occurrence = 1});
    (void)run_rendezvous_protocol(fx.decomposition, fx.script, options);
    std::size_t sends = 0, commits = 0, replays = 0, timeouts = 0;
    sink.for_each([&](const obs::TraceEvent& event) {
        switch (event.kind) {
            case obs::TraceEventKind::send: ++sends; break;
            case obs::TraceEventKind::commit: ++commits; break;
            case obs::TraceEventKind::ack_replay: ++replays; break;
            case obs::TraceEventKind::timeout: ++timeouts; break;
            default: break;
        }
    });
    EXPECT_EQ(sends, 2u);
    EXPECT_EQ(commits, 2u);
    EXPECT_EQ(replays, 1u);
    EXPECT_GE(timeouts, 1u);
}

TEST(Instrumentation, ClockEngineCountsStampsPerFamily) {
    const Graph topology = topology::path(3);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    SyncComputation script(topology);
    script.add_message(0, 1);
    script.add_internal(1);
    script.add_message(1, 2);

    obs::MetricsRegistry registry;
    OnlineTimestamper engine(decomposition);
    engine.attach_metrics(registry);
    TimestampArena arena(engine.width());
    (void)engine.stamp_messages(script, arena);
    EXPECT_EQ(registry.counter("clock_online_stamps").value(), 2u);
    EXPECT_EQ(registry.counter("clock_online_internal_ticks").value(), 1u);
    EXPECT_EQ(registry.gauge("clock_width").value(),
              static_cast<std::int64_t>(engine.width()));
}

TEST(Instrumentation, ArenaCountsSlotsGrowthAndKernelTraffic) {
    obs::MetricsRegistry registry;
    TimestampArena arena(2);
    arena.attach_metrics(registry, "arena");
    const TsHandle a = arena.allocate();
    arena.span(a)[0] = 3;
    (void)arena.allocate();
    EXPECT_EQ(registry.counter("arena_slots").value(), 2u);
    EXPECT_GE(registry.counter("arena_slab_growths").value(), 1u);
    EXPECT_GE(registry.gauge("arena_slab_bytes").value(),
              static_cast<std::int64_t>(2 * 2 * sizeof(std::uint64_t)));

    const std::vector<std::uint64_t> probe{1, 0};
    std::vector<std::uint8_t> out(arena.size());
    leq_many(arena, probe, out);
    EXPECT_EQ(registry.counter("arena_kernel_calls").value(), 1u);
    EXPECT_EQ(registry.counter("arena_kernel_rows").value(), 2u);

    arena.clear();
    EXPECT_EQ(registry.counter("arena_clears").value(), 1u);
}

TEST(Instrumentation, DecompositionSelectionPublishesGauges) {
    const auto publish = [](const Graph& topology,
                            obs::MetricsRegistry& registry) {
        const EdgeDecomposition chosen =
            default_decomposition(topology, &registry);
        EXPECT_EQ(registry.gauge("decomp_groups").value(),
                  static_cast<std::int64_t>(chosen.size()));
        EXPECT_GT(registry.gauge("decomp_greedy_groups").value(), 0);
        EXPECT_GT(registry.gauge("decomp_cover_groups").value(), 0);
        EXPECT_GE(registry.gauge("decomp_gap").value(), 0);
        EXPECT_EQ(registry.gauge("decomp_groups").value(),
                  registry.gauge("decomp_lower_bound").value() +
                      registry.gauge("decomp_gap").value());
    };
    obs::MetricsRegistry client_server;
    publish(topology::client_server(2, 4), client_server);

    // On a bipartite grid the König cover wins and the maximum-matching
    // bound proves it optimal (Fig. 7 greedy alone gives 176).
    obs::MetricsRegistry grid;
    publish(topology::grid(16, 16), grid);
    EXPECT_EQ(grid.gauge("decomp_groups").value(), 128);
    EXPECT_EQ(grid.gauge("decomp_cover_groups").value(), 128);
    EXPECT_EQ(grid.gauge("decomp_lower_bound").value(), 128);
    EXPECT_EQ(grid.gauge("decomp_gap").value(), 0);
}

TEST(Instrumentation, SameSeedRunsProduceIdenticalReports) {
    const auto run_once = [](obs::MetricsRegistry& registry) {
        const Graph topology = topology::disjoint_triangles(2);
        auto decomposition = std::make_shared<const EdgeDecomposition>(
            default_decomposition(topology, &registry));
        Rng rng(7);
        WorkloadOptions workload;
        workload.num_messages = 60;
        const SyncComputation script =
            random_computation(topology, workload, rng);
        SynchronizerOptions options;
        options.seed = 7;
        options.latency_hi = 5;
        options.faults.drop_probability = 0.1;
        options.faults.corrupt_probability = 0.05;
        options.metrics = &registry;
        (void)run_rendezvous_protocol(decomposition, script, options);
    };
    obs::MetricsRegistry first;
    obs::MetricsRegistry second;
    run_once(first);
    run_once(second);
    EXPECT_EQ(first.to_json(), second.to_json());
}

// ---- The metric catalog matches the registry -------------------------

/// Histogram names of a registry, read off its JSON (the registry
/// enumerates only counters and gauges).
std::vector<std::string> histogram_names(const std::string& json) {
    std::vector<std::string> names;
    const std::string key = "\"histograms\":{";
    std::size_t at = json.find(key);
    if (at == std::string::npos) return names;
    at += key.size();
    int depth = 0;
    for (; at < json.size(); ++at) {
        const char c = json[at];
        if (c == '"' && depth == 0) {
            const std::size_t end = json.find('"', at + 1);
            names.push_back(json.substr(at + 1, end - at - 1));
            at = end;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            if (depth == 0) break;
            --depth;
        }
    }
    return names;
}

/// Name patterns of every table row in docs/OBSERVABILITY.md §1: the
/// backticked names of each row's first cell, `<family>`-style
/// placeholders matching any name segment.
std::vector<std::regex> catalog_patterns() {
    std::ifstream in(std::string(SYNCTS_DOCS_DIR) + "/OBSERVABILITY.md");
    EXPECT_TRUE(in.good()) << "cannot read docs/OBSERVABILITY.md";
    std::vector<std::regex> patterns;
    bool in_catalog = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            in_catalog = line.rfind("## 1.", 0) == 0;
            continue;
        }
        if (!in_catalog || line.rfind("| `", 0) != 0) continue;
        const std::string cell = line.substr(1, line.find('|', 1) - 1);
        std::size_t open = cell.find('`');
        while (open != std::string::npos) {
            const std::size_t close = cell.find('`', open + 1);
            const std::string name = cell.substr(open + 1, close - open - 1);
            patterns.emplace_back(std::regex_replace(
                name, std::regex("<[a-z_]+>"), "[a-z0-9_]+"));
            open = cell.find('`', close + 1);
        }
    }
    return patterns;
}

TEST(Instrumentation, MetricCatalogCoversEveryRegisteredName) {
    // One fully instrumented run: every wire knob, every fault kind, a
    // crash, a trace sink and a flight recorder.
    const Graph graph = topology::client_server(2, 4);
    obs::MetricsRegistry registry;
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(graph, &registry));
    const SyncComputation script =
        testing::random_workload(graph, 200, 0.0, 12);
    obs::TraceSink sink(1 << 12);
    obs::FlightRecorder recorder(1 << 10, 16);
    SynchronizerOptions options;
    options.seed = 12;
    options.latency_hi = 6;
    options.protocol.batching = true;
    options.protocol.coalesce_acks = true;
    options.protocol.delta = true;
    options.protocol.bandwidth.enabled = true;
    options.protocol.bandwidth.bytes_per_tick = 64;
    options.faults.seed = 12;
    options.faults.drop_probability = 0.05;
    options.faults.duplicate_probability = 0.05;
    options.faults.corrupt_probability = 0.05;
    options.faults.delay_probability = 0.2;
    options.faults.max_extra_delay = 10;
    options.faults.crashes.push_back(CrashRule{1, 20, 60});
    options.metrics = &registry;
    options.trace = &sink;
    options.recorder = &recorder;
    (void)run_rendezvous_protocol(decomposition, script, options);

    std::vector<std::string> names;
    std::vector<std::string> gauges;
    registry.value_layout(names, gauges);
    names.insert(names.end(), gauges.begin(), gauges.end());
    for (const std::string& histogram : histogram_names(registry.to_json())) {
        names.push_back(histogram);
    }
    ASSERT_GT(names.size(), 50u);
    const std::vector<std::regex> patterns = catalog_patterns();
    ASSERT_FALSE(patterns.empty());
    for (const std::string& name : names) {
        const bool documented =
            std::any_of(patterns.begin(), patterns.end(),
                        [&](const std::regex& pattern) {
                            return std::regex_match(name, pattern);
                        });
        EXPECT_TRUE(documented)
            << name << " is missing from docs/OBSERVABILITY.md §1";
    }
}

}  // namespace
}  // namespace syncts
