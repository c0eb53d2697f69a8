// syncts_stats — one-stop instrumented run reporter. Replays a seeded
// random workload through the full stack (decomposition selection, the
// Fig. 5 online clock, the fault-tolerant rendezvous protocol) with the
// obs::MetricsRegistry attached to every layer, verifies the realized
// timestamps against the direct simulator, and emits a machine-readable
// report.
//
// Usage:
//   syncts_stats [--topology <spec>] [--events N[k|m]] [--seed S]
//                [--runs R] [--drop P] [--dup P] [--corrupt P] [--delay P]
//                [--jitter J] [--latency LO:HI] [--trace FILE.json]
//                [--trace-binary FILE.bin] [--trace-capacity N]
//                [--threads T] [--queries K] [--reconfig SCHED]
//                [--profile] [--crash P:STEP:DOWN] [--flight FILE.syfr]
//                [--json] [--quiet]
//   syncts_stats --postmortem FILE.syfr
//
// --profile turns on the causal profiler (docs/PROFILING.md): the last
// run's trace is profiled into the critical rendezvous path, per-process
// blocked/working/down/barrier-stall attribution, per-channel wait
// totals, and per-epoch barrier stalls, reported as a deterministic
// sorted-key "profile" JSON object (plus a human summary). With --trace,
// the exported Chrome trace gains a highlighted "critical path" track.
// Profiling clears the sink between runs so the profile (and the trace
// files) describe exactly the final run.
//
// --crash P:STEP:DOWN injects a crash rule (process P crashes at its
// STEP-th protocol step, restarts after DOWN virtual ticks) and arms the
// recovery layer; repeatable.
//
// --flight attaches the flight recorder and writes its latest SYFR
// post-mortem to the given path when a crash rule fires or a run stalls
// (no file is written on a clean run). --postmortem decodes such a file
// and prints it; the tool exits without running anything.
//
// --reconfig takes a reconfiguration schedule (grammar in
// topo/reconfig.hpp): each op starts a new topology epoch, the N events
// are split evenly across epochs, the whole sequence replays through the
// reconfigurable driver, and each epoch's timestamps are verified against
// a fresh Fig. 5 run on that epoch's topology. The analysis section then
// verifies the *stitched* order — MultiEpochTrace's barrier rule against
// the cross-epoch ground-truth closure (docs/TOPOLOGY.md).
//
// --threads/--queries turn on the offline analysis section: the
// ground-truth closure and Theorem 4 verification run sharded across a
// T-wide analysis pool, and K seeded precedence queries hammer the
// PrecedenceIndex memo (every answer re-checked against the direct
// vector compare). Query/verification disagreements fold into the exit
// status like stamp mismatches do.
//
// The report is deterministic: same seed, same flags => byte-identical
// counters (the registry snapshots in sorted name order; every random
// choice is seeded). The analysis section adds one wall-clock field
// (analysis.wall_ms) — everything else in it, memo hit counts included,
// is byte-identical across same-seed runs at a fixed --threads value.
// Exit status: 0 clean; 1 on any timestamp mismatch,
// protocol stall, or undetected frame corruption; 2 on usage errors —
// so the binary doubles as a CI smoke gate (see .github/workflows/ci.yml).
// Counts take an optional k or m suffix ("2k" = 2000), --threads lies in
// [1, 256], probabilities lie in [0, 1] and --latency needs
// 1 <= LO <= HI; a malformed value prints "bad value ..." and exits 2.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "clocks/online_clock.hpp"
#include "common/pool.hpp"
#include "common/spill_store.hpp"
#include "common/ts_kernels.hpp"
#include "core/streaming_index.hpp"
#include "poset/streaming_closure.hpp"
#include "trace/trace_io.hpp"
#include "obs/causal_profiler.hpp"
#include "obs/flight_recorder.hpp"
#include "core/causality.hpp"
#include "core/multi_epoch_trace.hpp"
#include "core/precedence_index.hpp"
#include "core/timestamped_trace.hpp"
#include "decomp/cover_decomposer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/reconfig_runtime.hpp"
#include "runtime/synchronizer.hpp"
#include "topo/reconfig.hpp"
#include "topo/topology_manager.hpp"
#include "topo_spec.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

using namespace syncts;

namespace {

struct Config {
    std::string spec = "tri3";
    std::size_t events = 1000;  // messages pushed through the protocol
    std::uint64_t seed = 1;
    std::uint64_t runs = 1;
    double drop = 0.0;
    double dup = 0.0;
    double corrupt = 0.0;
    double delay = 0.0;
    std::uint64_t jitter = 0;
    std::uint64_t latency_lo = 1;
    std::uint64_t latency_hi = 1;
    std::string trace_json_path;
    std::string trace_binary_path;
    std::size_t trace_capacity = 1 << 16;
    std::size_t threads = 1;
    std::size_t queries = 0;
    std::string reconfig;   // epoch schedule; empty = single epoch
    bool analysis = false;  // set when --threads or --queries is passed
    bool profile = false;
    std::vector<CrashRule> crashes;
    std::string flight_path;      // SYFR dump target; empty = no recorder
    std::string postmortem_path;  // decode-and-exit mode
    bool batch = false;           // frame batching + ACK coalescing
    bool delta = false;           // delta-encoded vectors
    std::uint64_t bandwidth = 0;  // bytes/tick budget; 0 = unshaped
    bool stream = false;          // streaming out-of-core analysis section
    std::size_t max_resident_mb = 0;  // streaming memory budget; 0 = default
    std::string spill_dir;            // retired-chunk directory; empty = RAM
    std::string ingest_path;          // SYTR v2 input ('-' = stdin)
    std::string emit_sytr_path;       // SYTR v2 output ('-' = stdout)
    bool json = false;
    bool quiet = false;
};

[[noreturn]] void usage() {
    std::fprintf(
        stderr,
        "usage: syncts_stats [--topology <spec>] [--events N[k|m]] "
        "[--seed S] [--runs R]\n"
        "                    [--drop P] [--dup P] [--corrupt P] [--delay P] "
        "[--jitter J]\n"
        "                    [--latency LO:HI] [--trace FILE.json]\n"
        "                    [--trace-binary FILE.bin] [--trace-capacity N]\n"
        "                    [--threads T (1..256)] [--queries K] "
        "[--reconfig SCHED] [--json]\n"
        "                    [--profile] [--crash P:STEP:DOWN] "
        "[--flight FILE.syfr]\n"
        "                    [--batch] [--delta] "
        "[--bandwidth BYTES_PER_TICK] [--quiet]\n"
        "                    [--stream] [--max-resident-mb MB] "
        "[--spill-dir DIR]\n"
        "                    [--emit-sytr FILE.sytr]\n"
        "       syncts_stats --ingest FILE.sytr|- [--stream flags] [--json]\n"
        "       syncts_stats --postmortem FILE.syfr\nspecs: %s\n",
        tools::spec_help());
    std::exit(2);
}

/// Parses a --crash rule "P:STEP:DOWN" of counts, STEP >= 1.
CrashRule parse_crash(const char* text) {
    const std::vector<std::string> fields = tools::split(text, ':');
    if (fields.size() != 3) {
        tools::reject_value("--crash", text, "not P:STEP:DOWN");
    }
    const std::uint64_t process = tools::parse_count("--crash", fields[0]);
    if (process > std::numeric_limits<ProcessId>::max()) {
        tools::reject_value("--crash", text, "no such process");
    }
    CrashRule rule;
    rule.process = static_cast<ProcessId>(process);
    rule.at_step = tools::parse_count("--crash", fields[1]);
    rule.downtime = tools::parse_count("--crash", fields[2]);
    if (rule.at_step == 0) {
        tools::reject_value("--crash", text, "STEP must be at least 1");
    }
    return rule;
}

Config parse_args(int argc, char** argv) {
    Config config;
    int i = 1;
    const auto next_value = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag);
            usage();
        }
        return argv[++i];
    };
    // Counts take a k or m suffix ("5k", "2m") and are overflow-checked,
    // so a 10m-scale count can never wrap on its way into the derived
    // counters; a malformed value exits 2 (topo_spec.hpp).
    const auto next_count = [&](const char* flag) {
        return tools::parse_count(flag, next_value(flag));
    };
    const auto next_positive = [&](const char* flag) {
        return tools::parse_positive(flag, next_value(flag));
    };
    const auto next_probability = [&](const char* flag) {
        return tools::parse_probability(flag, next_value(flag));
    };
    for (; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--topology") {
            config.spec = next_value("--topology");
        } else if (flag == "--events") {
            config.events = next_count("--events");
        } else if (flag == "--seed") {
            config.seed = next_count("--seed");
        } else if (flag == "--runs") {
            config.runs = next_positive("--runs");
        } else if (flag == "--drop") {
            config.drop = next_probability("--drop");
        } else if (flag == "--dup") {
            config.dup = next_probability("--dup");
        } else if (flag == "--corrupt") {
            config.corrupt = next_probability("--corrupt");
        } else if (flag == "--delay") {
            config.delay = next_probability("--delay");
        } else if (flag == "--jitter") {
            config.jitter = next_count("--jitter");
        } else if (flag == "--latency") {
            std::tie(config.latency_lo, config.latency_hi) =
                tools::parse_range("--latency", next_value("--latency"));
        } else if (flag == "--trace") {
            config.trace_json_path = next_value("--trace");
        } else if (flag == "--trace-binary") {
            config.trace_binary_path = next_value("--trace-binary");
        } else if (flag == "--trace-capacity") {
            config.trace_capacity = next_positive("--trace-capacity");
        } else if (flag == "--threads") {
            config.threads = tools::parse_threads(
                "--threads", next_value("--threads"));
            config.analysis = true;
        } else if (flag == "--queries") {
            config.queries = next_count("--queries");
            config.analysis = true;
        } else if (flag == "--reconfig") {
            config.reconfig = next_value("--reconfig");
        } else if (flag == "--profile") {
            config.profile = true;
        } else if (flag == "--crash") {
            config.crashes.push_back(parse_crash(next_value("--crash")));
        } else if (flag == "--flight") {
            config.flight_path = next_value("--flight");
        } else if (flag == "--postmortem") {
            config.postmortem_path = next_value("--postmortem");
        } else if (flag == "--batch") {
            config.batch = true;
        } else if (flag == "--delta") {
            config.delta = true;
        } else if (flag == "--bandwidth") {
            config.bandwidth = next_count("--bandwidth");
        } else if (flag == "--stream") {
            config.stream = true;
        } else if (flag == "--max-resident-mb") {
            config.max_resident_mb = next_count("--max-resident-mb");
        } else if (flag == "--spill-dir") {
            config.spill_dir = next_value("--spill-dir");
        } else if (flag == "--ingest") {
            config.ingest_path = next_value("--ingest");
        } else if (flag == "--emit-sytr") {
            config.emit_sytr_path = next_value("--emit-sytr");
        } else if (flag == "--json") {
            config.json = true;
        } else if (flag == "--quiet") {
            config.quiet = true;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            usage();
        }
    }
    return config;
}

bool write_file(const std::string& path, const char* data, std::size_t len) {
    std::ofstream out(path, std::ios::binary);
    out.write(data, static_cast<std::streamsize>(len));
    return static_cast<bool>(out);
}

/// --postmortem mode: decode one SYFR dump and print it, no run.
int decode_postmortem_file(const Config& config) {
    std::ifstream in(config.postmortem_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n",
                     config.postmortem_path.c_str());
        return 2;
    }
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    obs::Postmortem pm;
    try {
        pm = obs::decode_postmortem(bytes);
    } catch (const obs::PostmortemError& error) {
        std::fprintf(stderr, "postmortem decode failed: %s\n", error.what());
        return 1;
    }
    if (config.json) {
        std::string out;
        out += "{\"tool\":\"syncts_stats\",\"postmortem\":{";
        out += "\"epoch\":" + std::to_string(pm.epoch);
        out += ",\"events\":" + std::to_string(pm.events.size());
        out += ",\"frontier_epoch\":" + std::to_string(pm.frontier_epoch);
        out += ",\"metrics\":{\"counters\":{";
        bool first = true;
        for (const auto& [name, value] : pm.metrics.counters) {
            if (!first) out += ',';
            first = false;
            out += "\"" + name + "\":" + std::to_string(value);
        }
        out += "},\"gauges\":{";
        first = true;
        for (const auto& [name, value] : pm.metrics.gauges) {
            if (!first) out += ',';
            first = false;
            out += "\"" + name + "\":" + std::to_string(value);
        }
        out += "}},\"process\":" + std::to_string(pm.process);
        out += ",\"rates\":{";
        first = true;
        for (const auto& [name, value] : pm.rates.counters) {
            if (!first) out += ',';
            first = false;
            out += "\"" + name + "\":" + std::to_string(value);
        }
        out += "},\"reason\":\"";
        out += obs::to_string(pm.reason);
        out += "\",\"snapshots\":" + std::to_string(pm.snapshots);
        out += ",\"step\":" + std::to_string(pm.step);
        out += ",\"virtual_time\":" + std::to_string(pm.virtual_time);
        out += ",\"wal_lsn\":" + std::to_string(pm.wal_lsn);
        out += "}}\n";
        std::fwrite(out.data(), 1, out.size(), stdout);
        return 0;
    }
    std::printf("postmortem: reason=%s process=%u step=%llu epoch=%llu "
                "frontier=%llu wal_lsn=%llu t=%llu\n",
                obs::to_string(pm.reason), pm.process,
                static_cast<unsigned long long>(pm.step),
                static_cast<unsigned long long>(pm.epoch),
                static_cast<unsigned long long>(pm.frontier_epoch),
                static_cast<unsigned long long>(pm.wal_lsn),
                static_cast<unsigned long long>(pm.virtual_time));
    std::printf("metrics: %zu counters, %zu gauges (%llu snapshots)\n",
                pm.metrics.counters.size(), pm.metrics.gauges.size(),
                static_cast<unsigned long long>(pm.snapshots));
    std::printf("events: %zu retained; tail:\n", pm.events.size());
    const std::size_t tail = pm.events.size() < 10 ? 0 : pm.events.size() - 10;
    for (std::size_t i = tail; i < pm.events.size(); ++i) {
        const obs::TraceEvent& e = pm.events[i];
        std::printf("  t=%llu %s P%u->P%u a=%llu b=%llu logical=%llu\n",
                    static_cast<unsigned long long>(e.virtual_time),
                    obs::to_string(e.kind), e.process, e.peer,
                    static_cast<unsigned long long>(e.arg_a),
                    static_cast<unsigned long long>(e.arg_b),
                    static_cast<unsigned long long>(e.logical));
    }
    return 0;
}

/// Result of the --threads/--queries analysis section. Every field but
/// wall_ms is a pure function of (seed, topology, events, queries) — the
/// thread count only changes how the work was scheduled.
struct AnalysisReport {
    std::size_t threads = 1;
    std::size_t queries = 0;
    std::size_t poset_relations = 0;
    std::uint64_t verify_mismatches = 0;
    std::uint64_t query_mismatches = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    double wall_ms = 0.0;
};

/// Seeded (m1, m2) query pairs over a pool of ~K/4 distinct pairs:
/// monitoring workloads revisit hot pairs, so repeats (memo hits)
/// dominate.
std::vector<std::pair<std::size_t, std::size_t>> query_pairs(
    const Config& config, std::size_t messages) {
    Rng query_rng(config.seed * 0x9E3779B97F4A7C15ull + 7);
    const std::size_t distinct =
        config.queries / 4 == 0 ? 1 : config.queries / 4;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    pairs.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
        pairs.emplace_back(query_rng.below(messages),
                           query_rng.below(messages));
    }
    return pairs;
}

/// Sharded ground-truth verification plus the seeded query storm. The
/// oracle arena holds the Fig. 5 stamps (slot m = message m), so the
/// direct ts::less compare is the query oracle the memoized index must
/// agree with.
AnalysisReport run_analysis(const Config& config,
                            const SyncComputation& script,
                            const TimestampArena& oracle_arena,
                            obs::MetricsRegistry& registry) {
    AnalysisReport report;
    report.threads = config.threads;
    report.queries = config.queries;

    Pool pool(config.threads);
    pool.attach_metrics(registry, "analysis");
    AnalysisOptions options;
    options.pool = &pool;
    options.threads = pool.threads();
    options.metrics = &registry;

    const auto start = std::chrono::steady_clock::now();

    // Ground truth (level-synchronous blocked closure) and the O(M²)
    // Theorem 4 sweep, both sharded across the pool.
    const Poset truth = message_poset(script, options);
    report.poset_relations = truth.relation_count();
    report.verify_mismatches =
        encoding_mismatches(truth, oracle_arena, options);

    if (config.queries > 0) {
        // The trace copies the oracle stamps; detach the copy so kernel
        // counters aren't double-counted against the oracle arena's.
        TimestampArena stamps = oracle_arena;
        stamps.detach_metrics();
        const TimestampedTrace trace(script, std::move(stamps));
        PrecedenceIndex index(trace);
        index.attach_metrics(registry, "query");

        const auto pairs = query_pairs(config, script.num_messages());
        for (std::size_t q = 0; q < config.queries; ++q) {
            const auto& [m1, m2] = pairs[q % pairs.size()];
            if (index.precedes(static_cast<MessageId>(m1),
                               static_cast<MessageId>(m2)) !=
                trace.precedes(static_cast<MessageId>(m1),
                               static_cast<MessageId>(m2))) {
                ++report.query_mismatches;
            }
        }
        report.memo_hits = index.memo_hits();
        report.memo_misses = index.memo_misses();
    }

    const auto stop = std::chrono::steady_clock::now();
    report.wall_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
                .count()) /
        1000.0;
    pool.detach_metrics();
    return report;
}

/// Multi-epoch analysis: verify the barrier-stitched order against the
/// cross-epoch ground-truth closure, then hammer the per-segment memo
/// through MultiEpochPrecedenceIndex with global-id query pairs.
AnalysisReport run_multi_analysis(const Config& config,
                                  const MultiEpochTrace& trace,
                                  obs::MetricsRegistry& registry) {
    AnalysisReport report;
    report.threads = config.threads;
    report.queries = config.queries;

    Pool pool(config.threads);
    pool.attach_metrics(registry, "analysis");
    AnalysisOptions options;
    options.pool = &pool;
    options.threads = pool.threads();
    options.metrics = &registry;

    const auto start = std::chrono::steady_clock::now();
    report.poset_relations =
        trace.ground_truth_poset(options).relation_count();
    report.verify_mismatches = trace.verify_against_ground_truth(options);

    if (config.queries > 0) {
        MultiEpochPrecedenceIndex index(trace);
        index.attach_metrics(registry, "query");
        const auto pairs = query_pairs(config, trace.num_messages());
        for (std::size_t q = 0; q < config.queries; ++q) {
            const auto& [m1, m2] = pairs[q % pairs.size()];
            if (index.precedes(m1, m2) != trace.precedes(m1, m2)) {
                ++report.query_mismatches;
            }
        }
        report.memo_hits = index.memo_hits();
        report.memo_misses = index.memo_misses();
    }

    const auto stop = std::chrono::steady_clock::now();
    report.wall_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
                .count()) /
        1000.0;
    pool.detach_metrics();
    return report;
}

// ---------------------------------------------------------------------------
// Streaming out-of-core analysis (--stream / --ingest; docs/STREAMING.md).

/// Result of the streaming section. Every field but wall_ms is a pure
/// function of (seed, input); the budget knobs change residency, never
/// answers.
struct StreamingReport {
    std::size_t messages = 0;
    std::size_t events = 0;  ///< all records (messages + internal)
    std::size_t window = 0;
    std::size_t chunk_rows = 0;
    std::size_t resident_rows = 0;  ///< window residency at end of ingest
    std::uint64_t relations = 0;
    std::uint64_t stamp_checks = 0;
    std::uint64_t stamp_mismatches = 0;
    std::uint64_t query_checks = 0;
    std::uint64_t query_mismatches = 0;
    std::uint64_t verify_mismatches = 0;
    std::uint64_t spill_chunks = 0;
    std::uint64_t spill_bytes_written = 0;
    std::uint64_t spill_bytes_read = 0;
    double wall_ms = 0.0;

    std::uint64_t total_mismatches() const noexcept {
        return stamp_mismatches + query_mismatches + verify_mismatches;
    }
};

/// Derives the streaming residency knobs from --max-resident-mb: half
/// the budget goes to the stamp window (width-word rows), the rest
/// bounds the closure chunk (rows of up to M/64 words). Zero budget
/// keeps the defaults.
void apply_budget(const Config& config, std::size_t width,
                  std::size_t messages, std::size_t& window,
                  std::size_t& chunk_rows) {
    window = std::size_t{1} << 16;
    chunk_rows = 4096;
    if (config.max_resident_mb == 0) return;
    const std::size_t budget = config.max_resident_mb * (1u << 20);
    const std::size_t stamp_bytes = width * 8 == 0 ? 8 : width * 8;
    window = std::max<std::size_t>(1024, budget / 2 / stamp_bytes);
    const std::size_t row_bytes = std::max<std::size_t>(8, messages / 8);
    chunk_rows = std::max<std::size_t>(64, budget / 2 / row_bytes);
}

/// Every 64th message, two deterministic mid-ingestion probes: the
/// O(width) vector fast path must agree with the spilled-closure ground
/// truth on resident pairs, and the resident stamp must equal the
/// oracle's (when one exists — generated workloads only).
struct StreamProbe {
    Rng rng;
    explicit StreamProbe(std::uint64_t seed)
        : rng(seed * 0x9E3779B97F4A7C15ull + 11) {}

    void check(const IncrementalPrecedenceIndex& index,
               const StreamingClosure& closure, MessageId latest,
               const TimestampArena* oracle, StreamingReport& report) {
        if ((latest + 1) % 64 != 0) return;
        const std::uint64_t lo = index.resident_frontier();
        const std::uint64_t span = latest + 1 - lo;
        for (int probe = 0; probe < 2; ++probe) {
            const MessageId a =
                static_cast<MessageId>(lo + rng.below(span));
            const MessageId b =
                static_cast<MessageId>(lo + rng.below(span));
            ++report.query_checks;
            if (index.precedes(a, b) != closure.less(a, b)) {
                ++report.query_mismatches;
            }
        }
        if (oracle != nullptr) {
            ++report.stamp_checks;
            const auto streamed = index.stamp_span(latest);
            const auto expected =
                oracle->span(static_cast<TsHandle>(latest));
            if (!std::equal(streamed.begin(), streamed.end(),
                            expected.begin(), expected.end())) {
                ++report.stamp_mismatches;
            }
        }
    }
};

/// --stream over the generated epoch-0 workload: online ingestion through
/// the windowed incremental index feeding the out-of-core closure, then
/// the spill-aware streamed verification of the oracle stamps.
StreamingReport run_streaming(const Config& config,
                              const SyncComputation& script,
                              std::shared_ptr<const EdgeDecomposition>
                                  decomposition,
                              const TimestampArena& oracle_arena,
                              obs::MetricsRegistry& registry) {
    StreamingReport report;
    const auto start = std::chrono::steady_clock::now();

    std::unique_ptr<SpillStore> spill;
    if (!config.spill_dir.empty()) {
        spill = std::make_unique<SpillStore>(config.spill_dir + "/closure");
        spill->attach_metrics(registry, "spill");
    }
    apply_budget(config, decomposition->size(), script.num_messages(),
                 report.window, report.chunk_rows);

    StreamingClosureOptions closure_options;
    closure_options.chunk_rows = report.chunk_rows;
    closure_options.spill = spill.get();
    StreamingClosure closure(script.num_processes(), script.num_messages(),
                             closure_options);
    closure.attach_metrics(registry, "stream_closure");

    StreamingIndexOptions index_options;
    index_options.window = report.window;
    index_options.closure = &closure;
    index_options.metrics = &registry;
    IncrementalPrecedenceIndex index(decomposition, index_options);

    StreamProbe probe(config.seed);
    for (const SyncMessage& m : script.messages()) {
        const MessageId id = index.ingest_message(m.sender, m.receiver);
        probe.check(index, closure, id, &oracle_arena, report);
    }
    closure.finish();
    report.messages = index.size();
    report.events = script.num_messages() + script.num_internal_events();
    report.resident_rows =
        std::min<std::size_t>(report.window, report.messages);
    report.relations = closure.relation_count();

    // Sharded spill-aware verification of the oracle stamps, bounded to
    // one chunk window of closure rows (its own spill namespace so chunk
    // ids cannot collide with the live ingestion closure's).
    std::unique_ptr<SpillStore> verify_spill;
    if (!config.spill_dir.empty()) {
        verify_spill = std::make_unique<SpillStore>(config.spill_dir +
                                                    "/verify");
    }
    TimestampArena stamps = oracle_arena;
    stamps.detach_metrics();
    const TimestampedTrace trace(script, std::move(stamps));
    StreamedVerifyOptions verify_options;
    verify_options.chunk_rows = report.chunk_rows;
    verify_options.spill = verify_spill.get();
    verify_options.min_streamed_messages = 0;  // --stream forces the path
    verify_options.analysis.threads = config.threads;
    report.verify_mismatches =
        trace.verify_against_ground_truth(verify_options);

    if (spill != nullptr) {
        report.spill_chunks = spill->chunk_count();
        report.spill_bytes_written = spill->bytes_written();
        report.spill_bytes_read = spill->bytes_read();
    }
    report.wall_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()) /
        1000.0;
    return report;
}

void append_streaming_json(std::string& out, const StreamingReport& report) {
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", report.wall_ms);
    out += ",\"streaming\":{\"messages\":" + std::to_string(report.messages);
    out += ",\"events\":" + std::to_string(report.events);
    out += ",\"window\":" + std::to_string(report.window);
    out += ",\"chunk_rows\":" + std::to_string(report.chunk_rows);
    out += ",\"resident_rows\":" + std::to_string(report.resident_rows);
    out += ",\"relations\":" + std::to_string(report.relations);
    out += ",\"stamp_checks\":" + std::to_string(report.stamp_checks);
    out += ",\"stamp_mismatches\":" +
           std::to_string(report.stamp_mismatches);
    out += ",\"query_checks\":" + std::to_string(report.query_checks);
    out += ",\"query_mismatches\":" +
           std::to_string(report.query_mismatches);
    out += ",\"verify_mismatches\":" +
           std::to_string(report.verify_mismatches);
    out += ",\"spill_chunks\":" + std::to_string(report.spill_chunks);
    out += ",\"spill_bytes_written\":" +
           std::to_string(report.spill_bytes_written);
    out += ",\"spill_bytes_read\":" +
           std::to_string(report.spill_bytes_read);
    out += ",\"wall_ms\":";
    out += wall;
    out += "}";
}

void print_streaming_text(const StreamingReport& report) {
    std::printf(
        "stream:  messages=%zu window=%zu chunk_rows=%zu relations=%llu "
        "resident_rows=%zu\n"
        "         checks: stamp=%llu/%llu query=%llu/%llu verify=%llu  "
        "spill: chunks=%llu bytes=%llu (%.3fms)\n",
        report.messages, report.window, report.chunk_rows,
        static_cast<unsigned long long>(report.relations),
        report.resident_rows,
        static_cast<unsigned long long>(report.stamp_mismatches),
        static_cast<unsigned long long>(report.stamp_checks),
        static_cast<unsigned long long>(report.query_mismatches),
        static_cast<unsigned long long>(report.query_checks),
        static_cast<unsigned long long>(report.verify_mismatches),
        static_cast<unsigned long long>(report.spill_chunks),
        static_cast<unsigned long long>(report.spill_bytes_written),
        report.wall_ms);
}

/// --ingest mode: pure streaming analysis of a SYTR v2 file or pipe —
/// no protocol replay, no materialized computation. The topology comes
/// from the stream header; stamps are produced online and retired
/// through the window; the closure is the ground truth the fast path is
/// probed against.
int run_ingest_mode(const Config& config) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (config.ingest_path != "-") {
        file.open(config.ingest_path, std::ios::binary);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n",
                         config.ingest_path.c_str());
            return 2;
        }
        in = &file;
    }

    obs::MetricsRegistry registry;
    StreamingReport report;
    std::string topology_name;
    std::size_t num_processes = 0;
    std::size_t width = 0;
    const auto start = std::chrono::steady_clock::now();
    try {
        StreamingTraceReader reader(*in);
        num_processes = reader.topology().num_vertices();
        const SyncSystem system(reader.topology());
        width = system.width();

        std::unique_ptr<SpillStore> spill;
        if (!config.spill_dir.empty()) {
            spill = std::make_unique<SpillStore>(config.spill_dir +
                                                 "/closure");
            spill->attach_metrics(registry, "spill");
        }
        // The stream's total is unknown up front (pipes); budget the
        // chunk for the declared --events scale.
        apply_budget(config, width, config.events, report.window,
                     report.chunk_rows);

        StreamingClosureOptions closure_options;
        closure_options.chunk_rows = report.chunk_rows;
        closure_options.spill = spill.get();
        StreamingClosure closure(num_processes, config.events,
                                 closure_options);
        closure.attach_metrics(registry, "stream_closure");

        StreamingIndexOptions index_options;
        index_options.window = report.window;
        index_options.closure = &closure;
        index_options.metrics = &registry;
        IncrementalPrecedenceIndex index(system, index_options);

        StreamProbe probe(config.seed);
        while (const std::optional<TraceRecord> record = reader.next()) {
            ++report.events;
            if (record->kind == TraceRecord::Kind::message) {
                const MessageId id =
                    index.ingest_message(record->a, record->b);
                probe.check(index, closure, id, nullptr, report);
            } else {
                index.ingest_internal(record->a);
            }
        }
        closure.finish();
        report.messages = index.size();
        report.resident_rows =
            std::min<std::size_t>(report.window, report.messages);
        report.relations = closure.relation_count();
        if (spill != nullptr) {
            report.spill_chunks = spill->chunk_count();
            report.spill_bytes_written = spill->bytes_written();
            report.spill_bytes_read = spill->bytes_read();
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "ingest failed: %s\n", error.what());
        return 2;
    }
    report.wall_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()) /
        1000.0;

    const bool clean = report.total_mismatches() == 0;
    if (config.json) {
        std::string out;
        out += "{\"tool\":\"syncts_stats\",\"mode\":\"ingest\"";
        out += ",\"input\":\"";
        out += config.ingest_path == "-" ? "<stdin>" : config.ingest_path;
        out += "\",\"processes\":" + std::to_string(num_processes);
        out += ",\"width\":" + std::to_string(width);
        out += ",\"seed\":" + std::to_string(config.seed);
        append_streaming_json(out, report);
        out += ",\"metrics\":";
        registry.write_json(out);
        out += ",\"ok\":";
        out += clean ? "true" : "false";
        out += "}\n";
        std::fwrite(out.data(), 1, out.size(), stdout);
    } else if (!config.quiet) {
        std::printf("syncts_stats --ingest %s: n=%zu d=%zu events=%zu\n",
                    config.ingest_path.c_str(), num_processes, width,
                    report.events);
        print_streaming_text(report);
        std::printf("%s\n", clean ? "PASS" : "FAIL");
    }
    return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Config config = parse_args(argc, argv);
    if (!config.postmortem_path.empty()) {
        return decode_postmortem_file(config);
    }
    if (!config.ingest_path.empty()) {
        return run_ingest_mode(config);
    }
    const Graph topology = tools::build_topology(config.spec);

    obs::MetricsRegistry registry;
    obs::TraceSink sink(config.trace_capacity);
    const bool tracing =
        !config.trace_json_path.empty() || !config.trace_binary_path.empty();
    // The profiler consumes the same sink the trace exports come from.
    const bool capture = tracing || config.profile;
    // The flight recorder is armed by an explicit dump path or by crash
    // rules (the dump is retained in memory either way; the file is only
    // written when --flight names one).
    const bool flight =
        !config.flight_path.empty() || !config.crashes.empty();
    obs::FlightRecorder recorder(config.trace_capacity, 64);
    if (!config.flight_path.empty()) {
        recorder.set_dump_path(config.flight_path);
    }

    // Epoch sequence: epoch 0 is the instrumented default decomposition;
    // each --reconfig op adds one epoch (topo_* counters land in the
    // registry like every other layer's).
    TopologyManager manager{default_decomposition(topology, &registry)};
    manager.attach_metrics(registry);
    if (!config.reconfig.empty()) {
        for (const ReconfigOp& op :
             parse_reconfig_schedule(config.reconfig, topology)) {
            apply(manager, op);
        }
    }
    const std::size_t num_epochs = manager.num_epochs();
    for (const CrashRule& rule : config.crashes) {
        if (rule.process >= manager.max_num_processes()) {
            std::fprintf(stderr, "--crash names process %u but the "
                         "topology has %zu processes\n",
                         rule.process, manager.max_num_processes());
            usage();
        }
    }
    const std::size_t events_per_epoch =
        config.events / num_epochs == 0 ? 1 : config.events / num_epochs;

    // Direct Fig. 5 stamps per epoch (the oracle), through instrumented
    // timestampers and arenas. expected[e][m] is script m's reference
    // stamp.
    Rng workload_rng(config.seed);
    std::vector<SyncComputation> scripts;
    std::vector<std::unique_ptr<TimestampArena>> oracle_arenas;
    std::vector<std::vector<TsHandle>> expected;
    std::size_t total_messages = 0;
    for (EpochId e = 0; e < num_epochs; ++e) {
        WorkloadOptions workload;
        workload.num_messages = events_per_epoch;
        scripts.push_back(random_computation(manager.epoch(e).graph(),
                                             workload, workload_rng));
        OnlineTimestamper engine(manager.epoch(e).decomposition);
        engine.attach_metrics(registry);
        oracle_arenas.push_back(std::make_unique<TimestampArena>(
            manager.epoch(e).width(), scripts.back().num_messages()));
        oracle_arenas.back()->attach_metrics(registry, "arena");
        expected.push_back(
            engine.stamp_messages(scripts.back(), *oracle_arenas.back()));
        total_messages += scripts.back().num_messages();
    }

    std::uint64_t mismatches = 0;
    std::uint64_t stalls = 0;
    std::uint64_t undetected_corrupt = 0;
    std::uint64_t virtual_duration = 0;
    ProtocolStats wire;
    for (std::uint64_t run = 1; run <= config.runs; ++run) {
        SynchronizerOptions options;
        options.seed = config.seed * 1'000'003 + run;
        options.latency_lo = config.latency_lo;
        options.latency_hi = config.latency_hi;
        options.faults.seed = run * 0x9E3779B9ull + config.seed;
        options.faults.drop_probability = config.drop;
        options.faults.duplicate_probability = config.dup;
        options.faults.corrupt_probability = config.corrupt;
        options.faults.delay_probability = config.delay;
        options.faults.max_extra_delay = config.jitter;
        options.faults.crashes = config.crashes;
        options.protocol.batching = config.batch;
        options.protocol.coalesce_acks = config.batch;
        options.protocol.delta = config.delta;
        if (config.bandwidth > 0) {
            options.protocol.bandwidth.enabled = true;
            options.protocol.bandwidth.bytes_per_tick = config.bandwidth;
        }
        options.metrics = &registry;
        options.trace = capture ? &sink : nullptr;
        options.recorder = flight ? &recorder : nullptr;
        // Profiling attributes one run's timeline; keep only the last.
        if (config.profile) sink.clear();
        // The registry accumulates across runs; the per-run reject count
        // is the counter's delta over this run.
        const std::uint64_t rejects_before =
            registry.counter("sync_frames_corrupt_rejected").value();
        try {
            const ReconfigurableRunResult result =
                run_reconfigurable_protocol(manager, scripts, options);
            virtual_duration += result.virtual_duration;
            wire.bytes_sent += result.protocol.bytes_sent;
            wire.wire_packets += result.protocol.wire_packets;
            wire.batch_packets += result.protocol.batch_packets;
            wire.batch_frames += result.protocol.batch_frames;
            wire.acks_coalesced += result.protocol.acks_coalesced;
            wire.delta_frames += result.protocol.delta_frames;
            wire.full_frames += result.protocol.full_frames;
            wire.delta_resyncs += result.protocol.delta_resyncs;
            wire.bsched_deferrals += result.protocol.bsched_deferrals;
            for (EpochId e = 0; e < result.segments.size(); ++e) {
                const EpochSegmentResult& segment = result.segments[e];
                for (std::size_t i = 0; i < segment.message_stamps.size();
                     ++i) {
                    const auto oracle = oracle_arenas[e]->span(
                        expected[e][segment.script_message[i]]);
                    if (!(segment.message_stamps[i] ==
                          VectorTimestamp(oracle))) {
                        ++mismatches;
                    }
                }
                if (segment.message_stamps.size() !=
                    scripts[e].num_messages()) {
                    ++mismatches;
                }
            }
            // Every corrupted packet that reaches a live process must be
            // rejected at decode (docs/FAULTS.md): CRC32C catches every
            // bit flip the fault plan injects by construction, and a cut
            // or grown body (its other two damages) slips past the
            // checksum and the frame's length checks only with
            // probability 2^-32. A gap here is a checksum hole.
            // Corrupted packets lost at a crashed process's NIC never
            // reach a decoder.
            const std::uint64_t rejects =
                registry.counter("sync_frames_corrupt_rejected").value() -
                rejects_before;
            const std::uint64_t delivered_corrupt =
                result.network_faults.corrupted -
                result.network_faults.corrupt_down_drops;
            if (delivered_corrupt > rejects) {
                undetected_corrupt += delivered_corrupt - rejects;
            }
        } catch (const SynchronizerStalled& stall) {
            std::fprintf(stderr, "run %llu stalled: %s\n",
                         static_cast<unsigned long long>(run), stall.what());
            ++stalls;
        }
    }
    registry.counter("stats_stamp_mismatches").inc(mismatches);
    registry.counter("stats_stalls").inc(stalls);
    registry.counter("stats_frames_corrupt_undetected")
        .inc(undetected_corrupt);

    // Causal profile of the last run's event stream (docs/PROFILING.md).
    // Everything in it is virtual-time-derived, so it is byte-identical
    // across same-seed invocations; only the build wall time is not, and
    // it is published under the wall_ms key the determinism gate strips.
    obs::Profile profile;
    double profile_wall_ms = 0.0;
    if (config.profile) {
        const auto start = std::chrono::steady_clock::now();
        const std::vector<obs::TraceEvent> events = sink.events();
        profile = obs::build_profile(events, manager.max_num_processes());
        profile_wall_ms =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()) /
            1000.0;
    }

    if (!config.emit_sytr_path.empty()) {
        // Epoch-0 workload as a SYTR v2 stream (the ingest input format;
        // '-' targets stdout for piping straight into --ingest).
        if (config.emit_sytr_path == "-") {
            write_binary_computation(std::cout, scripts[0]);
        } else {
            std::ofstream out(config.emit_sytr_path, std::ios::binary);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             config.emit_sytr_path.c_str());
                return 2;
            }
            write_binary_computation(out, scripts[0]);
        }
    }

    StreamingReport streaming;
    if (config.stream) {
        if (num_epochs != 1) {
            std::fprintf(stderr,
                         "--stream supports single-epoch runs only\n");
            return 2;
        }
        streaming = run_streaming(config, scripts[0],
                                  manager.epoch(0).decomposition,
                                  *oracle_arenas[0], registry);
        registry.counter("stats_stream_mismatches")
            .inc(streaming.total_mismatches());
    }

    AnalysisReport analysis;
    if (config.analysis && num_epochs == 1) {
        analysis =
            run_analysis(config, scripts[0], *oracle_arenas[0], registry);
    } else if (config.analysis) {
        // Stitch the per-epoch oracle stamps into one trace and verify
        // the barrier rule end to end.
        std::vector<TimestampedTrace> segments;
        for (EpochId e = 0; e < num_epochs; ++e) {
            std::vector<VectorTimestamp> stamps;
            stamps.reserve(scripts[e].num_messages());
            for (const TsHandle handle : expected[e]) {
                stamps.emplace_back(oracle_arenas[e]->span(handle));
            }
            segments.emplace_back(scripts[e], std::move(stamps));
        }
        const MultiEpochTrace trace(std::move(segments));
        analysis = run_multi_analysis(config, trace, registry);
    }
    if (config.analysis) {
        registry.counter("stats_analysis_mismatches")
            .inc(analysis.verify_mismatches);
        registry.counter("stats_query_mismatches")
            .inc(analysis.query_mismatches);
    }

    if (!config.trace_json_path.empty()) {
        std::string chrome;
        if (config.profile) {
            // Same document plus the highlighted critical-path track.
            obs::write_critical_path_trace(sink.events(), profile, chrome);
        } else {
            sink.write_chrome_trace(chrome);
        }
        if (!write_file(config.trace_json_path, chrome.data(),
                        chrome.size())) {
            std::fprintf(stderr, "cannot write %s\n",
                         config.trace_json_path.c_str());
            return 2;
        }
    }
    if (!config.trace_binary_path.empty()) {
        std::vector<std::uint8_t> frame;
        sink.write_binary(frame);
        if (!write_file(config.trace_binary_path,
                        reinterpret_cast<const char*>(frame.data()),
                        frame.size())) {
            std::fprintf(stderr, "cannot write %s\n",
                         config.trace_binary_path.c_str());
            return 2;
        }
    }

    const bool clean = mismatches == 0 && stalls == 0 &&
                       undetected_corrupt == 0 &&
                       analysis.verify_mismatches == 0 &&
                       analysis.query_mismatches == 0 &&
                       streaming.total_mismatches() == 0;
    if (config.json) {
        std::string out;
        out += "{\"tool\":\"syncts_stats\",\"topology\":\"";
        out += config.spec;
        out += "\",\"processes\":" +
               std::to_string(topology.num_vertices());
        out += ",\"width\":" + std::to_string(manager.epoch(0).width());
        out += ",\"epochs\":" + std::to_string(num_epochs);
        out += ",\"messages\":" + std::to_string(total_messages);
        out += ",\"runs\":" + std::to_string(config.runs);
        out += ",\"seed\":" + std::to_string(config.seed);
        out += ",\"stamp_mismatches\":" + std::to_string(mismatches);
        out += ",\"stalls\":" + std::to_string(stalls);
        out += ",\"frames_corrupt_undetected\":" +
               std::to_string(undetected_corrupt);
        out += ",\"virtual_duration\":" + std::to_string(virtual_duration);
        {
            // Wire-level accounting (docs/PROTOCOL.md): always present,
            // zeros when the batched path is off, so report consumers
            // can diff option stacks without key churn. The derived
            // rates make the headline savings one jq away.
            const std::uint64_t delivered =
                config.runs * total_messages;  // one ACK per message
            char rate[32];
            std::snprintf(rate, sizeof(rate), "%.4f",
                          delivered == 0
                              ? 0.0
                              : static_cast<double>(wire.acks_coalesced) /
                                    static_cast<double>(delivered));
            char per_msg[32];
            std::snprintf(per_msg, sizeof(per_msg), "%.1f",
                          delivered == 0
                              ? 0.0
                              : static_cast<double>(wire.bytes_sent) /
                                    static_cast<double>(delivered));
            out += ",\"protocol\":{\"bytes\":" +
                   std::to_string(wire.bytes_sent);
            out += ",\"bytes_per_msg\":";
            out += per_msg;
            out += ",\"sent_packets\":" + std::to_string(wire.wire_packets);
            out += ",\"batch_packets\":" +
                   std::to_string(wire.batch_packets);
            out += ",\"batch_frames\":" + std::to_string(wire.batch_frames);
            out += ",\"acks_coalesced\":" +
                   std::to_string(wire.acks_coalesced);
            out += ",\"coalesce_rate\":";
            out += rate;
            out += ",\"delta_frames\":" + std::to_string(wire.delta_frames);
            out += ",\"full_frames\":" + std::to_string(wire.full_frames);
            out += ",\"delta_resyncs\":" +
                   std::to_string(wire.delta_resyncs);
            out += ",\"bsched_deferrals\":" +
                   std::to_string(wire.bsched_deferrals) + "}";
        }
        out += ",\"trace\":{\"recorded\":" + std::to_string(sink.recorded());
        out += ",\"retained\":" + std::to_string(sink.size());
        out += ",\"dropped\":" + std::to_string(sink.dropped()) + "}";
        if (config.analysis) {
            char wall[32];
            std::snprintf(wall, sizeof(wall), "%.3f", analysis.wall_ms);
            out += ",\"analysis\":{\"threads\":" +
                   std::to_string(analysis.threads);
            out += ",\"queries\":" + std::to_string(analysis.queries);
            out += ",\"poset_relations\":" +
                   std::to_string(analysis.poset_relations);
            out += ",\"verify_mismatches\":" +
                   std::to_string(analysis.verify_mismatches);
            out += ",\"query_mismatches\":" +
                   std::to_string(analysis.query_mismatches);
            out += ",\"memo_hits\":" + std::to_string(analysis.memo_hits);
            out += ",\"memo_misses\":" + std::to_string(analysis.memo_misses);
            out += ",\"wall_ms\":";
            out += wall;
            out += "}";
        }
        if (config.stream) append_streaming_json(out, streaming);
        if (config.profile) {
            char wall[32];
            std::snprintf(wall, sizeof(wall), "%.3f", profile_wall_ms);
            std::string profile_json = obs::to_profile_json(profile);
            // Splice the one wall-clock field in as the (sorted) last
            // key; the determinism gate zeroes it like analysis.wall_ms.
            profile_json.pop_back();
            profile_json += ",\"wall_ms\":";
            profile_json += wall;
            profile_json += "}";
            out += ",\"profile\":" + profile_json;
        }
        if (flight) {
            out += ",\"flight\":{\"dumps\":" +
                   std::to_string(recorder.dumps());
            out += ",\"retained\":" + std::to_string(recorder.retained());
            out += ",\"truncated\":" + std::to_string(recorder.truncated());
            out += "}";
        }
        out += ",\"metrics\":";
        registry.write_json(out);
        out += ",\"ok\":";
        out += clean ? "true" : "false";
        out += "}\n";
        std::fwrite(out.data(), 1, out.size(), stdout);
    } else if (!config.quiet) {
        std::printf("syncts_stats: %s  n=%zu  d=%zu  epochs=%zu  "
                    "messages=%zu  runs=%llu  seed=%llu\n",
                    config.spec.c_str(), topology.num_vertices(),
                    manager.epoch(0).width(), num_epochs, total_messages,
                    static_cast<unsigned long long>(config.runs),
                    static_cast<unsigned long long>(config.seed));
        std::printf("verify:  mismatches=%llu stalls=%llu "
                    "frames_corrupt_undetected=%llu\n",
                    static_cast<unsigned long long>(mismatches),
                    static_cast<unsigned long long>(stalls),
                    static_cast<unsigned long long>(undetected_corrupt));
        if (config.batch || config.delta || config.bandwidth > 0) {
            const std::uint64_t delivered = config.runs * total_messages;
            std::printf(
                "wire:    bytes=%llu (%.1f/msg) sent_packets=%llu "
                "batch_packets=%llu coalesced=%llu delta=%llu/%llu "
                "resyncs=%llu deferrals=%llu\n",
                static_cast<unsigned long long>(wire.bytes_sent),
                delivered == 0 ? 0.0
                               : static_cast<double>(wire.bytes_sent) /
                                     static_cast<double>(delivered),
                static_cast<unsigned long long>(wire.wire_packets),
                static_cast<unsigned long long>(wire.batch_packets),
                static_cast<unsigned long long>(wire.acks_coalesced),
                static_cast<unsigned long long>(wire.delta_frames),
                static_cast<unsigned long long>(wire.delta_frames +
                                                wire.full_frames),
                static_cast<unsigned long long>(wire.delta_resyncs),
                static_cast<unsigned long long>(wire.bsched_deferrals));
        }
        if (tracing) {
            std::printf("trace:   recorded=%llu retained=%zu dropped=%llu\n",
                        static_cast<unsigned long long>(sink.recorded()),
                        sink.size(),
                        static_cast<unsigned long long>(sink.dropped()));
        }
        if (config.profile) {
            std::printf(
                "profile: rendezvous=%zu critical_length=%llu "
                "critical_span=%llu critical_slack=%llu span=%llu "
                "(%.3fms)\n",
                profile.rendezvous.size(),
                static_cast<unsigned long long>(profile.critical_length),
                static_cast<unsigned long long>(profile.critical_span),
                static_cast<unsigned long long>(profile.critical_slack),
                static_cast<unsigned long long>(profile.span),
                profile_wall_ms);
            for (std::size_t p = 0; p < profile.processes.size(); ++p) {
                const obs::ProcessBreakdown& b = profile.processes[p];
                if (b.total == 0) continue;
                std::printf(
                    "  P%zu: total=%llu working=%llu blocked=%llu "
                    "down=%llu barrier=%llu\n",
                    p, static_cast<unsigned long long>(b.total),
                    static_cast<unsigned long long>(b.working),
                    static_cast<unsigned long long>(b.blocked),
                    static_cast<unsigned long long>(b.down),
                    static_cast<unsigned long long>(b.barrier_stall));
            }
        }
        if (flight && recorder.dumps() > 0) {
            std::printf("flight:  dumps=%llu retained=%zu truncated=%llu\n",
                        static_cast<unsigned long long>(recorder.dumps()),
                        recorder.retained(),
                        static_cast<unsigned long long>(
                            recorder.truncated()));
        }
        if (config.analysis) {
            const std::uint64_t lookups =
                analysis.memo_hits + analysis.memo_misses;
            std::printf(
                "analysis: threads=%zu relations=%zu verify_mismatches=%llu "
                "wall_ms=%.3f\n",
                analysis.threads, analysis.poset_relations,
                static_cast<unsigned long long>(analysis.verify_mismatches),
                analysis.wall_ms);
            if (analysis.queries > 0) {
                std::printf(
                    "queries: %zu lookups  mismatches=%llu  memo hit-rate "
                    "%.1f%% (%llu/%llu)\n",
                    analysis.queries,
                    static_cast<unsigned long long>(
                        analysis.query_mismatches),
                    lookups == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(analysis.memo_hits) /
                              static_cast<double>(lookups),
                    static_cast<unsigned long long>(analysis.memo_hits),
                    static_cast<unsigned long long>(lookups));
            }
        }
        if (config.stream) print_streaming_text(streaming);
        std::printf("metrics: %s\n", registry.to_json().c_str());
        std::printf("%s\n", clean ? "PASS" : "FAIL");
    }
    return clean ? 0 : 1;
}
