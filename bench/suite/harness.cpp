#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace syncts::bench {

namespace {

std::uint64_t g_allocations = 0;
std::uint64_t g_live_bytes = 0;
std::uint64_t g_peak_bytes = 0;
volatile std::uint64_t g_kept = 0;

void* counted_alloc(std::size_t size) {
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr) throw std::bad_alloc();
    ++g_allocations;
    g_live_bytes += malloc_usable_size(p);
    g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
    return p;
}

void counted_free(void* p) noexcept {
    if (p == nullptr) return;
    g_live_bytes -= malloc_usable_size(p);
    std::free(p);
}

}  // namespace

std::uint64_t allocations() noexcept { return g_allocations; }

void reset_heap_peak() noexcept { g_peak_bytes = g_live_bytes; }

std::uint64_t heap_peak_bytes() noexcept { return g_peak_bytes; }

}  // namespace syncts::bench

// Counting replacements of the global allocation functions: every
// operator new/delete of the process (library included) goes through
// them. Sizes are the allocator's usable sizes on both sides, so the live
// count is exact. GCC pairs the malloc-backed operator new with the
// free() in operator delete and warns about a mismatch; replacing the
// global operators this way is well-defined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) { return syncts::bench::counted_alloc(size); }
void* operator new[](std::size_t size) { return syncts::bench::counted_alloc(size); }
void operator delete(void* p) noexcept { syncts::bench::counted_free(p); }
void operator delete[](void* p) noexcept { syncts::bench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { syncts::bench::counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { syncts::bench::counted_free(p); }
// The nothrow forms too (std::stable_sort's buffer uses them), so no
// allocation made by one family is ever released by the other.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return syncts::bench::counted_alloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { syncts::bench::counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { syncts::bench::counted_free(p); }

namespace syncts::bench {

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double ns_per(std::uint64_t start, std::size_t calls) noexcept {
    return static_cast<double>(now_ns() - start) /
           static_cast<double>(std::max<std::size_t>(calls, 1));
}

void keep(std::uint64_t value) noexcept { g_kept = g_kept + value; }

namespace {

// ---------------------------------------------------------------------------
// Reference kernel. FROZEN: its inputs are fixed constants, independent of
// --seed and of every syncts source file, so its cost moves only with the
// host. Changing it (or kRefNominalNs) re-bases every normalized figure.

std::uint64_t mix(std::uint64_t& state) noexcept {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t reference_kernel() {
    constexpr std::size_t kKeys = 1 << 15;
    std::uint64_t state = 0x5EFE7E11CEull;
    std::uint64_t check = 0;

    // Allocation churn: many short vectors, as per-packet bodies are.
    std::vector<std::vector<std::uint64_t>> bodies(2048);
    for (std::size_t i = 0; i < kKeys; ++i) {
        std::vector<std::uint64_t>& body = bodies[mix(state) % bodies.size()];
        body.push_back(i);
        if (body.size() > 24) {
            check += body.front();
            std::vector<std::uint64_t>().swap(body);
        }
    }

    // Sort.
    std::vector<std::uint64_t> keys(kKeys);
    for (std::uint64_t& k : keys) k = mix(state);
    std::sort(keys.begin(), keys.end());
    check += keys[kKeys / 2];

    // Hash map: insert then probe.
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::size_t i = 0; i < kKeys; ++i) map[keys[i] >> 20] += i;
    for (std::size_t i = 0; i < kKeys; i += 3) {
        const auto it = map.find(keys[(i * 7919) % kKeys] >> 20);
        if (it != map.end()) check += it->second;
    }

    // Binary heap: the event-queue pattern.
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (std::size_t i = 0; i < 256; ++i) heap.push(mix(state) & 0xFFFF);
    for (std::size_t i = 0; i < 4 * kKeys; ++i) {
        const std::uint64_t t = heap.top();
        heap.pop();
        check += t;
        heap.push(t + 1 + (mix(state) & 7));
    }
    return check;
}

}  // namespace

std::uint64_t stamp_hash(std::span<const std::uint64_t> components) noexcept {
    std::uint64_t state = components.size();
    std::uint64_t h = mix(state);
    for (const std::uint64_t c : components) {
        state ^= c;
        h = (h ^ mix(state)) * 0x100000001B3ull;
    }
    return h;
}

double time_reference_kernel() {
    const std::uint64_t start = now_ns();
    keep(reference_kernel());
    return static_cast<double>(now_ns() - start);
}

// ---------------------------------------------------------------------------
// Statistics.

namespace {

/// Python's statistics.quantiles(values, n=4) (the default "exclusive"
/// method) for sorted input with n >= 2.
double exclusive_quartile(const std::vector<double>& sorted, int k) {
    const double m = static_cast<double>(sorted.size()) + 1.0;
    const double position = m * k / 4.0;
    const auto j = static_cast<std::size_t>(std::floor(position));
    const double delta = position - static_cast<double>(j);
    if (j < 1) return sorted.front();
    if (j >= sorted.size()) return sorted.back();
    return sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
}

double sorted_median(const std::vector<double>& sorted) {
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

}  // namespace

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return sorted_median(values);
}

double percentile(std::vector<std::uint64_t> values, double pct) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return static_cast<double>(values[std::min(index, values.size() - 1)]);
}

Summary summarize(std::vector<double> values) {
    Summary s;
    s.n = values.size();
    if (values.empty()) return s;
    std::sort(values.begin(), values.end());
    s.median = sorted_median(values);
    s.min = values.front();
    s.max = values.back();
    s.q1 = values.size() >= 2 ? exclusive_quartile(values, 1) : s.median;
    s.q3 = values.size() >= 2 ? exclusive_quartile(values, 3) : s.median;
    // Ranks n/2 -+ 0.674 * sqrt(n) / 2 (1-based, interpolated) bound the
    // middle half of the median's sampling distribution.
    const double n = static_cast<double>(s.n);
    const auto at_rank = [&](double rank) {
        rank = std::clamp(rank, 1.0, n);
        const auto lo = static_cast<std::size_t>(std::floor(rank));
        const double frac = rank - static_cast<double>(lo);
        const std::size_t hi = std::min(lo + 1, s.n);
        return values[lo - 1] + (values[hi - 1] - values[lo - 1]) * frac;
    };
    const double half_width = 0.674 * std::sqrt(n) / 2.0;
    s.median_lo = std::min(s.median, at_rank((n + 1.0) / 2.0 - half_width));
    s.median_hi = std::max(s.median, at_rank((n + 1.0) / 2.0 + half_width));
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        const double beyond = static_cast<double>(s.n) * (1.0 - pct / 100.0);
        if (beyond >= 10.0) {
            const auto index = static_cast<std::size_t>(
                std::ceil(pct / 100.0 * static_cast<double>(s.n))) - 1;
            s.tail_pct = pct;
            s.tail = values[std::min(index, s.n - 1)];
            break;
        }
    }
    return s;
}

double vm_hwm_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double mb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            mb = std::strtod(line + 6, nullptr) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

// ---------------------------------------------------------------------------
// JSON.

void Json::key(std::string_view k) {
    if (body_.size() > 1) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
}

Json& Json::num(std::string_view k, double value) {
    key(k);
    if (!std::isfinite(value)) {
        body_ += "null";
        return *this;
    }
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    body_ += text;
    return *this;
}

Json& Json::count(std::string_view k, std::uint64_t value) {
    key(k);
    body_ += std::to_string(value);
    return *this;
}

Json& Json::str(std::string_view k, std::string_view value) {
    key(k);
    body_ += '"';
    for (const char c : value) {
        if (c == '"' || c == '\\') {
            body_ += '\\';
            body_ += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            body_ += ' ';
        } else {
            body_ += c;
        }
    }
    body_ += '"';
    return *this;
}

Json& Json::flag(std::string_view k, bool value) {
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

Json& Json::raw(std::string_view k, std::string_view json) {
    key(k);
    body_ += json;
    return *this;
}

Json& Json::summary(std::string_view k, const Summary& s) {
    Json j;
    j.count("n", s.n)
        .num("median", s.median)
        .num("q1", s.q1)
        .num("q3", s.q3)
        .num("median_lo", s.median_lo)
        .num("median_hi", s.median_hi)
        .num("min", s.min)
        .num("max", s.max)
        .num("tail_pct", s.tail_pct)
        .num("tail", s.tail);
    return raw(k, j.text());
}

// ---------------------------------------------------------------------------
// Per-layer catalog (README.md maps each entry to the end-to-end metric it
// should move).

namespace {

struct LayerMetricSpec {
    const char* name;
    const char* unit;
};

constexpr LayerMetricSpec kLayerCatalog[] = {
    {"clocks.stamp_ns", "ns"},
    {"clocks.width", "count"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.batch_ns", "ns"},
    {"wire.frames_per_rdv", "count"},
    {"wire.packets_per_rdv", "count"},
    {"wire.batch_factor", "ratio"},
    {"wire.delta_share", "ratio"},
    {"wire.payload_bytes_per_frame", "B"},
    {"wire.bytes_per_rdv", "B"},
    {"runtime.sim_ns_per_packet", "ns"},
    {"runtime.allocs_per_rdv", "count"},
    {"runtime.makespan_ticks", "ticks"},
    {"runtime.rdv_latency_ticks_p50", "ticks"},
    {"runtime.rdv_latency_ticks_p99", "ticks"},
    {"runtime.wire_ticks_p50", "ticks"},
    {"runtime.wire_ticks_p99", "ticks"},
    {"runtime.hold_ticks_p50", "ticks"},
    {"runtime.hold_ticks_p99", "ticks"},
    {"runtime.retransmits_per_rdv", "count"},
    {"runtime.acks_coalesced_per_rdv", "count"},
    {"runtime.bsched_deferrals_per_rdv", "count"},
    {"runtime.bsched_admit_ns", "ns"},
    {"recover.wal_append_ns", "ns"},
    {"recover.wal_appends_per_rdv", "count"},
    {"recover.snapshot_ns", "ns"},
    {"recover.snapshots_per_rdv", "count"},
    {"recover.replayed_records_per_crash", "count"},
    {"recover.restarts", "count"},
    {"recover.downtime_ticks_p50", "ticks"},
    {"topo.apply_ms", "ms"},
    {"topo.epochs", "count"},
    {"decomp.ms", "ms"},
    {"common.region_peak_bytes", "B"},
    {"common.slab_reuse_share", "ratio"},
    {"common.window_resident_rows", "count"},
    {"core.ingest_ns", "ns"},
    {"core.query_ns", "ns"},
    {"core.fastpath_share", "ratio"},
    {"core.fastpath_query_ns", "ns"},
    {"poset.closure_ingest_ns", "ns"},
    {"poset.fallback_query_ns", "ns"},
    {"poset.chunk_loads_per_query", "count"},
    {"obs.total_ns", "ns"},
    {"obs.residual_ns", "ns"},
    {"obs.tax_pct", "%"},
};

}  // namespace

std::vector<Metric> layer_metrics(const LayerValues& values) {
    for (const auto& [name, value] : values) {
        const bool known = std::any_of(
            std::begin(kLayerCatalog), std::end(kLayerCatalog),
            [&](const LayerMetricSpec& s) { return name == s.name; });
        if (!known) throw std::logic_error("metric outside the catalog: " + name);
    }
    std::vector<Metric> out;
    for (const LayerMetricSpec& spec : kLayerCatalog) {
        const auto it = values.find(spec.name);
        out.push_back(Metric{spec.name, it == values.end() ? 0.0 : it->second,
                             spec.unit});
    }
    return out;
}

// ---------------------------------------------------------------------------
// Provenance and output.

namespace {

std::string cpu_model() {
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr) return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "model name", 10) == 0) {
            const char* colon = std::strchr(line, ':');
            if (colon != nullptr) {
                model = colon + 1;
                while (!model.empty() &&
                       (model.front() == ' ' || model.front() == '\t')) {
                    model.erase(model.begin());
                }
                while (!model.empty() &&
                       (model.back() == '\n' || model.back() == ' ')) {
                    model.pop_back();
                }
            }
            break;
        }
    }
    std::fclose(f);
    return model;
}

std::string provenance(double ref_median_ns) {
    Json p;
    p.str("git_sha", SYNCTS_BENCH_GIT_SHA);
#if defined(__clang__)
    p.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    p.str("compiler", std::string("gcc ") + __VERSION__);
#else
    p.str("compiler", "unknown");
#endif
    p.str("build_type", SYNCTS_BENCH_BUILD_TYPE);
    p.str("flags", SYNCTS_BENCH_FLAGS);
#if defined(__x86_64__) || defined(__i386__)
    p.flag("avx2", __builtin_cpu_supports("avx2") != 0);
#else
    p.flag("avx2", false);
#endif
    p.count("nproc", std::thread::hardware_concurrency());
    p.str("cpu_model", cpu_model());
    p.num("ref_kernel_median_ns", ref_median_ns);
    p.num("ref_nominal_ns", kRefNominalNs);
    return p.text();
}

}  // namespace

int finish_timed_pass(const RunConfig& config, const TimedRounds& rounds,
                      Outcome& outcome) {
    std::vector<double> cost(rounds.raw_ns.size());
    for (std::size_t i = 0; i < cost.size(); ++i) {
        cost[i] = rounds.raw_ns[i] * kRefNominalNs / rounds.ref_ns[i];
    }
    const Summary cost_s = summarize(cost);
    const Summary heap_s = summarize(rounds.heap_mb);
    const Summary setup_s = summarize(rounds.setup_s);
    const Summary ref_s = summarize(rounds.ref_ns);
    outcome.ref_median_ns = ref_s.median;
    outcome.checks_ok = outcome.checks_ok && !cost.empty();
    outcome.metrics = {
        {"cost_ns", cost_s.median, "ns"},
        {"peak_heap_mb", heap_s.median, "MB"},
        {"setup_s", setup_s.median, "s"},
    };
    outcome.detail.count("rounds", cost.size())
        .summary("cost_ns", cost_s)
        .summary("peak_heap_mb", heap_s)
        .summary("setup_s", setup_s)
        .summary("raw_ns", summarize(rounds.raw_ns))
        .summary("ref_kernel_ns", ref_s)
        .num("vm_hwm_mb", vm_hwm_mb());
    return emit(config, outcome);
}

int emit(const RunConfig& config, const Outcome& outcome) {
    const bool correct = outcome.failed == 0 && outcome.checks_ok;
    Json metrics;
    for (const Metric& m : outcome.metrics) {
        Json entry;
        entry.num("value", m.value).str("unit", m.unit);
        metrics.raw(m.name, entry.text());
    }
    Json result;
    result.flag("correct", correct)
        .count("attempted", outcome.attempted)
        .count("failed", outcome.failed)
        .raw("metrics", metrics.text());

    Json detail;
    detail.str("workload", config.workload)
        .count("seed", config.seed)
        .str("pass", config.trace ? "traced" : "timed")
        .flag("smoke", config.smoke)
        .num("failed_share",
             outcome.attempted == 0
                 ? 1.0
                 : static_cast<double>(outcome.failed) /
                       static_cast<double>(outcome.attempted))
        .raw("provenance", provenance(outcome.ref_median_ns))
        .raw("detail", outcome.detail.text())
        .raw("result", result.text());
    const std::string detail_line = "{\"syncts_bench\":" + detail.text() + "}\n";
    const std::string result_line = result.text() + "\n";
    std::fwrite(detail_line.data(), 1, detail_line.size(), stdout);
    std::fwrite(result_line.data(), 1, result_line.size(), stdout);
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace syncts::bench
