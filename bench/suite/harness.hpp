#pragma once

// Shared machinery of syncts_bench: the frozen reference kernel that
// normalizes wall time, order statistics, the allocation counter, the
// provenance block, and the two output lines every run prints.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace syncts::bench {

/// What one invocation measures (README.md describes both passes).
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;  ///< traced pass (per-layer) instead of timed (e2e)
    bool smoke = false;  ///< two rounds, every check on
};

/// Input sets (scripts, or topologies with their scripts) a run draws from
/// its seed; round r uses set r mod kVariants, so a run's median averages
/// over several draws instead of hanging on one (on rdv_hostile each draw
/// is a different reconfiguration schedule).
inline constexpr std::size_t kVariants = 8;

/// Rounds the traced pass re-runs (seeds S+1 .. S+kTracedSeeds).
inline constexpr std::size_t kTracedSeeds = 20;

/// setup_s is the median of set-ups timed across the whole timed pass:
/// one before every kSetupEvery-th round (at least kSetupReps in all), so
/// it samples the host over the same 30 s the rounds do rather than at
/// one instant.
inline constexpr std::uint64_t kSetupEvery = 8;
inline constexpr std::size_t kSetupReps = 5;

/// 64-bit hash of a timestamp's components: the oracle is kept as one
/// hash per message instead of a width-d vector.
std::uint64_t stamp_hash(std::span<const std::uint64_t> components) noexcept;

/// Heap allocations made by this process so far (the benchmark replaces
/// the global operator new to count them).
std::uint64_t allocations() noexcept;

/// Live operator-new bytes high-water mark since the last reset_heap_peak()
/// (which sets it to the bytes live at that moment).
void reset_heap_peak() noexcept;
std::uint64_t heap_peak_bytes() noexcept;

/// Monotonic wall clock in nanoseconds.
std::uint64_t now_ns() noexcept;

/// Wall ns since `start` per call (calls floored at 1).
double ns_per(std::uint64_t start, std::size_t calls) noexcept;

/// Consumes a result so the timed work cannot be optimized away.
void keep(std::uint64_t value) noexcept;

/// Nominal duration of one reference-kernel run, in ns: the median on the
/// host the baseline was recorded on. Frozen together with the kernel —
/// changing either re-bases every normalized figure.
inline constexpr double kRefNominalNs = 10.9e6;

/// Times one run of the reference kernel (a fixed mix of allocation,
/// sort, hash-map and binary-heap work, the same kinds of work the
/// simulated runtime does) and returns its wall ns.
double time_reference_kernel();

/// Order statistics of one timing or count series.
struct Summary {
    std::size_t n = 0;
    double median = 0.0;
    double q1 = 0.0;  ///< first quartile (Python statistics.quantiles)
    double q3 = 0.0;  ///< third quartile
    /// Quartiles of the median's own sampling distribution (the
    /// distribution-free order-statistic interval at +-0.674 sigma): how
    /// far the reported median could move on a rerun. compare.py tests
    /// these for overlap.
    double median_lo = 0.0;
    double median_hi = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Highest of p99.9/p99/p95/p90/p75 with at least ten samples above
    /// it; 0 when the series is too short to support any of them.
    double tail_pct = 0.0;
    double tail = 0.0;
};

Summary summarize(std::vector<double> values);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank percentile `pct` of integer samples (0 when empty).
double percentile(std::vector<std::uint64_t> values, double pct);

/// Peak resident set (VmHWM) of this process in MB; 0 where unavailable.
double vm_hwm_mb();

/// Minimal JSON object builder: keys in insertion order, numbers printed
/// with every significant digit.
class Json {
public:
    Json& num(std::string_view key, double value);
    Json& count(std::string_view key, std::uint64_t value);
    Json& str(std::string_view key, std::string_view value);
    Json& flag(std::string_view key, bool value);
    Json& raw(std::string_view key, std::string_view json);
    Json& summary(std::string_view key, const Summary& s);
    std::string text() const { return body_ + "}"; }

private:
    void key(std::string_view k);
    std::string body_ = "{";
};

/// One reported metric.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Values of the per-layer catalog, by metric name.
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric of the catalog, in print order with its unit.
/// Each workload prints all of them; a layer the workload does not
/// exercise reads 0. Throws std::logic_error on a name outside the
/// catalog, so the catalog and the producers cannot drift apart.
std::vector<Metric> layer_metrics(const LayerValues& values);

/// The outcome of one workload pass, before printing.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checks_ok = true;  ///< fidelity and self-consistency checks
    std::vector<Metric> metrics;
    Json detail;  ///< rounds, spreads, breakdowns, checks
    double ref_median_ns = 0.0;
};

/// Prints the detail line (provenance + `outcome.detail` + result) and,
/// last, the result line {correct, attempted, failed, metrics}. Returns 0
/// when every operation succeeded and every check held, 1 otherwise.
int emit(const RunConfig& config, const Outcome& outcome);

/// Samples of a timed pass: each round's wall ns per operation, the
/// reference-kernel run taken just before it, and the round's peak live
/// heap in MB; each set-up's seconds, normalized like a round.
struct TimedRounds {
    std::vector<double> raw_ns;
    std::vector<double> ref_ns;
    std::vector<double> heap_mb;
    std::vector<double> setup_s;
};

/// Reports a timed pass: cost_ns (median of the per-round normalized ns
/// per operation), peak_heap_mb (median of the per-round peaks) and
/// setup_s (median of the set-ups), with their spreads in the detail line.
int finish_timed_pass(const RunConfig& config, const TimedRounds& rounds,
                      Outcome& outcome);

/// The timed pass every workload shares. `setup()` repeats the workload's
/// set-up; `round(r)` runs round r (seed S + r) with observability off,
/// adds its operations to `outcome`, and returns its wall ns per
/// operation, or a negative value when the round produced no timing.
/// Round 0 is an untimed warm-up; timed rounds run until `config.seconds`
/// have elapsed (at least three; exactly two in smoke mode), each preceded
/// by a reference-kernel run.
template <typename Setup, typename Round>
int run_timed_pass(const RunConfig& config, Outcome& outcome, Setup&& setup,
                   Round&& round) {
    TimedRounds rounds;
    const auto time_setup = [&] {
        const double ref = time_reference_kernel();
        const std::uint64_t start = now_ns();
        setup();
        const double ns = static_cast<double>(now_ns() - start);
        rounds.setup_s.push_back(ns * kRefNominalNs / ref / 1e9);
    };
    (void)round(0);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(config.seconds * 1e9);
    for (std::uint64_t r = 1;; ++r) {
        const bool done = config.smoke ? r > 2 : r > 3 && now_ns() >= deadline;
        if (done) break;
        if (r % kSetupEvery == 1) time_setup();
        const double ref_ns = time_reference_kernel();
        reset_heap_peak();
        const double ns = round(r);
        if (ns < 0) continue;
        rounds.raw_ns.push_back(ns);
        rounds.ref_ns.push_back(ref_ns);
        rounds.heap_mb.push_back(static_cast<double>(heap_peak_bytes()) / (1 << 20));
    }
    while (rounds.setup_s.size() < kSetupReps) time_setup();
    return finish_timed_pass(config, rounds, outcome);
}

/// Runs `fn` until `budget_s` has elapsed (at least `min_reps` times) and
/// returns the median of the per-rep values it returns.
template <typename Fn>
double median_over(double budget_s, int min_reps, Fn&& fn) {
    std::vector<double> samples;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    while (static_cast<int>(samples.size()) < min_reps || now_ns() < deadline) {
        samples.push_back(fn());
    }
    return median(std::move(samples));
}

int run_rdv_workload(const RunConfig& config);
int run_analysis_workload(const RunConfig& config);

}  // namespace syncts::bench
