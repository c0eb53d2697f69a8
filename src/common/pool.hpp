#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

/// \file pool.hpp
/// syncts::Pool — the analysis-side work-stealing thread pool, plus the
/// AnalysisOptions knob every post-hoc pipeline (Poset::close, offline
/// realizer validation, ground-truth verification, the batch precedence
/// kernels) threads through.
///
/// Model: a fixed set of worker threads parked on a condition variable;
/// parallel_for splits an index range [0, n) into contiguous chunks,
/// stripes the chunks across all participants (workers + the calling
/// thread, which always joins the work), and lets idle participants steal
/// chunks from other stripes once their own runs dry. Chunks are claimed
/// with one relaxed fetch_add each, so the scheduling cost per chunk is a
/// few atomic ops — size chunks accordingly (the auto grain targets ~8
/// chunks per participant).
///
/// Determinism contract (docs/PARALLELISM.md): the pool schedules *which
/// thread* runs a chunk nondeterministically, but the chunk layout for a
/// given (n, grain, threads) is fixed, every chunk computes over a
/// disjoint index range, and map_chunks hands back per-chunk results in
/// chunk (= index) order. Reductions written against map_chunks/
/// parallel_for_chunks are therefore bit-identical run-to-run and
/// thread-count-to-thread-count as long as the per-chunk function is a
/// pure function of its index range — which every analysis kernel in this
/// library is. Tested against the serial paths over 500 seeded workloads
/// in tests/parallel_test.cpp.

namespace syncts {

class Pool;

/// Opt-in knob for the analysis pipelines. Defaults reproduce the serial
/// behaviour exactly (threads == 1, no pool, no metrics).
struct AnalysisOptions {
    /// Worker count for the analysis pipelines; 0 means "one per hardware
    /// thread". 1 runs inline on the caller with no pool machinery.
    std::size_t threads = 1;

    /// Reuse an existing pool instead of spawning one per call (the
    /// 500-seed equivalence tests and syncts_stats do this). When set, the
    /// pool's own thread count wins over `threads`.
    Pool* pool = nullptr;

    /// When set, analysis kernels register and bump their counters here
    /// (analysis_tasks, closure_word_ops, ...). All analysis counters are
    /// deterministic at a fixed thread count.
    obs::MetricsRegistry* metrics = nullptr;

    /// True when the caller asked for any parallel machinery.
    bool parallel() const noexcept { return pool != nullptr || threads != 1; }
};

/// Fixed-size work-stealing pool. Spawns threads-1 workers (the caller is
/// always the extra participant); thread-safe for one parallel_for at a
/// time (concurrent submissions from different threads serialize on an
/// internal mutex).
class Pool {
public:
    /// `threads` participants total; 0 means one per hardware thread.
    explicit Pool(std::size_t threads = 0);
    ~Pool();

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    /// Total participants (workers + the calling thread).
    std::size_t threads() const noexcept { return workers_.size() + 1; }

    /// 0 -> hardware_concurrency (at least 1), otherwise `requested`.
    static std::size_t resolve_threads(std::size_t requested) noexcept;

    /// Runs body(begin, end) over chunks of [0, n); blocks until every
    /// chunk completed. `grain` is the chunk size in indices; 0 picks
    /// max(1, n / (threads * 8)). Exceptions from the body are rethrown
    /// on the caller (first one wins; remaining chunks still run).
    void parallel_for(std::size_t n, std::size_t grain,
                      const std::function<void(std::size_t, std::size_t)>& body);

    /// As parallel_for but the body also receives the chunk index —
    /// the building block for deterministic sharded reductions.
    void parallel_for_chunks(
        std::size_t n, std::size_t grain,
        const std::function<void(std::size_t, std::size_t, std::size_t)>&
            body);

    /// Deterministic map over chunks: returns map(begin, end) per chunk,
    /// in chunk order, so reducing the result left-to-right is independent
    /// of the runtime schedule.
    template <typename T, typename Map>
    std::vector<T> map_chunks(std::size_t n, std::size_t grain, Map&& map) {
        std::vector<T> out(num_chunks(n, effective_grain(n, grain)));
        parallel_for_chunks(
            n, grain,
            [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                out[chunk] = map(begin, end);
            });
        return out;
    }

    /// Chunk size actually used for (n, grain) at this pool's width.
    std::size_t effective_grain(std::size_t n,
                                std::size_t grain) const noexcept;

    static std::size_t num_chunks(std::size_t n, std::size_t grain) noexcept {
        return grain == 0 ? 0 : (n + grain - 1) / grain;
    }

    /// Registers `<prefix>_tasks` (chunks dispatched — deterministic for a
    /// fixed thread count) and starts counting. The registry must outlive
    /// the pool.
    void attach_metrics(obs::MetricsRegistry& registry,
                        std::string_view prefix = "analysis");
    void detach_metrics() noexcept { metric_tasks_ = nullptr; }

private:
    struct Job;

    void worker_main(std::size_t worker_index);
    void run_participant(Job& job, std::size_t participant) noexcept;

    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::mutex submit_mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    Job* job_ = nullptr;
    std::uint64_t epoch_ = 0;
    std::size_t active_ = 0;
    bool stop_ = false;
    obs::Counter* metric_tasks_ = nullptr;
};

/// Resolves AnalysisOptions to a usable pool: borrows options.pool when
/// set, otherwise owns a freshly spawned one for the lease's lifetime.
/// Row sweeps go through map_rows, which keeps the serial path pool-free.
class PoolLease {
public:
    explicit PoolLease(const AnalysisOptions& options)
        : borrowed_(options.pool),
          owned_(borrowed_ == nullptr
                     ? new Pool(Pool::resolve_threads(options.threads))
                     : nullptr) {
        // A borrowed pool's metrics attachment belongs to its owner; only
        // a pool spawned for this lease picks up the options' registry.
        if (owned_ != nullptr && options.metrics != nullptr) {
            owned_->attach_metrics(*options.metrics);
        }
    }
    ~PoolLease() { delete owned_; }

    PoolLease(const PoolLease&) = delete;
    PoolLease& operator=(const PoolLease&) = delete;

    Pool& pool() noexcept { return owned_ != nullptr ? *owned_ : *borrowed_; }

private:
    Pool* borrowed_;
    Pool* owned_;
};

/// The one sharding front end for row sweeps over [0, n): returns
/// fn(begin, end) per chunk, in row order. Serial `options` run one inline
/// chunk with no pool; otherwise the chunks are Pool::map_chunks' at grain
/// 0 on a pool leased for the call (set options.pool to keep one across
/// calls). n == 0 yields no chunks. Reducing the result left to right
/// equals the serial sweep whenever fn is a pure function of its range.
template <typename T, typename Fn>
std::vector<T> map_rows(std::size_t n, const AnalysisOptions& options,
                        Fn&& fn) {
    std::vector<T> chunks;
    if (n == 0) return chunks;
    if (!options.parallel()) {
        chunks.push_back(fn(std::size_t{0}, n));
        return chunks;
    }
    PoolLease lease(options);
    return lease.pool().map_chunks<T>(n, 0, fn);
}

/// One pool for a run of map_rows calls: options() are the given options
/// with a pool leased once when they ask for threads, so the calls share
/// it instead of each spawning threads; serial options stay pool-free.
class PinnedPool {
public:
    explicit PinnedPool(const AnalysisOptions& options) : options_(options) {
        if (options_.parallel()) {
            options_.pool = &lease_.emplace(options_).pool();
        }
    }

    const AnalysisOptions& options() const noexcept { return options_; }

private:
    AnalysisOptions options_;
    std::optional<PoolLease> lease_;
};

}  // namespace syncts
