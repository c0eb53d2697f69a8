#pragma once

// Per-layer self times: each layer's public functions timed from outside
// the library on a workload's own data. Every workload times every layer,
// so every per-layer time is measured on every run; how often a workload
// calls a layer per operation decides how much of its cost the layer
// accounts for in the breakdown.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "decomp/edge_decomposition.hpp"
#include "harness.hpp"
#include "runtime/synchronizer.hpp"
#include "trace/computation.hpp"

namespace syncts::bench {

/// The streaming-analysis configuration analysis_stream runs and the
/// analysis layers are timed with.
inline constexpr std::size_t kIndexWindow = 1 << 16;  ///< phase (a) window
inline constexpr std::size_t kClosureWindow = 2'048;  ///< phase (b) window
inline constexpr std::size_t kChunkRows = 512;        ///< closure chunk rows

/// stamp_hash of the Fig. 5 stamp of every message of `script`, stamped
/// one message at a time into a one-slot arena so a wide script costs no
/// more than its hashes: the oracle every round is checked against.
std::vector<std::uint64_t> oracle_hashes(
    const std::shared_ptr<const EdgeDecomposition>& decomposition,
    const SyncComputation& script);

/// One epoch of a workload's data: messages in commit order.
struct DataSegment {
    EpochId epoch = 0;
    std::shared_ptr<const EdgeDecomposition> decomposition;
    const SyncComputation* computation = nullptr;
    /// Script id of each message (frame headers carry it); empty means the
    /// messages are the script.
    std::span<const MessageId> script_message;
};

struct LayerInputs {
    std::vector<DataSegment> segments;  ///< epoch order
    std::size_t processes = 0;          ///< engine-table size
    bool delta = false;        ///< frames delta-encoded as that profile sends them
    std::size_t batch_entries = 2;      ///< entries per batch container
    BandwidthOptions bandwidth;         ///< shaper the admit calls run under
    RecoveryOptions recovery;           ///< WAL flush interval, frame windows
    std::uint64_t seed = 1;
};

struct LayerTimes {
    double stamp_ns = 0, encode_ns = 0, decode_ns = 0, batch_ns = 0,
           sim_ns = 0, admit_ns = 0, wal_ns = 0, snapshot_ns = 0;
    double ingest_ns = 0, query_ns = 0, fastpath_query_ns = 0,
           closure_ingest_ns = 0, fallback_query_ns = 0;
    double topo_apply_ms = 0, decomp_ms = 0;
    /// stamp_hash of every message's re-derived stamp, segments in order.
    std::vector<std::uint64_t> stamp_hashes;
};

/// Times every layer on `in`, splitting `budget_s` evenly; each figure is
/// the median over repeated passes (at least `min_reps`), raw wall time.
LayerTimes time_layers(const LayerInputs& in, double budget_s, int min_reps);

/// The per-layer time metrics of `t` (README.md's catalog), each scaled
/// by `scale`.
LayerValues layer_values(const LayerTimes& t, double scale);

/// One row of a breakdown: a layer's self time and calls per operation.
struct Part {
    const char* layer;
    double self_ns;
    double calls_per_op;
};

struct Breakdown {
    double residual_ns = 0.0;  ///< total minus the attributed parts
    bool sums = false;         ///< parts + residual reproduce the total
    std::string json;          ///< every row, the residual and the total
};

Breakdown breakdown(double total_ns, std::span<const Part> parts);

}  // namespace syncts::bench
