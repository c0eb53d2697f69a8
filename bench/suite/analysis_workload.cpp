// analysis_stream: the offline user's path on complete(16) (d = 14). No
// rendezvous is run. Each round has two phases:
//
//   (a) writes: 1,000,000 procedurally generated messages (round seed)
//       stamped by IncrementalPrecedenceIndex with a 65,536-stamp window,
//       one fast-path query per 16 ingests. Stamping and the window
//       dominate.
//   (b) reads: the run's 16,384-message script ingested with an in-memory
//       StreamingClosure attached (chunk_rows 512, window 2,048), then
//       262,144 random-pair queries, most of which fall back to the
//       closure. The poset closure dominates.

#include <algorithm>
#include <memory>
#include <vector>

#include "core/streaming_index.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "poset/streaming_closure.hpp"
#include "trace/generator.hpp"

namespace syncts::bench {

namespace {

constexpr std::size_t kProcesses = 16;
constexpr std::size_t kStreamMessages = 1'000'000;
constexpr std::size_t kQueryEvery = 16;
constexpr std::size_t kClosureMessages = 16'384;
constexpr std::size_t kQueries = 262'144;
constexpr std::size_t kSampledPairs = 256;

/// Operations one round performs: every ingested message and every
/// answered query of both phases.
constexpr std::uint64_t kOpsPerRound = kStreamMessages +
                                       kStreamMessages / kQueryEvery +
                                       kClosureMessages + kQueries;

/// One phase (b) stream and its Fig. 5 oracle hashes.
struct StreamVariant {
    SyncComputation script;
    std::vector<std::uint64_t> oracle;
};

struct AnalysisSetup {
    std::shared_ptr<const EdgeDecomposition> decomposition;
    std::vector<StreamVariant> variants;

    const StreamVariant& for_round(std::uint64_t r) const {
        return variants[r % variants.size()];
    }
};

AnalysisSetup build_setup(std::uint64_t seed) {
    const Graph graph = topology::complete(kProcesses);
    AnalysisSetup setup;
    setup.decomposition =
        std::make_shared<const EdgeDecomposition>(default_decomposition(graph));
    Rng rng(seed ^ 0xA7A1);
    WorkloadOptions workload;
    workload.num_messages = kClosureMessages;
    for (std::size_t k = 0; k < kVariants; ++k) {
        SyncComputation script = random_computation(graph, workload, rng);
        std::vector<std::uint64_t> oracle = oracle_hashes(setup.decomposition, script);
        setup.variants.push_back(StreamVariant{std::move(script), std::move(oracle)});
    }
    return setup;
}

struct RoundResult {
    double ns = 0.0;              ///< wall ns of both phases
    std::uint64_t precedes = 0;   ///< answers that were true (fidelity)
    std::uint64_t relations = 0;  ///< closure relation count (fidelity)
    std::uint64_t failed = 0;
    double fastpath_share = 0.0;  ///< of phase (b) queries (traced)
    double chunk_loads_per_query = 0.0;
    double window_resident_rows = 0.0;  ///< after phase (a)
};

/// Round r (phase (a) drawn from seed S+r, phase (b) on input set r mod
/// kVariants); `traced` attaches a metrics registry to every component.
RoundResult run_round(const AnalysisSetup& setup, std::uint64_t seed,
                      std::uint64_t r, bool traced) {
    const StreamVariant& stream = setup.for_round(r);
    const std::uint64_t round_seed = seed + r;
    RoundResult out;
    obs::MetricsRegistry stream_metrics;
    obs::MetricsRegistry closure_metrics;

    {
        StreamingIndexOptions options;
        options.window = kIndexWindow;
        if (traced) options.metrics = &stream_metrics;
        Rng rng(round_seed ^ 0x57AE);
        const std::uint64_t start = now_ns();
        IncrementalPrecedenceIndex index(setup.decomposition, options);
        for (std::size_t i = 0; i < kStreamMessages; ++i) {
            const auto sender = static_cast<ProcessId>(rng.below(kProcesses));
            const auto receiver = static_cast<ProcessId>(
                (sender + 1 + rng.below(kProcesses - 1)) % kProcesses);
            const MessageId id = index.ingest_message(sender, receiver);
            if (i % kQueryEvery == kQueryEvery - 1) {
                const std::uint64_t lo = index.resident_frontier();
                const auto a = static_cast<MessageId>(lo + rng.below(id - lo + 1));
                out.precedes += index.precedes(a, id) ? 1 : 0;
            }
        }
        out.ns += static_cast<double>(now_ns() - start);
        // From the index itself: nothing refreshes the arena's
        // window_resident_rows gauge during ingestion, so it reads 0.
        out.window_resident_rows =
            static_cast<double>(index.size() - index.resident_frontier());
    }

    StreamingClosureOptions closure_options;
    closure_options.chunk_rows = kChunkRows;
    if (traced) closure_options.metrics = &closure_metrics;
    Rng rng(round_seed ^ 0xB0B5);
    const std::size_t m = stream.script.num_messages();
    const std::uint64_t start = now_ns();
    StreamingClosure closure(kProcesses, kClosureMessages, closure_options);
    StreamingIndexOptions options;
    options.window = kClosureWindow;
    options.closure = &closure;
    if (traced) options.metrics = &closure_metrics;
    IncrementalPrecedenceIndex index(setup.decomposition, options);
    for (const SyncMessage& message : stream.script.messages()) {
        index.ingest_message(message.sender, message.receiver);
    }
    closure.finish();
    for (std::size_t q = 0; q < kQueries; ++q) {
        const auto a = static_cast<MessageId>(rng.below(m));
        const auto b = static_cast<MessageId>(rng.below(m));
        out.precedes += index.precedes(a, b) ? 1 : 0;
    }
    out.ns += static_cast<double>(now_ns() - start);
    out.relations = closure.relation_count();
    if (traced) {
        const obs::MetricsSnapshot snap = closure_metrics.snapshot();
        const auto counter = [&](const char* name) -> std::uint64_t {
            const auto it = snap.counters.find(name);
            return it == snap.counters.end() ? 0 : it->second;
        };
        const std::uint64_t fast = counter("stream_fastpath_queries");
        const std::uint64_t spill = counter("stream_spill_queries");
        const std::uint64_t loads = counter("stream_chunk_loads");
        out.fastpath_share = static_cast<double>(fast) /
                             static_cast<double>(std::max<std::uint64_t>(fast + spill, 1));
        out.chunk_loads_per_query = static_cast<double>(loads) /
                                    static_cast<double>(std::max<std::uint64_t>(spill, 1));
    }

    // Checks: resident pairs answer the same from the vector fast path and
    // from the closure, and resident stamps equal the Fig. 5 oracle.
    const std::uint64_t lo = index.resident_frontier();
    for (std::size_t k = 0; k < kSampledPairs; ++k) {
        const auto a = static_cast<MessageId>(lo + rng.below(m - lo));
        const auto b = static_cast<MessageId>(lo + rng.below(m - lo));
        if (index.precedes(a, b) != closure.less(a, b)) ++out.failed;
        if (stamp_hash(index.stamp_span(a)) != stream.oracle[a]) ++out.failed;
    }
    return out;
}

/// Timed pass: one operation is one ingested message or one answered
/// query, of either phase.
int timed_pass(const RunConfig& config) {
    Outcome outcome;
    const AnalysisSetup setup = build_setup(config.seed);
    outcome.detail.count("ops_per_round", kOpsPerRound);
    const auto repeat_setup = [&] { (void)build_setup(config.seed); };
    return run_timed_pass(config, outcome, repeat_setup, [&](std::uint64_t r) {
        const RoundResult round = run_round(setup, config.seed, r, false);
        outcome.attempted += kOpsPerRound;
        outcome.failed += round.failed;
        return round.ns / static_cast<double>(kOpsPerRound);
    });
}

int traced_pass(const RunConfig& config) {
    Outcome outcome;
    const std::uint64_t pass_start = now_ns();
    const AnalysisSetup setup = build_setup(config.seed);
    outcome.attempted += kOpsPerRound;
    outcome.failed += run_round(setup, config.seed, 0, false).failed;

    const std::size_t seeds = config.smoke ? 2 : kTracedSeeds;
    std::vector<double> ref, plain_ns, tax, fastpath, loads, resident;
    bool fidelity = true;
    for (std::size_t i = 1; i <= seeds; ++i) {
        ref.push_back(time_reference_kernel());
        const RoundResult plain = run_round(setup, config.seed, i, false);
        const RoundResult traced = run_round(setup, config.seed, i, true);
        outcome.attempted += 2 * kOpsPerRound;
        outcome.failed += plain.failed + traced.failed;
        fidelity = fidelity && plain.precedes == traced.precedes &&
                   plain.relations == traced.relations;
        plain_ns.push_back(plain.ns / static_cast<double>(kOpsPerRound));
        tax.push_back(traced.ns / plain.ns);
        fastpath.push_back(traced.fastpath_share);
        loads.push_back(traced.chunk_loads_per_query);
        resident.push_back(traced.window_resident_rows);
    }

    // Self times of every layer on the first traced round's (b) stream, in
    // the rest of the pass's budget.
    LayerInputs inputs;
    inputs.segments.push_back(
        DataSegment{0, setup.decomposition, &setup.for_round(1).script, {}});
    inputs.processes = kProcesses;
    inputs.bandwidth.enabled = true;
    inputs.seed = config.seed;
    const double elapsed_s = static_cast<double>(now_ns() - pass_start) / 1e9;
    const LayerTimes self =
        time_layers(inputs, config.smoke ? 0.0 : std::max(3.0, config.seconds - elapsed_s),
                    config.smoke ? 1 : 3);

    // Per operation: every message is stamped and phase (b)'s also enter
    // the closure; phase (a)'s queries and phase (b)'s resident ones take
    // the fast path, the rest fall back to the closure.
    const double scale = kRefNominalNs / median(ref);
    const double share = median(fastpath);
    const double ops = static_cast<double>(kOpsPerRound);
    const double queries = static_cast<double>(kQueries);
    const Part parts[] = {
        {"clocks.stamp", self.stamp_ns * scale,
         static_cast<double>(kStreamMessages + kClosureMessages) / ops},
        {"poset.closure_ingest", self.closure_ingest_ns * scale,
         static_cast<double>(kClosureMessages) / ops},
        {"core.fastpath_query", self.fastpath_query_ns * scale,
         (static_cast<double>(kStreamMessages / kQueryEvery) + share * queries) / ops},
        {"poset.fallback_query", self.fallback_query_ns * scale,
         (1.0 - share) * queries / ops},
    };
    const double total_ns = median(plain_ns) * scale;
    const Breakdown split = breakdown(total_ns, parts);

    LayerValues v = layer_values(self, scale);
    v["clocks.width"] = static_cast<double>(setup.decomposition->size());
    v["topo.epochs"] = 1.0;
    v["common.window_resident_rows"] = median(resident);
    v["core.fastpath_share"] = share;
    v["poset.chunk_loads_per_query"] = median(loads);
    v["obs.total_ns"] = total_ns;
    v["obs.residual_ns"] = split.residual_ns;
    v["obs.tax_pct"] = (median(tax) - 1.0) * 100.0;

    outcome.ref_median_ns = median(ref);
    outcome.checks_ok = fidelity && split.sums;
    outcome.metrics = layer_metrics(v);
    Json checks;
    checks.flag("traced_matches_timed", fidelity)
        .flag("breakdown_sums_to_total", split.sums);
    outcome.detail.count("traced_seeds", seeds)
        .raw("breakdown", split.json)
        .raw("checks", checks.text());
    return emit(config, outcome);
}

}  // namespace

int run_analysis_workload(const RunConfig& config) {
    return config.trace ? traced_pass(config) : timed_pass(config);
}

}  // namespace syncts::bench
