// The parallel analysis engine's two promises, tested head-on:
//   1. Pool runs every index exactly once, propagates exceptions, and
//      hands map_chunks results back in chunk order.
//   2. Every sharded analysis (Poset::close, offline_timestamps with
//      dimension minimization, ground-truth verification) is
//      bit-identical to its serial path — over 500 seeded workloads, at
//      1, 2 and 8 threads.
// The equivalence sweeps share two long-lived pools so 500 seeds don't
// spawn 1000 thread teams.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "clocks/offline_timestamper.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "core/causality.hpp"
#include "core/sync_system.hpp"
#include "core/timestamped_trace.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "poset/poset.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {
namespace {

// ---------------------------------------------------------------- Pool --

TEST(Pool, CoversEveryIndexExactlyOnce) {
    Pool pool(4);
    for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
        for (const std::size_t grain : {0u, 1u, 3u, 64u, 5000u}) {
            // Chunks cover disjoint ranges, so plain bytes need no atomics.
            std::vector<std::uint8_t> hits(n, 0);
            pool.parallel_for(n, grain,
                              [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t i = begin; i < end; ++i) {
                                      ++hits[i];
                                  }
                              });
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i], 1u) << "n=" << n << " grain=" << grain
                                       << " index " << i;
            }
        }
    }
}

TEST(Pool, CallerOnlyPoolStillRuns) {
    Pool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::size_t sum = 0;
    pool.parallel_for(100, 7, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) sum += i;
    });
    EXPECT_EQ(sum, 99u * 100u / 2u);
}

TEST(Pool, MapChunksReturnsChunkOrder) {
    Pool pool(3);
    const std::size_t n = 1000;
    const std::size_t grain = 13;
    const std::vector<std::size_t> firsts =
        pool.map_chunks<std::size_t>(
            n, grain, [](std::size_t begin, std::size_t) { return begin; });
    ASSERT_EQ(firsts.size(), Pool::num_chunks(n, grain));
    for (std::size_t chunk = 0; chunk < firsts.size(); ++chunk) {
        EXPECT_EQ(firsts[chunk], chunk * grain);
    }
}

TEST(Pool, ChunkIndicesAreDense) {
    Pool pool(4);
    const std::size_t n = 512;
    const std::size_t grain = 9;
    const std::size_t chunks = Pool::num_chunks(n, grain);
    std::vector<std::uint8_t> seen(chunks, 0);
    pool.parallel_for_chunks(
        n, grain, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
            ASSERT_LT(chunk, chunks);
            EXPECT_EQ(begin, chunk * grain);
            EXPECT_EQ(end, std::min(n, begin + grain));
            ++seen[chunk];
        });
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        EXPECT_EQ(seen[chunk], 1u);
    }
}

TEST(Pool, ExceptionPropagatesToCaller) {
    Pool pool(4);
    const auto boom = [](std::size_t begin, std::size_t end) {
        if (begin <= 37 && 37 < end) throw std::runtime_error("chunk 37");
    };
    EXPECT_THROW(pool.parallel_for(100, 5, boom), std::runtime_error);
    // The pool must stay usable after a throwing job.
    std::atomic<std::size_t> covered{0};
    pool.parallel_for(64, 8, [&](std::size_t begin, std::size_t end) {
        covered += end - begin;
    });
    EXPECT_EQ(covered, 64u);
}

TEST(Pool, ResolveThreads) {
    EXPECT_EQ(Pool::resolve_threads(5), 5u);
    EXPECT_GE(Pool::resolve_threads(0), 1u);
}

TEST(Pool, TasksCounterCountsChunks) {
    obs::MetricsRegistry registry;
    Pool pool(2);
    pool.attach_metrics(registry);
    pool.parallel_for(100, 10,
                      [](std::size_t, std::size_t) { /* no-op */ });
    EXPECT_EQ(registry.counter("analysis_tasks").value(), 10u);
    pool.detach_metrics();
    pool.parallel_for(100, 10,
                      [](std::size_t, std::size_t) { /* no-op */ });
    EXPECT_EQ(registry.counter("analysis_tasks").value(), 10u);
}

// ------------------------------------------- serial/parallel equivalence --

/// The equivalence sweeps reuse these pools; AnalysisOptions::pool wins
/// over AnalysisOptions::threads, so each options value below really runs
/// at the named width.
struct SweepPools {
    Pool two{2};
    Pool eight{8};

    std::vector<AnalysisOptions> parallel_options() {
        AnalysisOptions at_two;
        at_two.pool = &two;
        AnalysisOptions at_eight;
        at_eight.pool = &eight;
        return {at_two, at_eight};
    }
};

Graph sweep_topology(std::uint64_t seed, Rng& rng) {
    switch (seed % 5) {
        case 0: return topology::complete(6);
        case 1: return topology::ring(9);
        case 2: return topology::star(8);
        case 3: return topology::disjoint_triangles(3);
        default: return topology::random_tree(10, rng);
    }
}

SyncComputation sweep_computation(std::uint64_t seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const Graph g = sweep_topology(seed, rng);
    WorkloadOptions options;
    options.num_messages = 20 + seed % 60;
    return random_computation(g, options, rng);
}

void expect_same_poset(const Poset& serial, const Poset& parallel,
                       std::uint64_t seed) {
    ASSERT_EQ(serial.size(), parallel.size()) << "seed " << seed;
    ASSERT_EQ(serial.relation_count(), parallel.relation_count())
        << "seed " << seed;
    for (std::size_t v = 0; v < serial.size(); ++v) {
        ASSERT_EQ(serial.down_set(v), parallel.down_set(v))
            << "seed " << seed << " down set of " << v;
        ASSERT_EQ(serial.up_set(v), parallel.up_set(v))
            << "seed " << seed << " up set of " << v;
    }
}

TEST(ParallelEquivalence, ClosureBitIdenticalOver500Seeds) {
    SweepPools pools;
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        const SyncComputation c = sweep_computation(seed);
        const Poset serial = message_poset(c);
        for (AnalysisOptions options : pools.parallel_options()) {
            const Poset parallel = message_poset(c, options);
            expect_same_poset(serial, parallel, seed);
        }
    }
}

TEST(ParallelEquivalence, ClosureWordOpsMatchSerialCount) {
    SweepPools pools;
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const SyncComputation c = sweep_computation(seed);
        obs::MetricsRegistry serial_registry;
        AnalysisOptions serial;
        serial.metrics = &serial_registry;
        (void)message_poset(c, serial);
        for (AnalysisOptions options : pools.parallel_options()) {
            obs::MetricsRegistry registry;
            options.metrics = &registry;
            (void)message_poset(c, options);
            // The word-OR total is a property of the poset, not of the
            // schedule: same value at every thread count.
            EXPECT_EQ(registry.counter("closure_word_ops").value(),
                      serial_registry.counter("closure_word_ops").value())
                << "seed " << seed;
        }
    }
}

TEST(ParallelEquivalence, OfflineTimestampsBitIdentical) {
    SweepPools pools;
    for (std::uint64_t seed = 0; seed < 500; seed += 5) {
        const SyncComputation c = sweep_computation(seed);
        // Minimization exercises the sharded realizer-validation sweep.
        const bool minimize = seed % 2 == 0;
        const OfflineResult serial = offline_timestamps(c, minimize);
        for (AnalysisOptions options : pools.parallel_options()) {
            const OfflineResult parallel =
                offline_timestamps(c, minimize, options);
            ASSERT_EQ(serial.width, parallel.width) << "seed " << seed;
            ASSERT_EQ(serial.timestamps.size(), parallel.timestamps.size());
            for (std::size_t m = 0; m < serial.timestamps.size(); ++m) {
                ASSERT_EQ(serial.timestamps[m], parallel.timestamps[m])
                    << "seed " << seed << " message " << m;
            }
        }
    }
}

TEST(ParallelEquivalence, GroundTruthVerificationIdentical) {
    SweepPools pools;
    for (std::uint64_t seed = 1; seed < 100; seed += 7) {
        Rng rng(seed);
        const Graph g = sweep_topology(seed, rng);
        WorkloadOptions workload;
        workload.num_messages = 80;
        const SyncComputation c = random_computation(g, workload, rng);
        const SyncSystem system{Graph(g)};
        const TimestampedTrace trace = system.analyze(c);
        const std::size_t serial = trace.verify_against_ground_truth();
        EXPECT_EQ(serial, 0u) << "seed " << seed;
        for (const AnalysisOptions& options : pools.parallel_options()) {
            EXPECT_EQ(trace.verify_against_ground_truth(options), serial)
                << "seed " << seed;
        }
    }
}

TEST(ParallelEquivalence, MismatchPairsKeepSerialOrder) {
    SweepPools pools;
    // A three-element antichain stamped as a chain: every ordered pair
    // (a < b numerically) disagrees with the poset, so the expected list
    // is exactly the serial sweep's visit order.
    Poset poset(3);
    poset.close();
    TimestampArena stamps(1);
    stamps.allocate(std::vector<std::uint64_t>{1});
    stamps.allocate(std::vector<std::uint64_t>{2});
    stamps.allocate(std::vector<std::uint64_t>{3});
    const std::vector<std::pair<std::size_t, std::size_t>> expected = {
        {0, 1}, {0, 2}, {1, 2}};
    EXPECT_EQ(encoding_mismatch_pairs(poset, stamps), expected);
    for (const AnalysisOptions& options : pools.parallel_options()) {
        EXPECT_EQ(encoding_mismatch_pairs(poset, stamps, options), expected);
    }
    EXPECT_EQ(encoding_mismatches(poset, stamps), expected.size());
}

TEST(ParallelEquivalence, ShardedBatchKernelsMatchSerial) {
    SweepPools pools;
    Rng rng(77);
    WorkloadOptions workload;
    workload.num_messages = 300;
    const SyncComputation c =
        random_computation(topology::complete(8), workload, rng);
    const SyncSystem system{topology::complete(8)};
    const TimestampedTrace trace = system.analyze(c);
    const TimestampArena& arena = trace.stamps();
    std::vector<std::uint8_t> serial_flags(arena.size());
    std::vector<std::uint8_t> parallel_flags(arena.size());
    for (MessageId probe = 0; probe < 20; ++probe) {
        relate_many(arena, arena.span(probe), serial_flags);
        leq_many(arena, arena.span(probe), parallel_flags);
        for (const AnalysisOptions& options : pools.parallel_options()) {
            std::vector<std::uint8_t> sharded(arena.size());
            relate_many(arena, arena.span(probe), sharded, options);
            EXPECT_EQ(sharded, serial_flags) << "probe " << probe;
            leq_many(arena, arena.span(probe), sharded, options);
            EXPECT_EQ(sharded, parallel_flags) << "probe " << probe;
        }
    }
}

}  // namespace
}  // namespace syncts
