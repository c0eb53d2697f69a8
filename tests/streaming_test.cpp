#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "clocks/online_clock.hpp"
#include "common/pool.hpp"
#include "common/scaled.hpp"
#include "common/spill_store.hpp"
#include "core/causality.hpp"
#include "core/streaming_index.hpp"
#include "core/sync_system.hpp"
#include "core/timestamped_trace.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "poset/streaming_closure.hpp"
#include "test_util.hpp"
#include "trace/ground_truth.hpp"
#include "trace/trace_io.hpp"

// The streaming/out-of-core acceptance suite (docs/STREAMING.md): the
// frontier-retiring closure, the incremental precedence index, and the
// spill-aware streamed verification must each be bit-identical to their
// in-memory counterparts across 500 seeded schedules, with the batch
// legs exercised at 1, 2 and 8 threads.

namespace syncts {
namespace {

// ---- parse_scaled_count (tools/syncts_stats --events) ------------------

TEST(ScaledCount, ParsesPlainAndSuffixedValues) {
    EXPECT_EQ(common::parse_scaled_count("0"), 0u);
    EXPECT_EQ(common::parse_scaled_count("200"), 200u);
    EXPECT_EQ(common::parse_scaled_count("5k"), 5'000u);
    EXPECT_EQ(common::parse_scaled_count("5K"), 5'000u);
    EXPECT_EQ(common::parse_scaled_count("2m"), 2'000'000u);
    EXPECT_EQ(common::parse_scaled_count("2M"), 2'000'000u);
}

TEST(ScaledCount, TenMillionDoesNotOverflow) {
    // The regression: "--events 10m" must come back as exactly 10^7,
    // not a wrapped 32-bit value.
    EXPECT_EQ(common::parse_scaled_count("10m"), 10'000'000u);
    EXPECT_EQ(common::parse_scaled_count("4000m"), 4'000'000'000u);
    EXPECT_EQ(common::parse_scaled_count("18446744073709551615"),
              UINT64_MAX);
}

TEST(ScaledCount, RejectsOverflowAndGarbage) {
    EXPECT_FALSE(common::parse_scaled_count("18446744073709551616"));
    EXPECT_FALSE(common::parse_scaled_count("18446744073709551615k"));
    EXPECT_FALSE(common::parse_scaled_count("99999999999999999999m"));
    EXPECT_FALSE(common::parse_scaled_count(""));
    EXPECT_FALSE(common::parse_scaled_count("k"));
    EXPECT_FALSE(common::parse_scaled_count("12x"));
    EXPECT_FALSE(common::parse_scaled_count("12kk"));
    EXPECT_FALSE(common::parse_scaled_count("12k3"));
    EXPECT_FALSE(common::parse_scaled_count("-5"));
    EXPECT_FALSE(common::parse_scaled_count(" 5"));
}

// ---- SpillStore --------------------------------------------------------

std::string spill_dir(const char* name) {
    return ::testing::TempDir() + "syncts_streaming_" + name;
}

TEST(SpillStore, RoundTripsChunksThroughDisk) {
    SpillStore store(spill_dir("roundtrip"));
    const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
    const std::vector<std::uint8_t> b(1000, 0xAB);
    store.put(0, a);
    store.put(7, b);
    EXPECT_TRUE(store.contains(0));
    EXPECT_TRUE(store.contains(7));
    EXPECT_FALSE(store.contains(3));
    EXPECT_EQ(store.chunk_count(), 2u);

    std::vector<std::uint8_t> out;
    store.get(7, out);
    EXPECT_EQ(out, b);
    store.get(0, out);
    EXPECT_EQ(out, a);
    EXPECT_EQ(store.bytes_written(), 1005u);  // payload bytes, not framing
    EXPECT_EQ(store.bytes_read(), 1005u);

    store.remove(7);
    EXPECT_FALSE(store.contains(7));
    EXPECT_THROW(store.get(7, out), SpillError);
}

TEST(SpillStore, OverwriteReplacesPayload) {
    SpillStore store(spill_dir("overwrite"));
    store.put(3, std::vector<std::uint8_t>{9, 9, 9});
    store.put(3, std::vector<std::uint8_t>{1});
    std::vector<std::uint8_t> out;
    store.get(3, out);
    EXPECT_EQ(out, (std::vector<std::uint8_t>{1}));
    EXPECT_EQ(store.chunk_count(), 1u);
}

TEST(SpillStore, MissingChunkIsTypedIoError) {
    SpillStore store(spill_dir("missing"));
    std::vector<std::uint8_t> out;
    try {
        store.get(42, out);
        FAIL() << "expected SpillError";
    } catch (const SpillError& e) {
        EXPECT_EQ(e.kind(), SpillError::Kind::io);
        EXPECT_EQ(e.chunk_id(), 42u);
    }
}

TEST(SpillStore, FlippedBitOnDiskIsDetected) {
    const std::string dir = spill_dir("bitflip");
    SpillStore store(dir);
    std::vector<std::uint8_t> payload(256);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i);
    }
    store.put(5, payload);

    // Flip one payload bit behind the store's back.
    const std::string path = dir + "/chunk-5.spill";
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(kSpillHeaderBytes + 100),
                         SEEK_SET),
              0);
    ASSERT_EQ(std::fputc(100 ^ 0x20, f), 100 ^ 0x20);
    std::fclose(f);

    std::vector<std::uint8_t> out;
    try {
        store.get(5, out);
        FAIL() << "expected SpillError";
    } catch (const SpillError& e) {
        EXPECT_EQ(e.kind(), SpillError::Kind::checksum);
        EXPECT_EQ(e.chunk_id(), 5u);
    }
}

TEST(SpillStore, CodecRejectsTamperedFrames) {
    std::vector<std::uint8_t> frame;
    const std::vector<std::uint8_t> payload{10, 20, 30};
    SpillStore::encode_chunk(9, payload, frame);

    const auto decoded = SpillStore::decode_chunk(frame, 9);
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                           payload.begin(), payload.end()));

    // Wrong id, truncation, and a flipped byte each throw typed errors.
    EXPECT_THROW((void)SpillStore::decode_chunk(frame, 8), SpillError);
    EXPECT_THROW((void)SpillStore::decode_chunk(
                     std::span<const std::uint8_t>(frame.data(),
                                                   frame.size() - 1),
                     9),
                 SpillError);
    std::vector<std::uint8_t> bad = frame;
    bad[kSpillHeaderBytes + 1] ^= 0x01;
    EXPECT_THROW((void)SpillStore::decode_chunk(bad, 9), SpillError);
}

// ---- 500-seed equivalence sweeps ---------------------------------------

// Same workload family as tests/parallel_test.cpp: five topology shapes,
// 20-79 messages, seeded deterministically.
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

// Long-lived pools shared across seeds (the parallel_test discipline) so
// 500 iterations don't pay 500 thread-team spawns.
struct SweepPools : ::testing::Test {
    Pool two{2};
    Pool eight{8};

    std::vector<AnalysisOptions> all_options() {
        AnalysisOptions serial;
        AnalysisOptions at_two;
        at_two.pool = &two;
        at_two.threads = 2;
        AnalysisOptions at_eight;
        at_eight.pool = &eight;
        at_eight.threads = 8;
        return {serial, at_two, at_eight};
    }
};

using StreamingEquivalence = SweepPools;

// Streamed closure rows must equal the batch Poset rows bit-for-bit —
// checked via for_each_row against Poset::less for every ordered pair,
// with a chunk size small enough that every schedule crosses several
// retired chunks, and every fifth seed spilling through a real store.
TEST_F(StreamingEquivalence, ClosureBitIdenticalOver500Seeds) {
    const std::string dir = spill_dir("closure_sweep");
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        const SyncComputation c = sweep_computation(seed);
        const std::size_t n = c.num_messages();

        std::optional<SpillStore> store;
        StreamingClosureOptions options;
        options.chunk_rows = 8;
        if (seed % 5 == 0) {
            store.emplace(dir);
            options.spill = &*store;
            options.cached_chunks = 1;
        }
        StreamingClosure closure(c.num_processes(), n, options);
        for (const SyncMessage& m : c.messages()) {
            closure.ingest(m.sender, m.receiver);
        }
        closure.finish();

        for (const AnalysisOptions& analysis : all_options()) {
            const Poset truth = message_poset(c, analysis);
            ASSERT_EQ(closure.relation_count(), truth.relation_count())
                << "seed " << seed;
            closure.for_each_row(
                0, static_cast<MessageId>(n),
                [&](MessageId b, std::span<const std::uint64_t> row) {
                    for (MessageId a = 0; a < b; ++a) {
                        const bool streamed =
                            (row[a / 64] >> (a % 64)) & 1;
                        ASSERT_EQ(streamed, truth.less(a, b))
                            << "seed " << seed << " pair (" << a << ", "
                            << b << ")";
                    }
                });
            // Random-access queries agree too (exercises the LRU chunk
            // cache path rather than the sequential walk).
            Rng probes(seed ^ 0xCAFE);
            for (int q = 0; q < 64; ++q) {
                const auto a = static_cast<MessageId>(probes.below(n));
                const auto b = static_cast<MessageId>(probes.below(n));
                ASSERT_EQ(closure.less(a, b), a < b && truth.less(a, b))
                    << "seed " << seed;
            }
        }
    }
}

// Bench scale: one 4,000-message complete(16) schedule, 50x the sweep's
// longest, through 512-row chunks. The relation count and 4,096 random
// probes must match the batch closure.
TEST_F(StreamingEquivalence, ClosureExactAtBenchScale) {
    constexpr std::size_t kMessages = 4000;
    constexpr std::uint64_t kSeed = 20002;
    const Graph g = topology::complete(16);
    Rng rng(kSeed);
    WorkloadOptions workload;
    workload.num_messages = kMessages;
    const SyncComputation c = random_computation(g, workload, rng);
    const Poset truth = message_poset(c);

    StreamingClosureOptions options;
    options.chunk_rows = 512;
    StreamingClosure closure(g.num_vertices(), kMessages, options);
    for (const SyncMessage& m : c.messages()) {
        closure.ingest(m.sender, m.receiver);
    }
    closure.finish();

    ASSERT_EQ(closure.relation_count(), truth.relation_count());
    Rng probes(kSeed ^ 0x57AE);
    for (std::size_t q = 0; q < 4096; ++q) {
        const auto a = static_cast<MessageId>(probes.below(kMessages));
        const auto b = static_cast<MessageId>(probes.below(kMessages));
        ASSERT_EQ(closure.less(a, b), truth.less(a, b))
            << "pair (" << a << ", " << b << ")";
    }
}

// Random access and row sweeps against the batch closure at rows of up
// to 24 words, across chunk sizes that do and do not divide 64 (each
// retired row's offset is computed, not summed), with one size spilled
// through a real store: every ordered pair's less() and every row of
// for_each_row, whole and from mid-chunk starts, must match bit for bit.
TEST_F(StreamingEquivalence, ClosureRandomAccessMatchesBatchAcrossChunkSizes) {
    constexpr std::size_t kMessages = 1500;
    const Graph g = topology::complete(16);
    Rng rng(31337);
    WorkloadOptions workload;
    workload.num_messages = kMessages;
    const SyncComputation c = random_computation(g, workload, rng);
    const Poset truth = message_poset(c);
    const auto n = static_cast<MessageId>(kMessages);

    const auto expected_row = [&](MessageId b) {
        std::vector<std::uint64_t> words(StreamingClosure::row_words(b), 0);
        for (MessageId a = 0; a < b; ++a) {
            if (truth.less(a, b)) words[a / 64] |= std::uint64_t{1} << (a % 64);
        }
        return words;
    };

    const std::string dir = spill_dir("chunk_sizes");
    for (const std::size_t chunk_rows : {1, 7, 64, 100, 419, 512}) {
        std::optional<SpillStore> store;
        StreamingClosureOptions options;
        options.chunk_rows = chunk_rows;
        if (chunk_rows == 419) {
            store.emplace(dir);
            options.spill = &*store;
            options.cached_chunks = 1;
        }
        StreamingClosure closure(g.num_vertices(), kMessages, options);
        for (const SyncMessage& m : c.messages()) {
            closure.ingest(m.sender, m.receiver);
        }
        closure.finish();
        ASSERT_EQ(closure.relation_count(), truth.relation_count())
            << "chunk_rows " << chunk_rows;

        for (MessageId b = 0; b < n; ++b) {
            for (MessageId a = 0; a < n; ++a) {
                ASSERT_EQ(closure.less(a, b), truth.less(a, b))
                    << "chunk_rows " << chunk_rows << " pair (" << a << ", "
                    << b << ")";
            }
        }

        const MessageId starts[] = {0, 1, 63, 64, 65, 418, 420, 777, n - 1};
        for (const MessageId begin : starts) {
            MessageId next = begin;
            closure.for_each_row(
                begin, n, [&](MessageId b, std::span<const std::uint64_t> row) {
                    ASSERT_EQ(b, next++);
                    const std::vector<std::uint64_t> want = expected_row(b);
                    ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(),
                                           want.end()))
                        << "chunk_rows " << chunk_rows << " row " << b
                        << " from " << begin;
                });
            ASSERT_EQ(next, n) << "chunk_rows " << chunk_rows;
        }
    }
}

// The incremental index must answer every query exactly as the batch
// TimestampedTrace: the vector fast path while both stamps are resident,
// the spilled-closure fallback after retirement.
TEST_F(StreamingEquivalence, IndexMatchesBatchTraceOver500Seeds) {
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        const SyncComputation c = sweep_computation(seed);
        const std::size_t n = c.num_messages();
        const SyncSystem system{Graph(c.topology())};
        const TimestampedTrace trace = system.analyze(c);

        StreamingClosureOptions closure_options;
        closure_options.chunk_rows = 8;
        StreamingClosure closure(c.num_processes(), n, closure_options);

        StreamingIndexOptions options;
        options.window = 16;  // < n: forces retirement mid-ingestion
        options.closure = &closure;
        IncrementalPrecedenceIndex index(system, options);

        Rng probes(seed ^ 0xF00D);
        for (const SyncMessage& m : c.messages()) {
            const MessageId id = index.ingest_message(m.sender, m.receiver);
            // Mid-ingestion probes over everything seen so far.
            for (int q = 0; q < 4; ++q) {
                const auto a = static_cast<MessageId>(probes.below(id + 1));
                const auto b = static_cast<MessageId>(probes.below(id + 1));
                ASSERT_EQ(index.precedes(a, b), trace.precedes(a, b))
                    << "seed " << seed << " mid-ingestion (" << a << ", "
                    << b << ")";
            }
        }
        closure.finish();
        ASSERT_EQ(index.size(), n);

        for (MessageId a = 0; a < n; ++a) {
            for (MessageId b = 0; b < n; ++b) {
                ASSERT_EQ(index.precedes(a, b), trace.precedes(a, b))
                    << "seed " << seed << " pair (" << a << ", " << b
                    << ")";
            }
        }
    }
}

// The index stamps through the fused rendezvous, the batch replay
// through the three hooks: every stamp must be word-for-word the same,
// checked right after its ingest, with a window that never retires and
// with one that wraps. complete(16) adds the benchmark's width (d = 14,
// a 2-word tail after the 4-lane blocks) to the sweep's shapes.
TEST_F(StreamingEquivalence, IndexStampsMatchThreeHookDriverOver500Seeds) {
    std::vector<SyncComputation> computations;
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        computations.push_back(sweep_computation(seed));
    }
    {
        Rng rng(14014);
        WorkloadOptions workload;
        workload.num_messages = 2000;
        computations.push_back(
            random_computation(topology::complete(16), workload, rng));
    }
    for (std::size_t i = 0; i < computations.size(); ++i) {
        const SyncComputation& c = computations[i];
        const std::size_t n = c.num_messages();
        const SyncSystem system{Graph(c.topology())};
        OnlineTimestamper engine(system.decomposition_ptr());
        TimestampArena reference(engine.width(), n);
        const std::vector<TsHandle> stamps =
            engine.stamp_messages(c, reference);
        ASSERT_EQ(stamps.size(), n);

        for (const std::size_t window : {n, std::size_t{16}}) {
            StreamingIndexOptions options;
            options.window = window;
            IncrementalPrecedenceIndex index(system, options);
            ASSERT_EQ(index.width(), reference.width());
            for (const SyncMessage& m : c.messages()) {
                const MessageId id = index.ingest_message(m.sender, m.receiver);
                ASSERT_EQ(id, m.id);
                const auto got = index.stamp_span(id);
                const auto want = reference.span(stamps[id]);
                ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                       want.end()))
                    << "computation " << i << " window " << window
                    << " message " << id;
            }
        }
    }
}

// Every check of an ingest runs before the fused pass writes, so a
// rejected message leaves the clocks, the window and its ids as they
// were, even with the ring full and the next slot holding the oldest
// resident stamp.
TEST(StreamingIndex, RejectedIngestLeavesIndexUnchanged) {
    const Graph g = topology::ring(5);
    const SyncSystem system{Graph(g)};
    StreamingIndexOptions options;
    options.window = 8;
    IncrementalPrecedenceIndex index(system, options);
    OnlineTimestamper reference(system.decomposition_ptr());
    TimestampArena slot(reference.width(), 1);
    const auto reference_stamp = [&](ProcessId sender, ProcessId receiver) {
        slot.clear();
        const TsHandle h = reference.timestamp_message(sender, receiver, slot);
        const auto words = slot.span(h);
        return std::vector<std::uint64_t>(words.begin(), words.end());
    };

    for (ProcessId k = 0; k < 11; ++k) {
        const ProcessId p = k % 5;
        const auto q = static_cast<ProcessId>((p + 1 + 3 * (k % 2)) % 5);
        index.ingest_message(p, q);
        (void)reference_stamp(p, q);
    }
    ASSERT_EQ(index.size() - index.resident_frontier(), options.window);

    const std::size_t size = index.size();
    const std::uint64_t frontier = index.resident_frontier();
    std::vector<std::vector<std::uint64_t>> resident;
    for (std::uint64_t id = frontier; id < size; ++id) {
        const auto words = index.stamp_span(static_cast<MessageId>(id));
        resident.emplace_back(words.begin(), words.end());
    }

    EXPECT_THROW(index.ingest_message(0, 2), std::invalid_argument);
    EXPECT_THROW(index.ingest_message(3, 3), std::invalid_argument);
    EXPECT_THROW(index.ingest_message(1, 5), std::invalid_argument);
    EXPECT_THROW(index.ingest_message(9, 0), std::invalid_argument);
    EXPECT_THROW(index.ingest_internal(5), std::invalid_argument);

    EXPECT_EQ(index.size(), size);
    EXPECT_EQ(index.resident_frontier(), frontier);
    for (std::uint64_t id = frontier; id < size; ++id) {
        const auto words = index.stamp_span(static_cast<MessageId>(id));
        EXPECT_TRUE(std::equal(words.begin(), words.end(),
                               resident[id - frontier].begin(),
                               resident[id - frontier].end()))
            << "stamp " << id;
    }

    const MessageId next = index.ingest_message(2, 3);
    EXPECT_EQ(next, size);
    const std::vector<std::uint64_t> want = reference_stamp(2, 3);
    const auto got = index.stamp_span(next);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
}

// Without a closure attached, a query against a retired stamp must be a
// typed refusal — never a wrong answer.
TEST_F(StreamingEquivalence, RetiredQueryWithoutClosureThrows) {
    const SyncComputation c = sweep_computation(1);
    const SyncSystem system{Graph(c.topology())};
    StreamingIndexOptions options;
    options.window = 4;
    IncrementalPrecedenceIndex index(system, options);
    for (const SyncMessage& m : c.messages()) {
        index.ingest_message(m.sender, m.receiver);
    }
    EXPECT_FALSE(index.is_resident(0));
    EXPECT_THROW((void)index.precedes(0, static_cast<MessageId>(
                                             c.num_messages() - 1)),
                 RetiredStampError);
}

// With a registry attached, ingestion keeps the window_resident_rows
// gauge current: it tracks the fill, then holds at the window once the
// ring wraps.
TEST(StreamingIndex, IngestPublishesWindowResidency) {
    const Graph g = topology::grid(4, 4);
    const SyncSystem system{Graph(g)};
    const SyncComputation c = testing::random_workload(g, 96, 0.0, 77);
    obs::MetricsRegistry registry;
    StreamingIndexOptions options;
    options.window = 32;
    options.metrics = &registry;
    IncrementalPrecedenceIndex index(system, options);
    const obs::Gauge& resident = registry.gauge("window_resident_rows");
    std::size_t ingested = 0;
    for (const SyncMessage& m : c.messages()) {
        index.ingest_message(m.sender, m.receiver);
        ++ingested;
        if (ingested == 10) {
            EXPECT_EQ(resident.value(), 10);
        }
    }
    ASSERT_EQ(ingested, 3 * options.window);
    EXPECT_EQ(resident.value(), static_cast<std::int64_t>(options.window));
}

// Streamed sharded verification must return the batch verdict exactly,
// at every thread count and chunk size, clean or corrupted.
TEST_F(StreamingEquivalence, VerifyStreamedMatchesBatchOver500Seeds) {
    const std::string dir = spill_dir("verify_sweep");
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        const SyncComputation c = sweep_computation(seed);
        const SyncSystem system{Graph(c.topology())};
        const TimestampedTrace trace = system.analyze(c);
        const std::size_t batch = trace.verify_against_ground_truth();

        std::optional<SpillStore> store;
        if (seed % 5 == 0) store.emplace(dir);
        for (const AnalysisOptions& analysis : all_options()) {
            StreamedVerifyOptions options;
            options.chunk_rows = 1 + seed % 17;
            options.min_streamed_messages = 0;  // force the streamed path
            options.analysis = analysis;
            options.spill = store ? &*store : nullptr;
            ASSERT_EQ(trace.verify_against_ground_truth(options), batch)
                << "seed " << seed << " threads " << analysis.threads;
            if (store) {
                // The sweep's closure chunks are scratch; clear them so
                // the next leg starts from an empty store.
                store.emplace(dir);
            }
        }
        ASSERT_EQ(batch, 0u) << "seed " << seed;
    }
}

TEST_F(StreamingEquivalence, VerifyAgreesOnCorruptedStamps) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const SyncComputation c = sweep_computation(seed);
        const SyncSystem system{Graph(c.topology())};
        const TimestampedTrace good = system.analyze(c);

        // Wreck the first message's stamp: every component pinned to
        // max, so pairs that truly order against message 0 misreport.
        TimestampArena stamps = good.stamps();
        for (auto& word : stamps.span(0)) word = ~std::uint64_t{0};
        const TimestampedTrace corrupted(SyncComputation(c),
                                         std::move(stamps));

        const std::size_t batch = corrupted.verify_against_ground_truth();
        EXPECT_GT(batch, 0u) << "seed " << seed;
        for (const AnalysisOptions& analysis : all_options()) {
            StreamedVerifyOptions options;
            options.chunk_rows = 4;
            options.min_streamed_messages = 0;
            options.analysis = analysis;
            ASSERT_EQ(corrupted.verify_against_ground_truth(options), batch)
                << "seed " << seed << " threads " << analysis.threads;
        }
    }
}

// ---- SYTR binary stream format -----------------------------------------

void expect_equivalent(const SyncComputation& a, const SyncComputation& b) {
    ASSERT_EQ(a.num_processes(), b.num_processes());
    ASSERT_EQ(a.num_messages(), b.num_messages());
    ASSERT_EQ(a.num_internal_events(), b.num_internal_events());
    for (MessageId m = 0; m < a.num_messages(); ++m) {
        EXPECT_EQ(a.message(m).sender, b.message(m).sender);
        EXPECT_EQ(a.message(m).receiver, b.message(m).receiver);
    }
    for (ProcessId p = 0; p < a.num_processes(); ++p) {
        const auto ea = a.process_events(p);
        const auto eb = b.process_events(p);
        ASSERT_EQ(ea.size(), eb.size()) << "process " << p;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].kind, eb[i].kind);
            if (ea[i].kind == ProcessEvent::Kind::message) {
                EXPECT_EQ(ea[i].index, eb[i].index);
            }
        }
    }
}

TEST(SytrFormat, RoundTripsComputationsWithInternalEvents) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const SyncComputation original = testing::random_workload(
            topology::client_server(2, 4), 40 + seed, 0.5, 9000 + seed);
        std::stringstream buffer;
        write_binary_computation(buffer, original);
        const SyncComputation parsed = read_binary_computation(buffer);
        expect_equivalent(original, parsed);
        // Semantics preserved: same stamps on both sides.
        const auto a = online_timestamps(original);
        const auto b = online_timestamps(parsed);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
}

TEST(SytrFormat, SmallChunksForceManyFrames) {
    std::stringstream buffer;
    // chunk_events = 3: 100 events become ~34 frames, exercising every
    // chunk boundary plus the end-frame total cross-check.
    StreamingTraceWriter writer(buffer, topology::ring(5), 3);
    Rng rng(777);
    for (int i = 0; i < 100; ++i) {
        const auto p = static_cast<ProcessId>(rng.below(5));
        if (i % 4 == 3) {
            writer.add_internal(p);
        } else {
            writer.add_message(p, static_cast<ProcessId>((p + 1) % 5));
        }
    }
    writer.finish();
    EXPECT_EQ(writer.events_written(), 100u);

    StreamingTraceReader reader(buffer);
    std::size_t messages = 0;
    std::size_t internals = 0;
    while (const auto record = reader.next()) {
        if (record->kind == TraceRecord::Kind::message) {
            ++messages;
        } else {
            ++internals;
        }
    }
    EXPECT_TRUE(reader.finished());
    EXPECT_EQ(messages, 75u);
    EXPECT_EQ(internals, 25u);
    EXPECT_EQ(reader.events_read(), 100u);
}

TEST(SytrFormat, ReaderFeedsIncrementalIndexMidStream) {
    const SyncComputation c = sweep_computation(12);
    const SyncSystem system{Graph(c.topology())};
    const TimestampedTrace trace = system.analyze(c);

    std::stringstream buffer;
    write_binary_computation(buffer, c);

    StreamingTraceReader reader(buffer);
    EXPECT_EQ(reader.topology().num_edges(), c.topology().num_edges());
    IncrementalPrecedenceIndex index(system);

    // Ingest in two halves, querying between them: answers must already
    // be exact mid-stream.
    const std::uint64_t half =
        (c.num_messages() + c.num_internal_events()) / 2;
    index.ingest(reader, half);
    if (index.size() >= 2) {
        const auto last = static_cast<MessageId>(index.size() - 1);
        EXPECT_EQ(index.precedes(0, last), trace.precedes(0, last));
    }
    index.ingest(reader);
    EXPECT_TRUE(reader.finished());
    ASSERT_EQ(index.size(), c.num_messages());
    for (MessageId m = 0; m < c.num_messages(); ++m) {
        const auto streamed = index.stamp_span(m);
        const auto batch = trace.stamps().span(static_cast<TsHandle>(m));
        ASSERT_TRUE(std::equal(streamed.begin(), streamed.end(),
                               batch.begin(), batch.end()))
            << "stamp " << m;
    }
}

TEST(SytrFormat, WriterRejectsUseAfterFinish) {
    std::stringstream buffer;
    StreamingTraceWriter writer(buffer, topology::triangle());
    writer.add_message(0, 1);
    writer.finish();
    EXPECT_THROW(writer.add_message(1, 2), std::invalid_argument);
}

}  // namespace
}  // namespace syncts
