#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "core/multi_epoch_trace.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "obs/metrics.hpp"
#include "runtime/reconfig_runtime.hpp"
#include "runtime/synchronizer.hpp"
#include "test_util.hpp"
#include "topo/reconfig.hpp"
#include "topo/topology_manager.hpp"

/// The epoch-versioned topology acceptance sweep (docs/TOPOLOGY.md):
///   (a) per-epoch timestamps of reconfigurable runs are bit-identical
///       to fresh Fig. 5 runs on that epoch's topology;
///   (b) cross-epoch precedence matches the offline ground-truth closure
///       at every thread count;
///   (c) pre-epoch (v1) wire frames interoperate as epoch 0;
/// plus the incremental-decomposition quality bound (Theorems 5-7) over
/// 500 random reconfiguration schedules.

namespace syncts {
namespace {

/// Exact β(G) by exhaustive subset sweep — only called on graphs small
/// enough (n ≤ 16) for 2^n to be trivial.
std::size_t exact_vertex_cover_size(const Graph& g) {
    const std::size_t n = g.num_vertices();
    std::size_t best = n;
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        const auto covered = [mask](const Edge& e) {
            return ((mask >> e.u) & 1u) || ((mask >> e.v) & 1u);
        };
        bool covers = true;
        for (const Edge& e : g.edges()) {
            if (!covered(e)) {
                covers = false;
                break;
            }
        }
        if (covers) {
            best = std::min(
                best, static_cast<std::size_t>(__builtin_popcount(mask)));
        }
    }
    return best;
}

/// Theorem 5's cap on the optimal decomposition: min(β(G), N−2), the
/// N−2 term applying once N ≥ 3.
std::size_t theorem5_bound(const Graph& g) {
    const std::size_t beta = exact_vertex_cover_size(g);
    if (g.num_vertices() >= 3) {
        return std::min(beta, g.num_vertices() - 2);
    }
    return beta;
}

/// Groups of `to` that cover exactly the edge set of some group of
/// `from`, counted from the two decompositions alone.
std::size_t count_preserved(const EdgeDecomposition& from,
                            const EdgeDecomposition& to) {
    std::vector<std::vector<Edge>> old_sets;
    for (const EdgeGroup& group : from.groups()) {
        old_sets.push_back(group.edges);
        std::sort(old_sets.back().begin(), old_sets.back().end());
    }
    std::size_t preserved = 0;
    for (const EdgeGroup& group : to.groups()) {
        std::vector<Edge> edges = group.edges;
        std::sort(edges.begin(), edges.end());
        if (std::find(old_sets.begin(), old_sets.end(), edges) !=
            old_sets.end()) {
            ++preserved;
        }
    }
    return preserved;
}

/// The transition into epoch `e` against the two epochs the manager
/// holds: processes never go away, and the preserved-group count is the
/// number of groups that kept their exact edge set.
void expect_transition_consistent(const TopologyManager& manager,
                                  EpochId e) {
    ASSERT_GE(e, 1u);
    const EdgeDecomposition& from = *manager.decomposition(e - 1);
    const EdgeDecomposition& to = *manager.decomposition(e);
    ASSERT_LE(manager.epoch(e - 1).num_processes(),
              manager.epoch(e).num_processes());
    EXPECT_EQ(manager.transition_into(e).preserved_groups,
              count_preserved(from, to));
}

/// Small-graph pool for the schedule sweeps: every case with at least one
/// channel and few enough vertices that β(G) stays exactly computable
/// after a handful of addp ops.
std::vector<Graph> schedule_pool(std::uint64_t seed) {
    std::vector<Graph> pool;
    for (const auto& [name, graph] : testing::small_graph_suite(seed)) {
        if (graph.num_edges() == 0) continue;
        if (graph.num_vertices() > 9) continue;
        pool.push_back(graph);
    }
    return pool;
}

TEST(Topology, ManagerBuildsImmutableEpochsWithConsistentRemaps) {
    TopologyManager manager{topology::ring(5)};
    const std::shared_ptr<const EdgeDecomposition> epoch0 =
        manager.current_decomposition();
    ASSERT_EQ(manager.num_epochs(), 1u);
    EXPECT_EQ(manager.current_epoch_id(), 0u);

    manager.add_channel(0, 2);
    expect_transition_consistent(manager, 1);
    EXPECT_EQ(manager.num_epochs(), 2u);
    EXPECT_TRUE(manager.epoch(1).graph().has_edge(0, 2));

    manager.remove_channel(3, 4);
    expect_transition_consistent(manager, 2);
    EXPECT_FALSE(manager.current().graph().has_edge(3, 4));

    // A pure process add keeps the decomposition: every group survives.
    const EpochTransition& t3 = manager.add_process();
    expect_transition_consistent(manager, 3);
    EXPECT_EQ(t3.preserved_groups, manager.decomposition(2)->size());
    EXPECT_EQ(manager.epoch(3).num_processes(),
              manager.epoch(2).num_processes() + 1);
    EXPECT_EQ(manager.current().width(), manager.epoch(2).width());

    manager.add_process(0);
    expect_transition_consistent(manager, 4);
    EXPECT_TRUE(manager.current().graph().has_edge(
        0, static_cast<ProcessId>(manager.current().num_processes() - 1)));

    // Handed-out snapshots are never mutated by later reconfigurations.
    EXPECT_EQ(manager.decomposition(0).get(), epoch0.get());
    EXPECT_EQ(epoch0->graph().num_vertices(), 5u);
    EXPECT_EQ(manager.transitions().size(), manager.num_epochs() - 1);
    for (EpochId e = 1; e < manager.num_epochs(); ++e) {
        EXPECT_EQ(manager.epoch(e).id, e);
    }

    EXPECT_THROW(manager.add_channel(0, 1), std::invalid_argument);
    EXPECT_THROW(manager.add_channel(0, 99), std::invalid_argument);
    EXPECT_THROW(manager.remove_channel(3, 4), std::invalid_argument);
}

TEST(Topology, IncrementalStaysWithinTheoremBoundAcross500Schedules) {
    const std::vector<Graph> pool = schedule_pool(41);
    ASSERT_FALSE(pool.empty());
    std::size_t incremental_epochs = 0;
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
        const Graph& initial = pool[seed % pool.size()];
        TopologyManager manager{Graph(initial)};
        const std::vector<ReconfigOp> schedule =
            random_reconfig_schedule(initial, 3, seed);
        for (const ReconfigOp& op : schedule) {
            const EpochTransition& t = apply(manager, op);
            expect_transition_consistent(manager, manager.current_epoch_id());
            if (!t.full_rebuild) ++incremental_epochs;

            const Epoch& epoch = manager.current();
            ASSERT_TRUE(epoch.decomposition->complete());
            if (epoch.graph().num_edges() == 0) continue;

            // Theorem 6's 2-approximation, preserved incrementally: the
            // patched decomposition never exceeds twice the Theorem 5 cap.
            EXPECT_LE(epoch.width(), 2 * theorem5_bound(epoch.graph()))
                << "seed " << seed << " op " << op.to_string();

            // Theorem 7: Fig. 7 is optimal on acyclic graphs, and the
            // incremental path must match the full greedy run there.
            if (epoch.graph().is_acyclic()) {
                EXPECT_EQ(epoch.width(),
                          greedy_edge_decomposition(epoch.graph()).size())
                    << "seed " << seed << " op " << op.to_string();
            }
        }
    }
    // The sweep must actually exercise the incremental path, not just the
    // acyclic / quality-guard full rebuilds.
    EXPECT_GT(incremental_epochs, 100u);
}

TEST(Topology, ReconfigurableRunsMatchFreshSingleEpochStamps) {
    const std::vector<Graph> pool = schedule_pool(44);
    obs::MetricsRegistry metrics;
    std::uint64_t expected_transitions = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const Graph& initial = pool[seed % pool.size()];
        TopologyManager manager{Graph(initial)};
        for (const ReconfigOp& op :
             random_reconfig_schedule(initial, 2, 3000 + seed)) {
            apply(manager, op);
        }
        expected_transitions += manager.num_epochs() - 1;

        std::vector<SyncComputation> scripts;
        std::vector<std::vector<VectorTimestamp>> expected;
        for (EpochId e = 0; e < manager.num_epochs(); ++e) {
            scripts.push_back(testing::random_workload(
                manager.epoch(e).graph(), 18, 0.2, seed * 131 + e));
            OnlineTimestamper direct(manager.decomposition(e));
            expected.push_back(direct.timestamp_computation(scripts[e]));
        }

        SynchronizerOptions options;
        options.seed = 5000 + seed;
        options.latency_lo = 1;
        options.latency_hi = 4;
        options.metrics = &metrics;
        if (seed % 2 == 1) {
            // Duplicates and reordering delays are what push stale-epoch
            // frames across the barrier.
            options.faults.duplicate_probability = 0.2;
            options.faults.delay_probability = 0.25;
            options.faults.max_extra_delay = 12;
        }

        const ReconfigurableRunResult run =
            run_reconfigurable_protocol(manager, scripts, options);
        ASSERT_EQ(run.segments.size(), manager.num_epochs());
        for (EpochId e = 0; e < manager.num_epochs(); ++e) {
            const EpochSegmentResult& segment = run.segments[e];
            ASSERT_EQ(segment.epoch, e);
            ASSERT_EQ(segment.message_stamps.size(), expected[e].size());
            for (std::size_t i = 0; i < segment.message_stamps.size(); ++i) {
                // Headline property: the committed stamp equals the direct
                // Fig. 5 simulation on this epoch's topology, bit for bit.
                ASSERT_EQ(segment.message_stamps[i],
                          expected[e][segment.script_message[i]])
                    << "seed " << seed << " epoch " << e;
            }
        }
    }

    EXPECT_EQ(metrics.counter("sync_epoch_transitions").value(),
              expected_transitions);
    // The faulty half of the sweep must exercise the stale-epoch path:
    // late copies of REQs and ACKs arrive after the barrier and are
    // rejected (a stale REQ the ACK window cannot answer is dropped).
    EXPECT_GT(metrics.counter("sync_epoch_rejects").value(), 0u);
}

TEST(Topology, ExternalPoolAndStockRecycleAcrossRuns) {
    // Each process clock is rebound in place at every epoch load and the
    // network recycles packet buffers, so nothing a run recycles may leak
    // into its stamps: two same-seed runs over a reconfiguring topology
    // stamp bit-identically.
    TopologyManager manager{topology::ring(5)};
    for (const ReconfigOp& op :
         random_reconfig_schedule(topology::ring(5), 3, 97)) {
        apply(manager, op);
    }
    std::vector<SyncComputation> scripts;
    for (EpochId e = 0; e < manager.num_epochs(); ++e) {
        scripts.push_back(testing::random_workload(
            manager.epoch(e).graph(), 20, 0.1, 700 + e));
    }

    SynchronizerOptions options;
    options.seed = 4242;
    options.latency_lo = 1;
    options.latency_hi = 4;

    const ReconfigurableRunResult first =
        run_reconfigurable_protocol(manager, scripts, options);
    const ReconfigurableRunResult second =
        run_reconfigurable_protocol(manager, scripts, options);

    ASSERT_EQ(first.segments.size(), second.segments.size());
    for (std::size_t e = 0; e < first.segments.size(); ++e) {
        ASSERT_EQ(first.segments[e].message_stamps,
                  second.segments[e].message_stamps)
            << "epoch " << e << ": recycling changed the stamps";
        ASSERT_EQ(first.segments[e].script_message,
                  second.segments[e].script_message)
            << "epoch " << e;
    }
}

TEST(Topology, CrossEpochPrecedenceMatchesGroundTruthAtEveryThreadCount) {
    const std::vector<Graph> pool = schedule_pool(45);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const Graph& initial = pool[seed % pool.size()];
        TopologyManager manager{Graph(initial)};
        for (const ReconfigOp& op :
             random_reconfig_schedule(initial, 3, 4000 + seed)) {
            apply(manager, op);
        }
        std::vector<SyncComputation> scripts;
        for (EpochId e = 0; e < manager.num_epochs(); ++e) {
            scripts.push_back(testing::random_workload(
                manager.epoch(e).graph(), 14, 0.2, seed * 211 + e));
        }
        SynchronizerOptions options;
        options.seed = 6000 + seed;
        const MultiEpochTrace trace = MultiEpochTrace::from_run(
            run_reconfigurable_protocol(manager, scripts, options));
        ASSERT_EQ(trace.num_epochs(), manager.num_epochs());

        std::size_t relations = 0;
        for (const std::size_t threads : {1u, 2u, 8u}) {
            AnalysisOptions analysis;
            analysis.threads = threads;
            const Poset truth = trace.ground_truth_poset(analysis);
            EXPECT_EQ(trace.verify_against_ground_truth(truth, analysis), 0u)
                << "seed " << seed << " threads " << threads;
            const std::size_t count = truth.relation_count();
            if (threads == 1) {
                relations = count;
            } else {
                EXPECT_EQ(count, relations) << "threads " << threads;
            }
        }

        const std::size_t n = trace.num_messages();
        for (GlobalMessageId a = 0; a < n; ++a) {
            for (GlobalMessageId b = 0; b < n; b += 3) {
                if (trace.epoch_of(a) != trace.epoch_of(b)) {
                    // Barrier rule: earlier epoch always precedes, and
                    // cross-epoch concurrency is impossible.
                    EXPECT_EQ(trace.precedes(a, b),
                              trace.epoch_of(a) < trace.epoch_of(b));
                    EXPECT_FALSE(trace.concurrent(a, b));
                }
                EXPECT_EQ(trace.global_of(trace.epoch_of(b),
                                          trace.local_of(b)),
                          b);
            }
        }
    }
}

TEST(Topology, VersionOneFramesInteroperateAsEpochZero) {
    const std::vector<std::uint64_t> stamp = {3, 0, 7, 1};

    // Back-compat rule (docs/FORMATS.md): epoch 0 is spelled in the v1
    // layout, byte for byte — varint sequence, message, width and
    // components, then the checksum trailer, with no version escape.
    std::vector<std::uint8_t> v1;
    encode_epoch_frame_into(0, 5, 2, stamp, v1);
    const std::vector<std::uint8_t> spelled =
        testing::sealed({5, 2, 4, 3, 0, 7, 1});
    EXPECT_EQ(v1, spelled);

    // A pre-epoch frame decodes through the epoch-aware reader as epoch 0.
    std::vector<std::uint64_t> decoded(stamp.size(), 0);
    const FrameHeader h1 = decode_epoch_frame_into(v1, decoded);
    EXPECT_EQ(h1.sequence, 5u);
    EXPECT_EQ(h1.message, 2u);
    EXPECT_EQ(h1.epoch, 0u);
    EXPECT_EQ(decoded, stamp);

    // And the header peek classifies it without knowing the width.
    const FrameInfo p1 = peek_frame_info(v1);
    EXPECT_EQ(p1.header.epoch, 0u);
    EXPECT_EQ(p1.header.sequence, 5u);
    EXPECT_EQ(p1.version, 1u);

    // Epoch ≥ 1 takes the v2 escape; the epoch-aware readers round-trip
    // it and the peek still works against a foreign width.
    std::vector<std::uint8_t> v2;
    encode_epoch_frame_into(9, 5, 2, stamp, v2);
    EXPECT_NE(v2, v1);
    EXPECT_EQ(v2.front(), kEpochFrameMarker);
    std::fill(decoded.begin(), decoded.end(), 0);
    const FrameHeader h2 = decode_epoch_frame_into(v2, decoded);
    EXPECT_EQ(h2.epoch, 9u);
    EXPECT_EQ(decoded, stamp);
    EXPECT_EQ(peek_frame_info(v2).header.epoch, 9u);

    // Runtime interop: a single-epoch manager run (all traffic epoch 0,
    // v1 bytes on the wire) produces the same stamps as the pre-epoch
    // single-topology entry point.
    const Graph g = topology::client_server(2, 3);
    const SyncComputation script = testing::random_workload(g, 20, 0.2, 7);
    TopologyManager manager{Graph(g)};
    SynchronizerOptions options;
    options.seed = 77;
    const SynchronizerResult flat = run_rendezvous_protocol(
        manager.decomposition(0), script, options);
    const ReconfigurableRunResult epoched = run_reconfigurable_protocol(
        manager, std::span<const SyncComputation>(&script, 1), options);
    ASSERT_EQ(epoched.segments.size(), 1u);
    ASSERT_EQ(epoched.segments[0].message_stamps.size(),
              flat.message_stamps.size());
    for (std::size_t i = 0; i < flat.message_stamps.size(); ++i) {
        EXPECT_EQ(epoched.segments[0].message_stamps[i],
                  flat.message_stamps[i]);
        EXPECT_EQ(epoched.segments[0].script_message[i],
                  flat.script_message[i]);
    }
}

TEST(Topology, ScheduleGrammarParsesAppliesAndRejects) {
    const Graph star = topology::star(4);  // channels 0-1, 0-2, 0-3

    const std::vector<ReconfigOp> ops =
        parse_reconfig_schedule("addc:1:2,delc:0:3,addp:1,addp", star);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].kind, ReconfigOp::Kind::add_channel);
    EXPECT_EQ(ops[1].kind, ReconfigOp::Kind::remove_channel);
    EXPECT_EQ(ops[2].kind, ReconfigOp::Kind::add_process);
    EXPECT_EQ(ops[2].a, 1u);
    EXPECT_EQ(ops[3].kind, ReconfigOp::Kind::add_process);
    EXPECT_EQ(ops[3].a, kNoProcess);

    TopologyManager manager{Graph(star)};
    for (const ReconfigOp& op : ops) apply(manager, op);
    EXPECT_EQ(manager.num_epochs(), 5u);
    EXPECT_TRUE(manager.current().graph().has_edge(1, 2));
    EXPECT_FALSE(manager.current().graph().has_edge(0, 3));
    EXPECT_EQ(manager.current().num_processes(), 6u);

    // rand: tokens expand deterministically, to the same ops the direct
    // generator produces, and only ever to feasible ones.
    const std::vector<ReconfigOp> expanded =
        parse_reconfig_schedule("rand:5:99", star);
    const std::vector<ReconfigOp> direct =
        random_reconfig_schedule(star, 5, 99);
    ASSERT_EQ(expanded.size(), direct.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        EXPECT_EQ(expanded[i].kind, direct[i].kind);
        EXPECT_EQ(expanded[i].a, direct[i].a);
        EXPECT_EQ(expanded[i].b, direct[i].b);
    }
    TopologyManager replay{Graph(star)};
    for (const ReconfigOp& op : expanded) {
        apply(replay, op);
        EXPECT_GE(replay.current().graph().num_edges(), 1u);
    }

    EXPECT_THROW(parse_reconfig_schedule("bogus", star),
                 std::invalid_argument);
    EXPECT_THROW(parse_reconfig_schedule("addc:0", star),
                 std::invalid_argument);
    EXPECT_THROW(parse_reconfig_schedule("addc:0:9", star),
                 std::invalid_argument);
    EXPECT_THROW(parse_reconfig_schedule("addc:0:1", star),
                 std::invalid_argument);  // already open
    EXPECT_THROW(parse_reconfig_schedule("delc:1:2", star),
                 std::invalid_argument);  // not open
}

}  // namespace
}  // namespace syncts
