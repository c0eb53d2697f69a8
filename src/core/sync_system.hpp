#pragma once

#include <memory>
#include <span>
#include <utility>

#include "clocks/online_clock.hpp"
#include "decomp/edge_decomposition.hpp"
#include "graph/graph.hpp"
#include "runtime/network.hpp"

/// \file sync_system.hpp
/// The library's front door. A SyncSystem bundles a communication topology
/// with an edge decomposition and hands out the pieces a user needs:
/// simulators (OnlineTimestamper), real networks (TimestampedNetwork) and
/// post-hoc analysis (TimestampedTrace via analyze()).
///
/// Typical use:
///     auto system = SyncSystem(topology::client_server(2, 100));
///     auto network = system.make_network();
///     ... run programs ...
/// or, for recorded computations:
///     auto trace = system.analyze(computation);
///     trace.precedes(m1, m2);

namespace syncts {

class TimestampedTrace;

/// Strategy for picking the edge decomposition.
enum class DecompositionStrategy {
    /// The library default (default_decomposition): trivial N−2 on
    /// complete graphs, else Fig. 7 greedy unless a matching or König
    /// cover gives strictly fewer stars; optimal on 2-colourable graphs.
    automatic,
    /// Fig. 7 greedy always.
    greedy,
    /// Star-only via the 2-approximate vertex cover.
    approx_cover,
    /// Star-only via the exact minimum vertex cover (exponential; small
    /// graphs only).
    exact_cover,
};

class SyncSystem {
public:
    /// Builds the system, computing a decomposition of `topology`.
    explicit SyncSystem(
        Graph topology,
        DecompositionStrategy strategy = DecompositionStrategy::automatic);

    /// Adopts a precomputed decomposition.
    explicit SyncSystem(EdgeDecomposition decomposition);

    std::size_t num_processes() const noexcept;

    /// Timestamp width d — the paper's headline metric.
    std::size_t width() const noexcept { return decomposition_->size(); }

    const Graph& topology() const noexcept {
        return decomposition_->graph();
    }
    const EdgeDecomposition& decomposition() const noexcept {
        return *decomposition_;
    }
    std::shared_ptr<const EdgeDecomposition> decomposition_ptr()
        const noexcept {
        return decomposition_;
    }

    /// Fresh simulator-facing timestamper (Fig. 5 over recorded messages).
    OnlineTimestamper make_timestamper() const;

    /// Fresh threaded rendezvous network sharing this decomposition.
    TimestampedNetwork make_network() const;

    /// Timestamps a recorded computation and packages it for queries.
    /// The computation's topology must equal this system's.
    TimestampedTrace analyze(const SyncComputation& computation) const;

    /// Grown copy: a new process joins the listed star groups (e.g. a new
    /// client connecting to every server's star). The timestamp width is
    /// unchanged — the paper's Section 3.3 scaling claim — so timestamps
    /// from before and after the growth remain directly comparable.
    /// Returns the new system and the newcomer's process id.
    std::pair<SyncSystem, ProcessId> with_leaf_process(
        std::span<const GroupId> star_groups) const;

private:
    std::shared_ptr<const EdgeDecomposition> decomposition_;
};

}  // namespace syncts
