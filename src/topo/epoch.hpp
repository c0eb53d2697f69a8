#pragma once

#include <cstddef>
#include <memory>

#include "common/ids.hpp"
#include "decomp/edge_decomposition.hpp"

/// \file epoch.hpp
/// Epoch-versioned topology: the value types behind dynamic channel and
/// process reconfiguration.
///
/// The paper fixes G = (V, E) and its star/triangle edge decomposition
/// once, before the computation starts (Section 3.2: "we assume that
/// information about edge decomposition is known by all processes"). A
/// production system reconfigures under live traffic, so we version the
/// topology in *epochs*: each epoch is an immutable (Graph,
/// EdgeDecomposition) pair, and moving from epoch e to e+1 is summarized
/// by an EpochTransition — how many vector components survive (their
/// star/triangle kept the same edge set) and how many are new. Within an
/// epoch the paper's theory applies unchanged (Theorem 4: m1 ↦ m2 ⟺
/// v(m1) < v(m2)); across epochs precedence is decided by the transition
/// itself, because a reconfiguration is a global barrier: every epoch-e
/// message precedes every epoch-e' message for e < e' (see
/// docs/TOPOLOGY.md).

namespace syncts {

/// One immutable topology version. The graph is reachable through the
/// decomposition (EdgeDecomposition owns a copy of its graph).
struct Epoch {
    EpochId id = 0;
    std::shared_ptr<const EdgeDecomposition> decomposition;

    const Graph& graph() const { return decomposition->graph(); }

    /// Timestamp width d of the online algorithm in this epoch.
    std::size_t width() const noexcept { return decomposition->size(); }

    std::size_t num_processes() const noexcept {
        return decomposition->graph().num_vertices();
    }
};

/// What one reconfiguration did to the decomposition, as the reports
/// read it. Produced by TopologyManager on every reconfiguration.
///
/// A transition is a global barrier: every epoch-e message precedes every
/// epoch-e' message for e < e', so no clock value crosses it. Each clock
/// is rebound to the new epoch's decomposition and starts from zero, and
/// Theorem 4 holds verbatim within the epoch. Both epochs stay readable
/// through TopologyManager::epoch, so the record keeps only the counts
/// that the barrier trace event, syncts_topo and the topo_* counters
/// publish.
struct EpochTransition {
    /// Groups of the new epoch that cover exactly the edge set of a group
    /// of the previous one.
    std::size_t preserved_groups = 0;

    /// True when the incremental re-decomposition was rejected by the
    /// quality guard (or the acyclic fast path fired) and the whole graph
    /// was re-decomposed by default_decomposition.
    bool full_rebuild = false;
};

}  // namespace syncts
