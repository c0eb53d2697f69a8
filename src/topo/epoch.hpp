#pragma once

#include <cstddef>
#include <memory>
#include <vector>

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
/// EdgeDecomposition) pair, and moving from epoch e to e+1 is described by
/// an explicit EpochTransition — which vector components survive (their
/// star/triangle kept the same edge set) and which are new. Within an
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

/// Everything a clock, wire, or analysis layer needs to cross one epoch
/// boundary. Produced by TopologyManager on every reconfiguration.
///
/// A transition is a global barrier: every epoch-e message precedes every
/// epoch-e' message for e < e', so no clock value crosses it. Each clock
/// is rebound to the new epoch's decomposition and starts from zero, and
/// Theorem 4 holds verbatim within the epoch. The group maps below record
/// which components kept their exact edge set, for the reports and tools
/// that compare decompositions across the boundary.
struct EpochTransition {
    EpochId from_epoch = 0;
    EpochId to_epoch = 0;

    std::shared_ptr<const EdgeDecomposition> from;
    std::shared_ptr<const EdgeDecomposition> to;

    std::size_t old_num_processes = 0;
    std::size_t new_num_processes = 0;

    /// For each new group g (index into `to`), the old group it carries
    /// its component from, or kNoGroup when the group was (re)built this
    /// epoch. Groups match when they cover exactly the same edge set.
    std::vector<GroupId> group_source;

    /// Inverse view: for each old group, the new group that carries it, or
    /// kNoGroup when its component retires at this boundary.
    std::vector<GroupId> group_target;

    /// Number of entries of group_source that are not kNoGroup.
    std::size_t preserved_groups = 0;

    /// True when the incremental re-decomposition was rejected by the
    /// quality guard (or the acyclic fast path fired) and the whole graph
    /// was re-decomposed by default_decomposition.
    bool full_rebuild = false;
};

}  // namespace syncts
