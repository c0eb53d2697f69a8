#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "topo/epoch.hpp"

/// \file topology_manager.hpp
/// Owner of the epoch sequence: the one mutable object in the otherwise
/// immutable topology pipeline.
///
/// A TopologyManager starts at epoch 0 with an initial (Graph,
/// EdgeDecomposition) pair and turns every reconfiguration —
/// add_channel / remove_channel / add_process — into the next immutable
/// epoch plus an EpochTransition describing exactly which vector
/// components survive. Every decomposition it builds comes from the
/// library's one selection, default_decomposition: epoch 0, the
/// incremental patch of topo/incremental.hpp and its full-rebuild fallback
/// under the quality guard. So the Theorem 6 bound holds in every epoch,
/// and on 2-colourable graphs each rebuild is optimal. Consumers
/// hold shared_ptr<const EdgeDecomposition> snapshots; nothing already
/// handed out is ever mutated.

namespace syncts {

class TopologyManager {
public:
    /// Epoch 0 = default_decomposition(`initial`): the library's selection,
    /// optimal (d = β(G)) on 2-colourable graphs.
    explicit TopologyManager(Graph initial);

    /// Epoch 0 = a caller-provided complete decomposition (e.g. the exact
    /// cover decomposer, or one read back by decomp_io).
    explicit TopologyManager(EdgeDecomposition initial);

    /// Epoch 0 = a caller's shared complete decomposition, held without
    /// a copy (it is immutable, like every epoch's).
    explicit TopologyManager(
        std::shared_ptr<const EdgeDecomposition> initial);

    std::size_t num_epochs() const noexcept { return epochs_.size(); }
    EpochId current_epoch_id() const noexcept {
        return epochs_.back().id;
    }

    const Epoch& epoch(EpochId id) const;
    const Epoch& current() const noexcept { return epochs_.back(); }

    std::shared_ptr<const EdgeDecomposition> decomposition(EpochId id) const {
        return epoch(id).decomposition;
    }
    std::shared_ptr<const EdgeDecomposition> current_decomposition() const {
        return epochs_.back().decomposition;
    }

    /// Largest process count over all epochs — the engine-table size a
    /// multi-epoch runtime provisions up front (docs/MEMORY.md).
    std::size_t max_num_processes() const noexcept;

    /// The transition that produced epoch `id` (id ≥ 1).
    const EpochTransition& transition_into(EpochId id) const;
    std::span<const EpochTransition> transitions() const noexcept {
        return transitions_;
    }

    /// Opens the channel {a, b}; starts the next epoch. Throws when the
    /// channel already exists or an endpoint is out of range.
    const EpochTransition& add_channel(ProcessId a, ProcessId b);

    /// Closes the channel {a, b}; starts the next epoch. Throws when the
    /// channel does not exist.
    const EpochTransition& remove_channel(ProcessId a, ProcessId b);

    /// Adds an isolated process (no channels yet); starts the next epoch.
    /// Every existing group survives — the decomposition is unchanged, only
    /// the process space grows. The new process id is
    /// new_num_processes - 1 of the returned transition.
    const EpochTransition& add_process();

    /// Adds a process with one channel to `attach_to`; starts the next
    /// epoch in a single transition (the common "client joins" case).
    const EpochTransition& add_process(ProcessId attach_to);

    /// Registers topo_* counters and gauges (topo_epochs,
    /// topo_channels_added, topo_channels_removed, topo_processes_added,
    /// topo_groups_preserved, topo_groups_rebuilt, topo_full_rebuilds,
    /// topo_width, topo_processes). The registry must outlive the
    /// manager.
    void attach_metrics(obs::MetricsRegistry& registry);

private:
    const EpochTransition& advance(Graph next, std::span<const Edge> changed,
                                   bool pure_process_add);
    void publish_gauges() noexcept;

    std::vector<Epoch> epochs_;
    std::vector<EpochTransition> transitions_;

    obs::Counter* epochs_counter_ = nullptr;
    obs::Counter* channels_added_ = nullptr;
    obs::Counter* channels_removed_ = nullptr;
    obs::Counter* processes_added_ = nullptr;
    obs::Counter* groups_preserved_ = nullptr;
    obs::Counter* groups_rebuilt_ = nullptr;
    obs::Counter* full_rebuilds_ = nullptr;
    obs::Gauge* width_gauge_ = nullptr;
    obs::Gauge* processes_gauge_ = nullptr;
};

}  // namespace syncts
