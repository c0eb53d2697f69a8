#include "topo/topology_manager.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.hpp"
#include "decomp/cover_decomposer.hpp"
#include "topo/incremental.hpp"

namespace syncts {

namespace {

/// Structural component matching: two groups carry the same component iff
/// they cover exactly the same edge set (the root of a two-edge star is a
/// labeling artifact; the channels-to-component map is what the clocks
/// consume). Returns how many groups of `to` match a group of `from`.
std::size_t match_groups(const EdgeDecomposition& from,
                         const EdgeDecomposition& to) {
    std::set<std::vector<Edge>> old_sets;
    for (const EdgeGroup& group : from.groups()) {
        std::vector<Edge> key = group.edges;
        std::sort(key.begin(), key.end());
        old_sets.insert(std::move(key));
    }
    std::size_t matched = 0;
    for (const EdgeGroup& group : to.groups()) {
        std::vector<Edge> key = group.edges;
        std::sort(key.begin(), key.end());
        matched += old_sets.count(key);
    }
    return matched;
}

Graph copy_graph_with(const Graph& g, std::size_t extra_vertices,
                      std::span<const Edge> skip, std::span<const Edge> add) {
    Graph next(g.num_vertices() + extra_vertices);
    for (const Edge& e : g.edges()) {
        if (std::find(skip.begin(), skip.end(), e) == skip.end()) {
            next.add_edge(e.u, e.v);
        }
    }
    for (const Edge& e : add) next.add_edge(e.u, e.v);
    return next;
}

}  // namespace

TopologyManager::TopologyManager(Graph initial)
    : TopologyManager(default_decomposition(initial)) {}

TopologyManager::TopologyManager(EdgeDecomposition initial)
    : TopologyManager(
          std::make_shared<const EdgeDecomposition>(std::move(initial))) {}

TopologyManager::TopologyManager(
    std::shared_ptr<const EdgeDecomposition> initial) {
    SYNCTS_REQUIRE(initial != nullptr, "decomposition must be set");
    SYNCTS_REQUIRE(initial->complete(),
                   "epoch 0 needs a complete decomposition");
    epochs_.push_back(Epoch{0, std::move(initial)});
}

const Epoch& TopologyManager::epoch(EpochId id) const {
    SYNCTS_REQUIRE(id < epochs_.size(), "epoch id out of range");
    return epochs_[id];
}

std::size_t TopologyManager::max_num_processes() const noexcept {
    std::size_t n = 0;
    for (const Epoch& e : epochs_) n = std::max(n, e.num_processes());
    return n;
}

const EpochTransition& TopologyManager::transition_into(EpochId id) const {
    SYNCTS_REQUIRE(id >= 1 && id < epochs_.size(),
                   "no transition into that epoch");
    return transitions_[id - 1];
}

const EpochTransition& TopologyManager::add_channel(ProcessId a, ProcessId b) {
    const Graph& g = current().graph();
    SYNCTS_REQUIRE(a < g.num_vertices() && b < g.num_vertices(),
                   "add_channel endpoint out of range");
    SYNCTS_REQUIRE(!g.has_edge(a, b), "channel already exists");
    const Edge added[] = {Edge::make(a, b)};
    if (channels_added_ != nullptr) channels_added_->inc();
    return advance(copy_graph_with(g, 0, {}, added), added, false);
}

const EpochTransition& TopologyManager::remove_channel(ProcessId a,
                                                       ProcessId b) {
    const Graph& g = current().graph();
    SYNCTS_REQUIRE(g.has_edge(a, b), "channel does not exist");
    const Edge removed[] = {Edge::make(a, b)};
    if (channels_removed_ != nullptr) channels_removed_->inc();
    return advance(copy_graph_with(g, 0, removed, {}), removed, false);
}

const EpochTransition& TopologyManager::add_process() {
    const Graph& g = current().graph();
    if (processes_added_ != nullptr) processes_added_->inc();
    return advance(copy_graph_with(g, 1, {}, {}), {}, true);
}

const EpochTransition& TopologyManager::add_process(ProcessId attach_to) {
    const Graph& g = current().graph();
    SYNCTS_REQUIRE(attach_to < g.num_vertices(),
                   "add_process attach point out of range");
    const ProcessId fresh = static_cast<ProcessId>(g.num_vertices());
    const Edge added[] = {Edge::make(attach_to, fresh)};
    if (processes_added_ != nullptr) processes_added_->inc();
    if (channels_added_ != nullptr) channels_added_->inc();
    return advance(copy_graph_with(g, 1, {}, added), added, false);
}

const EpochTransition& TopologyManager::advance(Graph next,
                                                std::span<const Edge> changed,
                                                bool pure_process_add) {
    const Epoch& previous = epochs_.back();

    bool rebuilt_from_scratch = false;
    EdgeDecomposition decomposed = [&] {
        if (pure_process_add) {
            return carry_decomposition(*previous.decomposition, next);
        }
        IncrementalResult result =
            incremental_redecompose(*previous.decomposition, next, changed);
        rebuilt_from_scratch = result.full_rebuild;
        if (result.full_rebuild && full_rebuilds_ != nullptr) {
            full_rebuilds_->inc();
        }
        return std::move(result.decomposition);
    }();

    auto decomposition =
        std::make_shared<const EdgeDecomposition>(std::move(decomposed));

    EpochTransition transition;
    transition.preserved_groups =
        match_groups(*previous.decomposition, *decomposition);
    transition.full_rebuild = rebuilt_from_scratch;

    if (epochs_counter_ != nullptr) epochs_counter_->inc();
    if (groups_preserved_ != nullptr) {
        groups_preserved_->inc(transition.preserved_groups);
    }
    if (groups_rebuilt_ != nullptr) {
        groups_rebuilt_->inc(decomposition->size() -
                             transition.preserved_groups);
    }

    epochs_.push_back(Epoch{previous.id + 1, decomposition});
    transitions_.push_back(std::move(transition));
    publish_gauges();
    return transitions_.back();
}

void TopologyManager::attach_metrics(obs::MetricsRegistry& registry) {
    epochs_counter_ = &registry.counter("topo_epochs");
    channels_added_ = &registry.counter("topo_channels_added");
    channels_removed_ = &registry.counter("topo_channels_removed");
    processes_added_ = &registry.counter("topo_processes_added");
    groups_preserved_ = &registry.counter("topo_groups_preserved");
    groups_rebuilt_ = &registry.counter("topo_groups_rebuilt");
    full_rebuilds_ = &registry.counter("topo_full_rebuilds");
    width_gauge_ = &registry.gauge("topo_width");
    processes_gauge_ = &registry.gauge("topo_processes");
    publish_gauges();
}

void TopologyManager::publish_gauges() noexcept {
    if (width_gauge_ != nullptr) {
        width_gauge_->set(static_cast<std::int64_t>(current().width()));
    }
    if (processes_gauge_ != nullptr) {
        processes_gauge_->set(
            static_cast<std::int64_t>(current().num_processes()));
    }
}

}  // namespace syncts
