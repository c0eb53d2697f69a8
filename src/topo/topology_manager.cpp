#include "topo/topology_manager.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "decomp/cover_decomposer.hpp"
#include "topo/incremental.hpp"

namespace syncts {

namespace {

/// Structural component matching: two groups carry the same component iff
/// they cover exactly the same edge set (the root of a two-edge star is a
/// labeling artifact; the channels-to-component map is what the clocks
/// consume). Returns, for each group of `to`, the matching group of `from`
/// or kNoGroup.
std::vector<GroupId> match_groups(const EdgeDecomposition& from,
                                  const EdgeDecomposition& to) {
    std::map<std::vector<Edge>, GroupId> by_edges;
    for (GroupId g = 0; g < from.size(); ++g) {
        std::vector<Edge> key = from.group(g).edges;
        std::sort(key.begin(), key.end());
        by_edges.emplace(std::move(key), g);
    }
    std::vector<GroupId> source(to.size(), kNoGroup);
    for (GroupId g = 0; g < to.size(); ++g) {
        std::vector<Edge> key = to.group(g).edges;
        std::sort(key.begin(), key.end());
        if (auto it = by_edges.find(key); it != by_edges.end()) {
            source[g] = it->second;
        }
    }
    return source;
}

/// Rebuilds `previous`'s groups verbatim over `next` (same edge set,
/// possibly more vertices) — the pure add_process path, where no component
/// retires.
EdgeDecomposition carry_decomposition(const EdgeDecomposition& previous,
                                      const Graph& next) {
    EdgeDecomposition out(next);
    for (const EdgeGroup& group : previous.groups()) {
        if (group.kind == GroupKind::star) {
            out.add_star(group.root, group.edges);
        } else {
            out.add_triangle(group.triangle);
        }
    }
    SYNCTS_ENSURE(out.complete(), "carried decomposition must stay complete");
    return out;
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
    transition.from_epoch = previous.id;
    transition.to_epoch = previous.id + 1;
    transition.from = previous.decomposition;
    transition.to = decomposition;
    transition.old_num_processes = previous.num_processes();
    transition.new_num_processes = next.num_vertices();
    transition.group_source = match_groups(*previous.decomposition,
                                           *decomposition);
    transition.group_target.assign(previous.decomposition->size(), kNoGroup);
    for (GroupId g = 0; g < transition.group_source.size(); ++g) {
        if (transition.group_source[g] != kNoGroup) {
            transition.group_target[transition.group_source[g]] = g;
            ++transition.preserved_groups;
        }
    }
    transition.full_rebuild = rebuilt_from_scratch;

    if (epochs_counter_ != nullptr) epochs_counter_->inc();
    if (groups_preserved_ != nullptr) {
        groups_preserved_->inc(transition.preserved_groups);
    }
    if (groups_rebuilt_ != nullptr) {
        groups_rebuilt_->inc(decomposition->size() -
                             transition.preserved_groups);
    }

    epochs_.push_back(Epoch{transition.to_epoch, decomposition});
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
