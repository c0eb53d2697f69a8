#include "core/sync_system.hpp"

#include <utility>

#include "common/check.hpp"
#include "core/precedence_index.hpp"
#include "core/timestamped_trace.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"

namespace syncts {

namespace {

EdgeDecomposition make_decomposition(const Graph& topology,
                                     DecompositionStrategy strategy) {
    switch (strategy) {
        case DecompositionStrategy::automatic:
            return default_decomposition(topology);
        case DecompositionStrategy::greedy:
            return greedy_edge_decomposition(topology);
        case DecompositionStrategy::approx_cover:
            return approx_cover_decomposition(topology);
        case DecompositionStrategy::exact_cover:
            return exact_cover_decomposition(topology);
    }
    throw std::invalid_argument("unknown decomposition strategy");
}

}  // namespace

SyncSystem::SyncSystem(Graph topology, DecompositionStrategy strategy)
    : decomposition_(std::make_shared<const EdgeDecomposition>(
          make_decomposition(topology, strategy))) {}

SyncSystem::SyncSystem(EdgeDecomposition decomposition)
    : decomposition_(std::make_shared<const EdgeDecomposition>(
          std::move(decomposition))) {
    SYNCTS_REQUIRE(decomposition_->complete(),
                   "decomposition must cover every channel");
}

std::size_t SyncSystem::num_processes() const noexcept {
    return decomposition_->graph().num_vertices();
}

OnlineTimestamper SyncSystem::make_timestamper() const {
    return OnlineTimestamper(decomposition_);
}

TimestampedNetwork SyncSystem::make_network() const {
    return TimestampedNetwork(decomposition_);
}

std::pair<SyncSystem, ProcessId> SyncSystem::with_leaf_process(
    std::span<const GroupId> star_groups) const {
    EdgeDecomposition grown = *decomposition_;
    const ProcessId newcomer = grown.add_leaf_process(star_groups);
    return {SyncSystem(std::move(grown)), newcomer};
}

TimestampedTrace SyncSystem::analyze(const SyncComputation& computation) const {
    SYNCTS_REQUIRE(
        computation.num_processes() == num_processes(),
        "computation and system disagree on the number of processes");
    OnlineTimestamper timestamper = make_timestamper();
    // Replay straight into the trace's arena: slot m = message m (the
    // online clock stamps messages only, in message order).
    TimestampArena arena(timestamper.width(), computation.num_messages());
    timestamper.stamp_messages(computation, arena);
    return TimestampedTrace(computation, std::move(arena));
}

PrecedenceIndex SyncSystem::make_precedence_index(
    const TimestampedTrace& trace) const {
    SYNCTS_REQUIRE(trace.width() == width(),
                   "trace and system disagree on the timestamp width");
    return PrecedenceIndex(trace);
}

}  // namespace syncts
