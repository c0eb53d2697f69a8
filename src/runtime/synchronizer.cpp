#include "runtime/synchronizer.hpp"

#include <span>
#include <utility>

#include "common/check.hpp"
#include "runtime/reconfig_runtime.hpp"
#include "topo/topology_manager.hpp"

namespace syncts {

SynchronizerResult run_rendezvous_protocol(
    std::shared_ptr<const EdgeDecomposition> decomposition,
    const SyncComputation& script, const SynchronizerOptions& options) {
    SYNCTS_REQUIRE(decomposition != nullptr, "decomposition must be set");
    SYNCTS_REQUIRE(decomposition->graph().num_vertices() ==
                       script.num_processes(),
                   "script and decomposition disagree on process count");
    // One-epoch topology sharing the caller's decomposition, and the
    // caller's script as its one-element span; the reconfigurable
    // protocol at epoch 0 speaks the v1 wire layout and replays the
    // script exactly as the pre-epoch synchronizer did.
    const TopologyManager topology(std::move(decomposition));
    ReconfigurableRunResult multi = run_reconfigurable_protocol(
        topology, std::span<const SyncComputation>(&script, 1), options);
    SYNCTS_ENSURE(multi.segments.size() == 1,
                  "single-epoch run produced multiple segments");
    EpochSegmentResult& segment = multi.segments.front();
    return SynchronizerResult{
        .computation = std::move(segment.computation),
        .message_stamps = std::move(segment.message_stamps),
        .script_message = std::move(segment.script_message),
        .virtual_duration = multi.virtual_duration,
        .packets = multi.packets,
        .network_faults = multi.network_faults,
        .protocol = multi.protocol};
}

}  // namespace syncts
