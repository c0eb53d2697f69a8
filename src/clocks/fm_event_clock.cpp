#include "clocks/fm_event_clock.hpp"

namespace syncts {

FmEventTimestamps fm_event_timestamps(const SyncComputation& computation) {
    const std::size_t n = computation.num_processes();
    std::vector<VectorTimestamp> clocks(n, VectorTimestamp(n));

    FmEventTimestamps result;
    result.message_stamps.resize(computation.num_messages());
    result.internal_stamps.resize(computation.num_internal_events());

    for_each_instant(
        computation,
        [&](ProcessId p, InternalId i) {
            clocks[p].increment(p);
            result.internal_stamps[i] = clocks[p];
        },
        [&](const SyncMessage& m) {
            // Shared rendezvous event: merge both vectors, tick both
            // components.
            VectorTimestamp merged = clocks[m.sender];
            merged.join(clocks[m.receiver]);
            merged.increment(m.sender);
            merged.increment(m.receiver);
            clocks[m.sender] = merged;
            clocks[m.receiver] = merged;
            result.message_stamps[m.id] = merged;
        });
    return result;
}

}  // namespace syncts
