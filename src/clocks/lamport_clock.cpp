#include "clocks/lamport_clock.hpp"

#include <algorithm>

namespace syncts {

LamportTimestamps lamport_timestamps(const SyncComputation& computation) {
    const std::size_t n = computation.num_processes();
    std::vector<std::uint64_t> clocks(n, 0);

    LamportTimestamps result;
    result.message_stamps.resize(computation.num_messages());
    result.internal_stamps.resize(computation.num_internal_events());

    for_each_instant(
        computation,
        [&](ProcessId p, InternalId i) {
            result.internal_stamps[i] = ++clocks[p];
        },
        [&](const SyncMessage& m) {
            const std::uint64_t stamp =
                std::max(clocks[m.sender], clocks[m.receiver]) + 1;
            clocks[m.sender] = stamp;
            clocks[m.receiver] = stamp;
            result.message_stamps[m.id] = stamp;
        });
    return result;
}

}  // namespace syncts
