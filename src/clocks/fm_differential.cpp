#include "clocks/fm_differential.hpp"

#include "common/check.hpp"
#include "common/codec.hpp"

namespace syncts {

FmDifferentialTimestamper::FmDifferentialTimestamper(
    std::size_t num_processes)
    : n_(num_processes),
      clocks_(num_processes, VectorTimestamp(num_processes)),
      last_sent_(num_processes * num_processes) {}

void FmDifferentialTimestamper::account_direction(ProcessId from,
                                                  ProcessId to) {
    VectorTimestamp& snapshot = last_sent_[from * n_ + to];
    if (snapshot.width() == 0) snapshot = VectorTimestamp(n_);

    std::size_t entries = 0;
    std::size_t bytes = 0;
    const auto& current = clocks_[from];
    for (std::size_t k = 0; k < n_; ++k) {
        if (current[k] == snapshot[k]) continue;
        ++entries;
        bytes += codec::varint_size(k) + codec::varint_size(current[k]);
    }
    bytes += codec::varint_size(entries);  // count header
    stats_.entries_sent += entries;
    stats_.wire_bytes += bytes;
    snapshot = current;
}

VectorTimestamp FmDifferentialTimestamper::timestamp_message(
    ProcessId sender, ProcessId receiver) {
    SYNCTS_REQUIRE(sender < n_ && receiver < n_, "process id out of range");
    SYNCTS_REQUIRE(sender != receiver, "no self-messages");

    // Message carries sender's diff; acknowledgement carries receiver's
    // (both relative to the previous exchange on this ordered pair).
    account_direction(sender, receiver);
    account_direction(receiver, sender);

    VectorTimestamp merged = clocks_[sender];
    merged.join(clocks_[receiver]);
    merged.increment(sender);
    merged.increment(receiver);
    clocks_[sender] = merged;
    clocks_[receiver] = merged;
    ++stats_.messages;
    return merged;
}

std::vector<VectorTimestamp> FmDifferentialTimestamper::timestamp_computation(
    const SyncComputation& computation) {
    SYNCTS_REQUIRE(computation.num_processes() == n_,
                   "computation size does not match the timestamper");
    std::vector<VectorTimestamp> stamps;
    stamps.reserve(computation.num_messages());
    for (const SyncMessage& m : computation.messages()) {
        stamps.push_back(timestamp_message(m.sender, m.receiver));
    }
    return stamps;
}

}  // namespace syncts
