#include "clocks/online_clock.hpp"

#include <algorithm>
#include <utility>

#include "common/ts_kernels.hpp"
#include "decomp/cover_decomposer.hpp"

namespace syncts {

OnlineProcessClock::OnlineProcessClock(
    ProcessId self, std::shared_ptr<const EdgeDecomposition> decomposition) {
    rebind(self, std::move(decomposition));
}

void OnlineProcessClock::rebind(
    ProcessId self, std::shared_ptr<const EdgeDecomposition> decomposition) {
    SYNCTS_REQUIRE(decomposition != nullptr, "decomposition must be set");
    SYNCTS_REQUIRE(decomposition->complete(),
                   "decomposition must cover every channel");
    const Graph& graph = decomposition->graph();
    SYNCTS_REQUIRE(self < graph.num_vertices(),
                   "process id outside the topology");
    self_ = self;
    decomposition_ = std::move(decomposition);
    if (vector_.width() == decomposition_->size()) {
        ts::zero(vector_.mutable_components());
    } else {
        vector_ = VectorTimestamp(decomposition_->size());
    }
    // Sized by the largest neighbour id, not by N: a peer past the end
    // reads as "no channel", exactly as a kNoGroup entry does.
    const auto neighbors = graph.neighbors(self_);
    const std::size_t table_size =
        neighbors.empty()
            ? 0
            : 1 + std::size_t{*std::ranges::max_element(neighbors)};
    group_by_peer_.assign(table_size, kNoGroup);
    for (const ProcessId peer : neighbors) {
        group_by_peer_[peer] = decomposition_->group_of(self_, peer);
    }
}

void OnlineProcessClock::restore_from(std::span<const std::uint64_t> state) {
    SYNCTS_REQUIRE(state.size() == vector_.width(),
                   "restored state width does not match the clock width");
    ts::copy(vector_.mutable_components(), state);
}

GroupId OnlineProcessClock::group_with(ProcessId peer) const {
    SYNCTS_REQUIRE(peer < group_by_peer_.size() &&
                       group_by_peer_[peer] != kNoGroup,
                   "no channel between these processes in the topology");
    return group_by_peer_[peer];
}

void OnlineProcessClock::prepare_send_into(
    std::span<std::uint64_t> out) const {
    SYNCTS_REQUIRE(out.size() == vector_.width(),
                   "output span width does not match the clock width");
    ts::copy(out, vector_.components());
}

void OnlineProcessClock::on_receive_into(
    ProcessId sender, std::span<const std::uint64_t> piggybacked,
    std::span<std::uint64_t> ack_out, std::span<std::uint64_t> stamp_out) {
    SYNCTS_REQUIRE(ack_out.size() == vector_.width() &&
                       stamp_out.size() == vector_.width(),
                   "output span width does not match the clock width");
    const GroupId group = group_with(sender);
    SYNCTS_REQUIRE(piggybacked.size() == vector_.width(),
                   "cannot join timestamps of different widths");
    // Line (04): the acknowledgement carries the local vector before the
    // merge — the sender performs the same merge with it.
    ts::rendezvous_side(vector_.mutable_components(), piggybacked, group,
                        ack_out, stamp_out);
}

void OnlineProcessClock::on_ack_into(
    ProcessId receiver, std::span<const std::uint64_t> acknowledgement,
    std::span<std::uint64_t> stamp_out) {
    SYNCTS_REQUIRE(stamp_out.size() == vector_.width(),
                   "output span width does not match the clock width");
    const GroupId group = group_with(receiver);
    SYNCTS_REQUIRE(acknowledgement.size() == vector_.width(),
                   "cannot join timestamps of different widths");
    ts::rendezvous_side(vector_.mutable_components(), acknowledgement, group,
                        {}, stamp_out);
}

void OnlineProcessClock::rendezvous_into(OnlineProcessClock& receiver,
                                         std::span<std::uint64_t> out) {
    const GroupId group = group_with(receiver.self_);
    SYNCTS_REQUIRE(self_ < receiver.group_by_peer_.size() &&
                       receiver.group_by_peer_[self_] == group,
                   "sender and receiver map the channel to different groups");
    SYNCTS_REQUIRE(receiver.vector_.width() == vector_.width() &&
                       out.size() == vector_.width(),
                   "output span width does not match the clock width");
    const std::span<std::uint64_t> mine = vector_.mutable_components();
    const std::span<std::uint64_t> theirs =
        receiver.vector_.mutable_components();
    ts::rendezvous(mine, theirs, group, out);
    SYNCTS_ENSURE(ts::equal(mine, theirs),
                  "sender and receiver disagree on the message timestamp");
}

OnlineTimestamper::OnlineTimestamper(
    std::shared_ptr<const EdgeDecomposition> decomposition)
    : decomposition_(std::move(decomposition)) {
    SYNCTS_REQUIRE(decomposition_ != nullptr, "decomposition must be set");
    const std::size_t n = decomposition_->graph().num_vertices();
    clocks_.reserve(n);
    for (ProcessId p = 0; p < n; ++p) {
        clocks_.emplace_back(p, decomposition_);
    }
    piggyback_.resize(width());
    ack_.resize(width());
    echo_.resize(width());
}

const OnlineProcessClock& OnlineTimestamper::clock(ProcessId p) const {
    SYNCTS_REQUIRE(p < clocks_.size(), "process id out of range");
    return clocks_[p];
}

void OnlineTimestamper::attach_metrics(obs::MetricsRegistry& registry) {
    metric_stamps_ = &registry.counter("clock_online_stamps");
    metric_internal_ = &registry.counter("clock_online_internal_ticks");
    registry.gauge("clock_width").set(static_cast<std::int64_t>(width()));
}

void OnlineTimestamper::check_rendezvous(ProcessId sender,
                                         ProcessId receiver) const {
    SYNCTS_REQUIRE(sender < clocks_.size() && receiver < clocks_.size(),
                   "process id out of range");
    SYNCTS_REQUIRE(sender != receiver, "no self-messages");
    (void)clocks_[receiver].group_with(sender);
}

void OnlineTimestamper::run_hooks(ProcessId sender, ProcessId receiver,
                                  std::span<std::uint64_t> stamp_out) {
    OnlineProcessClock& snd = clocks_[sender];
    snd.prepare_send_into(piggyback_);
    clocks_[receiver].on_receive_into(sender, piggyback_, ack_, stamp_out);
    snd.on_ack_into(receiver, ack_, echo_);
    SYNCTS_ENSURE(ts::equal(stamp_out, echo_),
                  "sender and receiver disagree on the message timestamp");
}

void OnlineTimestamper::stamp_into(ProcessId sender, ProcessId receiver,
                                   std::span<std::uint64_t> out) {
    SYNCTS_REQUIRE(sender < clocks_.size() && receiver < clocks_.size(),
                   "process id out of range");
    SYNCTS_REQUIRE(sender != receiver, "no self-messages");
    clocks_[sender].rendezvous_into(clocks_[receiver], out);
    if (metric_stamps_ != nullptr) metric_stamps_->inc();
}

TsHandle OnlineTimestamper::timestamp_message(ProcessId sender,
                                              ProcessId receiver,
                                              TimestampArena& arena) {
    SYNCTS_REQUIRE(arena.width() == width(),
                   "arena width does not match the engine width");
    check_rendezvous(sender, receiver);
    const TsHandle h = arena.allocate();
    run_hooks(sender, receiver, arena.span(h));
    if (metric_stamps_ != nullptr) metric_stamps_->inc();
    return h;
}

VectorTimestamp OnlineTimestamper::timestamp_message(ProcessId sender,
                                                     ProcessId receiver) {
    check_rendezvous(sender, receiver);
    VectorTimestamp stamp(width());
    run_hooks(sender, receiver, stamp.mutable_components());
    return stamp;
}

std::vector<VectorTimestamp> OnlineTimestamper::timestamp_computation(
    const SyncComputation& computation) {
    std::vector<VectorTimestamp> stamps;
    stamps.reserve(computation.num_messages());
    for (const SyncMessage& m : computation.messages()) {
        stamps.push_back(timestamp_message(m.sender, m.receiver));
    }
    return stamps;
}

std::vector<TsHandle> OnlineTimestamper::stamp_messages(
    const SyncComputation& computation, TimestampArena& arena) {
    SYNCTS_REQUIRE(computation.num_processes() == num_processes(),
                   "computation size does not match the engine");
    SYNCTS_REQUIRE(arena.width() == width(),
                   "arena width does not match the engine width");
    std::vector<TsHandle> stamps(computation.num_messages(), kNoTimestamp);
    for_each_instant(
        computation,
        [&](ProcessId, InternalId) {
            if (metric_internal_ != nullptr) metric_internal_->inc();
        },
        [&](const SyncMessage& m) {
            stamps[m.id] = timestamp_message(m.sender, m.receiver, arena);
        });
    return stamps;
}

std::vector<VectorTimestamp> online_timestamps(
    const SyncComputation& computation) {
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(computation.topology()));
    OnlineTimestamper timestamper(std::move(decomposition));
    return timestamper.timestamp_computation(computation);
}

}  // namespace syncts
