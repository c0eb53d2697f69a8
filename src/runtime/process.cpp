#include "runtime/process.hpp"

#include <span>
#include <utility>

#include "common/ts_kernels.hpp"
#include "runtime/network.hpp"

namespace syncts {

ProcessContext::ProcessContext(
    ProcessId self, TimestampedNetwork& network,
    std::shared_ptr<const EdgeDecomposition> decomposition)
    : network_(network),
      clock_(self, std::move(decomposition)),
      ack_(clock_.width()) {}

std::size_t ProcessContext::num_processes() const noexcept {
    return network_.num_processes();
}

VectorTimestamp ProcessContext::send(ProcessId to, std::string payload) {
    // The live vector is the piggyback: this thread is blocked, and so
    // cannot tick it, until the receiver has read it and completed.
    const std::span<const std::uint64_t> piggyback = clock_.current_span();
    // The global sequence is assigned at commit, so the send event
    // carries 0 — the profiler pairs it with the ACK by channel order.
    network_.trace_event(obs::TraceEventKind::send, self(), to, 0, 0,
                         ts::total(piggyback));
    const std::uint64_t seq = network_.rendezvous_send(
        self(), to, std::move(payload), piggyback, ack_);
    VectorTimestamp timestamp(width());
    clock_.on_ack_into(to, ack_, timestamp.mutable_components());
    network_.trace_event(obs::TraceEventKind::ack, self(), to, seq, seq,
                         timestamp.total());
    journal_.push_back({JournalEntry::Kind::send, to, seq, {}, timestamp});
    return timestamp;
}

ReceivedMessage ProcessContext::receive_impl(std::optional<ProcessId> from) {
    Mailbox::Accepted accepted = network_.accept_for(self(), from);
    const ProcessId sender = accepted.sender();
    std::string payload = accepted.payload();
    VectorTimestamp timestamp(width());
    // The acknowledgement lands straight in the blocked sender's buffer.
    clock_.on_receive_into(sender, accepted.piggyback(), accepted.ack(),
                           timestamp.mutable_components());
    const std::uint64_t seq = network_.next_seq();
    // Trace the commit before complete() unblocks the sender, so the
    // sender's ack event can never precede its commit in the ring.
    network_.trace_event(obs::TraceEventKind::commit, self(), sender, seq,
                         seq, timestamp.total());
    accepted.complete(seq);

    journal_.push_back(
        {JournalEntry::Kind::receive, sender, seq, {}, timestamp});
    received_.push_back({seq, sender, self(), payload, timestamp});
    return {sender, std::move(payload), std::move(timestamp)};
}

ReceivedMessage ProcessContext::receive() { return receive_impl(std::nullopt); }

ReceivedMessage ProcessContext::receive_from(ProcessId from) {
    return receive_impl(from);
}

bool ProcessContext::poll(std::optional<ProcessId> from) {
    return network_.mailbox(self()).has_offer(from);
}

void ProcessContext::internal_event(std::string note) {
    journal_.push_back({JournalEntry::Kind::internal, kNoProcess, 0,
                        std::move(note), VectorTimestamp{}});
}

}  // namespace syncts
