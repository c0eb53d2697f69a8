#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"
#include "graph/graph.hpp"

/// \file computation.hpp
/// The synchronous-computation model of Section 2.
///
/// A synchronous computation can always be drawn with vertical message
/// arrows: every message is a logically instantaneous rendezvous shared by
/// its two endpoint processes (Charron-Bost et al.). A computation is
/// therefore fully described by a global sequence of *instants*, each being
/// either a message on a topology edge or an internal event on one process.
/// Per-process event orders are the projections of that sequence, and the
/// synchronously-precedes relation ↦ is the transitive closure of "shares a
/// process and happens at an earlier instant" (the ▷ relation).

namespace syncts {

/// Identifier of an internal event, dense per computation.
using InternalId = std::uint32_t;

struct SyncMessage {
    MessageId id = 0;
    ProcessId sender = 0;
    ProcessId receiver = 0;

    bool involves(ProcessId p) const noexcept {
        return sender == p || receiver == p;
    }
};

struct InternalEvent {
    InternalId id = 0;
    ProcessId process = 0;
};

/// One entry of a per-process event sequence.
struct ProcessEvent {
    enum class Kind { message, internal };
    Kind kind = Kind::message;
    /// MessageId when kind==message, InternalId when kind==internal.
    std::uint32_t index = 0;
};

/// An immutable-after-construction record of one synchronous computation.
class SyncComputation {
public:
    /// Computation over `topology`; all messages must use topology edges.
    explicit SyncComputation(Graph topology);

    /// Appends a message at the next instant. Returns its MessageId.
    /// Requires {sender, receiver} to be a topology edge.
    MessageId add_message(ProcessId sender, ProcessId receiver);

    /// Appends an internal event on `p` at the next instant.
    InternalId add_internal(ProcessId p);

    std::size_t num_processes() const noexcept {
        return topology_.num_vertices();
    }
    std::size_t num_messages() const noexcept { return messages_.size(); }
    std::size_t num_internal_events() const noexcept {
        return internal_.size();
    }

    const SyncMessage& message(MessageId id) const;
    const InternalEvent& internal_event(InternalId id) const;

    std::span<const SyncMessage> messages() const noexcept { return messages_; }

    /// The event sequence of process p (messages and internal events, in
    /// instant order).
    std::span<const ProcessEvent> process_events(ProcessId p) const;

    /// MessageIds that process p participates in, in instant order.
    std::span<const MessageId> process_messages(ProcessId p) const;

    const Graph& topology() const noexcept { return topology_; }

    /// e.g. "m3: P1 -> P2" lines, 1-based like the paper's figures.
    std::string to_string() const;

private:
    Graph topology_;
    std::vector<SyncMessage> messages_;
    std::vector<InternalEvent> internal_;
    std::vector<std::vector<ProcessEvent>> per_process_;
    std::vector<std::vector<MessageId>> per_process_messages_;
};

/// Walks `computation` in one valid instant order: messages in id order,
/// each preceded by the sender's and then the receiver's internal events
/// that come before it in their sequences, and each process's leftover
/// internal events at the end, process by process. Calls
/// `on_internal(ProcessId, InternalId)` and `on_message(const
/// SyncMessage&)` in that order. Every writer, diagram and replay that
/// needs an instant order uses this walk, so they all agree on it.
template <typename OnInternal, typename OnMessage>
void for_each_instant(const SyncComputation& computation,
                      OnInternal&& on_internal, OnMessage&& on_message) {
    std::vector<std::size_t> cursor(computation.num_processes(), 0);
    // Emits p's internal events up to message `until` and steps past it;
    // kNoMessage emits the rest of p's sequence.
    const auto drain = [&](ProcessId p, MessageId until) {
        const auto events = computation.process_events(p);
        while (cursor[p] < events.size()) {
            const ProcessEvent& e = events[cursor[p]++];
            if (e.kind == ProcessEvent::Kind::message) {
                SYNCTS_ENSURE(until != kNoMessage && e.index == until,
                              "instant-order walk out of order");
                return;
            }
            on_internal(p, static_cast<InternalId>(e.index));
        }
        SYNCTS_ENSURE(until == kNoMessage,
                      "message missing from process event sequence");
    };
    for (const SyncMessage& m : computation.messages()) {
        drain(m.sender, m.id);
        drain(m.receiver, m.id);
        on_message(m);
    }
    for (ProcessId p = 0; p < computation.num_processes(); ++p) {
        drain(p, kNoMessage);
    }
}

}  // namespace syncts
