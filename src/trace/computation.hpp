#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

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

}  // namespace syncts
