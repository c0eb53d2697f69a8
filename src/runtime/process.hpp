#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clocks/online_clock.hpp"
#include "clocks/vector_timestamp.hpp"
#include "runtime/mailbox.hpp"

/// \file process.hpp
/// The per-process face of the threaded runtime. Each process runs user
/// code on its own thread against a ProcessContext, which provides the
/// blocking synchronous send/receive operations and transparently runs the
/// Fig. 5 clock protocol through OnlineProcessClock's span hooks
/// (piggybacking vectors on messages and acknowledgements). The clock is
/// owned by its process's thread — the receiver of a send reads the
/// blocked sender's vector and writes the acknowledgement into the
/// sender's buffer only inside the mailbox rendezvous — so the protocol
/// needs no locks of its own.

namespace syncts {

class TimestampedNetwork;

/// One message as observed by its receiver, with the agreed timestamp.
struct MessageRecord {
    std::uint64_t seq = 0;  // global rendezvous order
    ProcessId sender = 0;
    ProcessId receiver = 0;
    std::string payload;
    VectorTimestamp timestamp;
};

/// What a receive() returns to user code.
struct ReceivedMessage {
    ProcessId sender = 0;
    std::string payload;
    VectorTimestamp timestamp;
};

/// One entry of a process's local journal, used to reconstruct the
/// computation (and Section 5 event timestamps) after the run.
struct JournalEntry {
    enum class Kind { send, receive, internal };
    Kind kind = Kind::internal;
    ProcessId peer = kNoProcess;   // send/receive only
    std::uint64_t seq = 0;         // send/receive: global rendezvous order
    std::string note;              // internal only
    VectorTimestamp timestamp;     // send/receive: the message timestamp
};

class ProcessContext {
public:
    ProcessContext(ProcessId self, TimestampedNetwork& network,
                   std::shared_ptr<const EdgeDecomposition> decomposition);

    ProcessContext(const ProcessContext&) = delete;
    ProcessContext& operator=(const ProcessContext&) = delete;

    ProcessId self() const noexcept { return clock_.self(); }

    /// Number of processes in the network.
    std::size_t num_processes() const noexcept;

    /// Timestamp width d.
    std::size_t width() const noexcept { return clock_.current().width(); }

    /// Synchronous send: blocks until `to` receives the message and the
    /// acknowledgement returns. Returns the message's timestamp.
    VectorTimestamp send(ProcessId to, std::string payload);

    /// Blocks for a message from anyone.
    ReceivedMessage receive();

    /// Blocks for a message from `from` specifically.
    ReceivedMessage receive_from(ProcessId from);

    /// Non-blocking probe for pending traffic.
    bool poll(std::optional<ProcessId> from = std::nullopt);

    /// Records an internal event; its Section 5 timestamp is available
    /// from the network record after the run.
    void internal_event(std::string note = {});

    /// This process's current clock vector.
    const VectorTimestamp& clock() const noexcept { return clock_.current(); }

    const std::vector<JournalEntry>& journal() const noexcept {
        return journal_;
    }

private:
    friend class TimestampedNetwork;

    ReceivedMessage receive_impl(std::optional<ProcessId> from);

    TimestampedNetwork& network_;
    OnlineProcessClock clock_;
    /// Width-d buffer the receiver of each send writes its
    /// acknowledgement into.
    std::vector<std::uint64_t> ack_;
    std::vector<JournalEntry> journal_;
    std::vector<MessageRecord> received_;
};

/// A process program: arbitrary user code driven against the context.
using ProcessProgram = std::function<void(ProcessContext&)>;

}  // namespace syncts
