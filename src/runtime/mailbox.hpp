#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/ids.hpp"

/// \file mailbox.hpp
/// The rendezvous primitive underneath the synchronous runtime.
///
/// A synchronous send is an offer posted to the receiver's mailbox; the
/// sender then blocks until the receiver accepts the offer and completes it
/// with the rendezvous' global sequence number. The receiver blocks in
/// `accept` until a matching offer arrives. This is the blocking-send
/// semantics of CSP / Ada rendezvous / synchronous RPC that the paper
/// assumes, implemented with a mutex + condition variables.
///
/// Fig. 5's two vectors cross as spans into the blocked sender's own
/// storage: the receiver reads the piggyback and writes the
/// acknowledgement in place before complete(). Both spans stay valid for
/// the offer's whole life, because the sender is blocked until completion,
/// abandonment, withdrawal or close, and the completion slot's mutex
/// orders the receiver's writes before the sender's reads.

namespace syncts {

/// Thrown by blocked senders/receivers when the network shuts down.
class MailboxClosed : public std::runtime_error {
public:
    MailboxClosed() : std::runtime_error("mailbox closed") {}
};

class Mailbox {
public:
    /// The sender-visible half of one rendezvous. Lives on the sending
    /// thread's stack for the duration of the rendezvous.
    struct Offer {
        ProcessId sender = 0;
        std::string payload;
        std::span<const std::uint64_t> piggyback;
        std::span<std::uint64_t> ack;

        // Completion slot.
        std::mutex done_mutex;
        std::condition_variable done_cv;
        std::uint64_t seq = 0;
        bool completed = false;
        bool aborted = false;
    };

    /// Receiver-visible view of an accepted offer. Move-only RAII: the
    /// receiver should call complete() exactly once to release the sender;
    /// if the handle is destroyed without completing (receiver unwound by
    /// an exception), the sender is released with MailboxClosed instead of
    /// hanging. payload()/piggyback()/ack() must not be touched after
    /// complete().
    class Accepted {
    public:
        explicit Accepted(Offer* offer) : offer_(offer) {}
        Accepted(Accepted&& other) noexcept
            : offer_(std::exchange(other.offer_, nullptr)) {}
        Accepted& operator=(Accepted&& other) noexcept;
        Accepted(const Accepted&) = delete;
        Accepted& operator=(const Accepted&) = delete;
        ~Accepted();

        ProcessId sender() const noexcept { return offer_->sender; }
        const std::string& payload() const noexcept { return offer_->payload; }

        /// The sender's piggybacked vector.
        std::span<const std::uint64_t> piggyback() const noexcept {
            return offer_->piggyback;
        }

        /// The sender's acknowledgement buffer: the receiver writes its
        /// acknowledgement vector here before complete().
        std::span<std::uint64_t> ack() const noexcept { return offer_->ack; }

        /// Hands the rendezvous' global sequence number back, unblocking
        /// the sender.
        void complete(std::uint64_t seq);

    private:
        void abandon() noexcept;

        Offer* offer_;
    };

    /// Sender side: posts the offer and blocks until the receiver completes
    /// it, having written its acknowledgement into `ack`. Returns the
    /// rendezvous' global sequence number. A positive `timeout` bounds the
    /// wait: when it expires the offer is *withdrawn*, so a receiver cannot
    /// accept it afterwards, and the call returns nullopt; if the receiver
    /// accepted within the race window the rendezvous is honoured — the
    /// call blocks until the in-progress completion and returns it. A zero
    /// timeout waits forever. Throws MailboxClosed on shutdown.
    std::optional<std::uint64_t> offer_and_wait(
        ProcessId sender, std::string payload,
        std::span<const std::uint64_t> piggyback, std::span<std::uint64_t> ack,
        std::chrono::milliseconds timeout = {});

    /// Receiver side: blocks until an offer (from `from`, or from anyone
    /// when nullopt) is available, removes it from the queue and returns
    /// it; nullopt when a positive `timeout` expires first. A zero timeout
    /// waits forever. Throws MailboxClosed on shutdown.
    std::optional<Accepted> accept(std::optional<ProcessId> from,
                                   std::chrono::milliseconds timeout = {});

    /// Non-blocking probe: true when a matching offer is queued.
    bool has_offer(std::optional<ProcessId> from);

    /// Wakes all blocked parties with MailboxClosed and rejects future
    /// traffic. Pending unaccepted offers are aborted.
    void close();

private:
    std::mutex mutex_;
    std::condition_variable offer_cv_;
    std::deque<Offer*> queue_;
    bool closed_ = false;
};

}  // namespace syncts
