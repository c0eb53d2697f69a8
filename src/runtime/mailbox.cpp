#include "runtime/mailbox.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace syncts {

void Mailbox::Accepted::complete(std::uint64_t seq) {
    SYNCTS_REQUIRE(offer_ != nullptr, "offer already completed or moved-from");
    Offer* offer = std::exchange(offer_, nullptr);
    // Notify *while holding* the mutex: the waiting sender owns the Offer
    // and destroys it the moment it unblocks, so the notify must complete
    // before the waiter can re-acquire the lock and leave wait().
    const std::lock_guard lock(offer->done_mutex);
    offer->seq = seq;
    offer->completed = true;
    offer->done_cv.notify_one();
}

void Mailbox::Accepted::abandon() noexcept {
    Offer* offer = std::exchange(offer_, nullptr);
    if (offer == nullptr) return;
    // Same destruction-race discipline as complete().
    const std::lock_guard lock(offer->done_mutex);
    offer->aborted = true;
    offer->done_cv.notify_one();
}

Mailbox::Accepted& Mailbox::Accepted::operator=(Accepted&& other) noexcept {
    if (this != &other) {
        abandon();
        offer_ = std::exchange(other.offer_, nullptr);
    }
    return *this;
}

Mailbox::Accepted::~Accepted() { abandon(); }

std::optional<std::uint64_t> Mailbox::offer_and_wait(
    ProcessId sender, std::string payload,
    std::span<const std::uint64_t> piggyback, std::span<std::uint64_t> ack,
    std::chrono::milliseconds timeout) {
    Offer offer;
    offer.sender = sender;
    offer.payload = std::move(payload);
    offer.piggyback = piggyback;
    offer.ack = ack;
    {
        const std::lock_guard lock(mutex_);
        if (closed_) throw MailboxClosed();
        queue_.push_back(&offer);
    }
    offer_cv_.notify_all();

    const auto ready = [&] { return offer.completed || offer.aborted; };
    std::unique_lock done_lock(offer.done_mutex);
    if (timeout.count() <= 0) {
        offer.done_cv.wait(done_lock, ready);
    } else if (!offer.done_cv.wait_for(done_lock, timeout, ready)) {
        // Timed out: withdraw the offer if it is still queued, so the
        // receiver can never accept a rendezvous the sender abandoned.
        // The queue and the completion slot use different mutexes —
        // release the slot before touching the queue.
        done_lock.unlock();
        {
            const std::lock_guard lock(mutex_);
            const auto it = std::ranges::find(queue_, &offer);
            if (it != queue_.end()) {
                queue_.erase(it);
                return std::nullopt;
            }
        }
        // The receiver accepted within the race window and now owns the
        // offer: the rendezvous is happening, so honour it — completion
        // (or abandonment on receiver unwind) is imminent.
        done_lock.lock();
        offer.done_cv.wait(done_lock, ready);
    }
    if (offer.aborted) throw MailboxClosed();
    return offer.seq;
}

std::optional<Mailbox::Accepted> Mailbox::accept(
    std::optional<ProcessId> from, std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::unique_lock lock(mutex_);
    const auto match = [&] {
        return std::ranges::find_if(queue_, [&](Offer* o) {
            return !from.has_value() || o->sender == *from;
        });
    };
    const auto woken = [&] { return closed_ || match() != queue_.end(); };
    for (;;) {
        const auto it = match();
        if (it != queue_.end()) {
            Offer* offer = *it;
            queue_.erase(it);
            return Accepted(offer);
        }
        if (closed_) throw MailboxClosed();
        if (timeout.count() <= 0) {
            offer_cv_.wait(lock, woken);
        } else if (!offer_cv_.wait_until(lock, deadline, woken)) {
            return std::nullopt;
        }
    }
}

bool Mailbox::has_offer(std::optional<ProcessId> from) {
    const std::lock_guard lock(mutex_);
    return std::ranges::any_of(queue_, [&](Offer* o) {
        return !from.has_value() || o->sender == *from;
    });
}

void Mailbox::close() {
    std::deque<Offer*> orphaned;
    {
        const std::lock_guard lock(mutex_);
        closed_ = true;
        orphaned.swap(queue_);
    }
    offer_cv_.notify_all();
    for (Offer* offer : orphaned) {
        // Notify under the lock — see Accepted::complete().
        const std::lock_guard lock(offer->done_mutex);
        offer->aborted = true;
        offer->done_cv.notify_one();
    }
}

}  // namespace syncts
