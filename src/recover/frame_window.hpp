#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"

/// \file frame_window.hpp
/// Bounded ring of recent wire frames on one directed channel, keyed by
/// rendezvous sequence number.
///
/// The rejoin protocol (docs/RECOVERY.md) replays *original* frame bytes:
/// a recovered sender must receive the acknowledgement exactly as it was
/// first encoded (possibly under an earlier epoch's format) so that its
/// clock merge is bit-identical to the pre-crash one, and a recovered
/// receiver must be fed the original REQ frames it lost. Each engine
/// therefore keeps one window of sent REQs per out-channel and one window
/// of sent ACKs per in-channel. The capacity bounds memory the same way
/// the Drummond–Barbosa stability rule bounds the WAL: a restarting peer
/// can rewind at most one group-flush interval of rendezvous per channel,
/// so any window at least that deep always holds what a rejoin needs.

namespace syncts {

/// Replaces the contents of a reused frame buffer with `frame`. A buffer
/// too small for it grows with a quarter of headroom, so a stream of
/// frames that lengthen a byte at a time (clock components crossing
/// varint boundaries) does not reallocate on every byte of growth.
inline void copy_frame(std::span<const std::uint8_t> frame,
                       std::vector<std::uint8_t>& buffer) {
    if (buffer.capacity() < frame.size()) {
        buffer.reserve(frame.size() + frame.size() / 4);
    }
    buffer.assign(frame.begin(), frame.end());
}

class FrameWindow {
public:
    struct Entry {
        std::uint64_t sequence = 0;
        std::vector<std::uint8_t> frame;
    };

    explicit FrameWindow(std::size_t capacity = 8) : capacity_(capacity) {
        SYNCTS_REQUIRE(capacity_ >= 1, "frame window capacity must be >= 1");
    }

    std::size_t capacity() const noexcept { return capacity_; }
    std::size_t size() const noexcept { return ring_.size(); }
    bool empty() const noexcept { return ring_.empty(); }

    /// Records `frame` under `sequence`. Sequences normally arrive in
    /// increasing order; re-recording an existing sequence (a recovered
    /// process re-executing a rendezvous) overwrites in place, and a
    /// sequence older than the ring is ignored — it was pruned already.
    /// Once the ring is full, the evicted oldest entry's buffer takes the
    /// new frame, so a steady stream of puts allocates nothing.
    void put(std::uint64_t sequence, std::span<const std::uint8_t> frame) {
        if (!ring_.empty() && sequence <= newest().sequence) {
            for (Entry& entry : ring_) {
                if (entry.sequence == sequence) {
                    copy_frame(frame, entry.frame);
                    return;
                }
            }
            return;  // older than the retained ring: already pruned
        }
        Entry* slot = nullptr;
        if (ring_.size() < capacity_) {
            slot = &ring_.emplace_back();
        } else {
            slot = &ring_[head_];
            head_ = (head_ + 1) % capacity_;
        }
        slot->sequence = sequence;
        copy_frame(frame, slot->frame);
    }

    /// The frame recorded under `sequence`, or nullptr when pruned/unknown.
    const std::vector<std::uint8_t>* find(std::uint64_t sequence) const {
        for (const Entry& entry : ring_) {
            if (entry.sequence == sequence) return &entry.frame;
        }
        return nullptr;
    }

    /// Calls fn(const Entry&) for each retained entry, oldest first
    /// (rejoin retransmission and snapshot order).
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t i = 0; i < ring_.size(); ++i) {
            fn(ring_[(head_ + i) % ring_.size()]);
        }
    }

private:
    const Entry& newest() const noexcept {
        return ring_[(head_ + ring_.size() - 1) % ring_.size()];
    }

    std::size_t capacity_;
    /// Grows to capacity_, then rotates: ring_[head_] is the oldest entry.
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
};

}  // namespace syncts
