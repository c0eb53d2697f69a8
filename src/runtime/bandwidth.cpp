#include "runtime/bandwidth.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "runtime/synchronizer.hpp"

namespace syncts {

namespace {

std::uint64_t channel_key(ProcessId src, ProcessId dst) {
    return (static_cast<std::uint64_t>(src) << 32) |
           static_cast<std::uint64_t>(dst);
}

}  // namespace

BandwidthScheduler::BandwidthScheduler(const BandwidthOptions& options,
                                       std::size_t n) {
    SYNCTS_REQUIRE(options.enabled,
                   "bandwidth scheduler constructed while disabled");
    SYNCTS_REQUIRE(options.bytes_per_tick >= 1,
                   "bandwidth rate must be >= 1 byte per tick");
    rate_ = options.bytes_per_tick;
    // Auto burst (see BandwidthOptions::burst): 8x the refill rate,
    // floored at 4096 so one full-vector frame always fits.
    burst_ = options.burst != 0
                 ? options.burst
                 : std::max<std::uint64_t>(
                       4096,
                       rate_ > std::numeric_limits<std::uint64_t>::max() / 8
                           ? rate_
                           : rate_ * 8);
    // Buckets start full: the first flushes of a run are never the ones
    // to shape, and an empty start would delay every process's opening
    // REQ by a full refill for no fairness gain.
    global_.resize(n, Bucket{burst_, 0});
}

std::uint64_t BandwidthScheduler::tokens_at(const Bucket& bucket,
                                            std::uint64_t now) const {
    if (now <= bucket.last_refill) return bucket.tokens;
    const std::uint64_t elapsed = now - bucket.last_refill;
    // Saturating: elapsed * rate can overflow on a long-idle bucket,
    // but the cap is burst anyway.
    const std::uint64_t earned =
        elapsed > burst_ / rate_ ? burst_ : elapsed * rate_;
    return std::min(burst_, bucket.tokens + earned);
}

std::uint64_t BandwidthScheduler::ticks_until(std::uint64_t tokens,
                                              std::uint64_t need) const {
    if (tokens >= need) return 0;
    const std::uint64_t missing = need - tokens;
    return (missing + rate_ - 1) / rate_;
}

BandwidthScheduler::Bucket& BandwidthScheduler::channel_bucket(
    ProcessId src, ProcessId dst) {
    auto [it, inserted] =
        channels_.try_emplace(channel_key(src, dst), Bucket{burst_, 0});
    return it->second;
}

bool BandwidthScheduler::admit(ProcessId src, ProcessId dst,
                               std::uint64_t bytes, std::uint64_t now,
                               std::uint64_t& deficit) {
    SYNCTS_REQUIRE(static_cast<std::size_t>(src) < global_.size(),
                   "bandwidth admit: source out of range");
    Bucket& global = global_[static_cast<std::size_t>(src)];
    Bucket& channel = channel_bucket(src, dst);
    for (Bucket* bucket : {&global, &channel}) {
        bucket->tokens = tokens_at(*bucket, now);
        bucket->last_refill = std::max(bucket->last_refill, now);
    }

    const std::uint64_t charge = std::min(bytes, burst_);
    // DRR credit lets a starved channel overdraw its own bucket; the
    // global budget is authoritative and never overdrawn.
    const bool channel_ok =
        channel.tokens + std::min(deficit, charge) >= charge;
    if (global.tokens < charge || !channel_ok) {
        ++counters_.refused;
        return false;
    }
    global.tokens -= charge;
    if (channel.tokens >= charge) {
        channel.tokens -= charge;
    } else {
        deficit -= charge - channel.tokens;
        channel.tokens = 0;
    }
    ++counters_.admitted;
    counters_.bytes_admitted += charge;
    return true;
}

std::uint64_t BandwidthScheduler::ready_time(ProcessId src, ProcessId dst,
                                             std::uint64_t bytes,
                                             std::uint64_t now) const {
    SYNCTS_REQUIRE(static_cast<std::size_t>(src) < global_.size(),
                   "bandwidth ready_time: source out of range");
    const std::uint64_t charge = std::min(bytes, burst_);
    const auto it = channels_.find(channel_key(src, dst));
    const std::uint64_t channel_tokens =
        it != channels_.end() ? tokens_at(it->second, now) : burst_;
    const std::uint64_t wait = std::max(
        ticks_until(tokens_at(global_[static_cast<std::size_t>(src)], now),
                    charge),
        ticks_until(channel_tokens, charge));
    return now + std::max<std::uint64_t>(wait, 1);
}

}  // namespace syncts
