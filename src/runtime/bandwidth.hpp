#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"

/// \file bandwidth.hpp
/// Fair per-channel bandwidth limiting for the batched TX path
/// (docs/PROTOCOL.md), in the spirit of gtk-gnutella's bsched: every
/// directed channel owns a token bucket, all of a process's channels
/// share one global bucket of the same rate and burst, and the
/// synchronizer's flush loop walks the due queues in deficit-round-robin
/// order.
///
/// Buckets refill linearly with virtual time (tokens = rate *
/// elapsed_ticks, capped at `burst`), so `ready_time()` is exact: the
/// first tick at which a refused flush will be admitted. Charges are
/// clamped to the burst capacity — a frame larger than the bucket can
/// ever hold is admitted once the bucket is full rather than stalling
/// forever (the progress guarantee the retransmission layer relies on).
///
/// The deficit parameter implements DRR service credit: a refused queue
/// accrues quantum bytes per scheduling round (the caller's policy) and
/// may overdraw its *channel* bucket by its deficit. The global bucket
/// is never overdrawn — it is the actual budget; the deficit only
/// arbitrates which starved channel goes first once budget exists.
///
/// Deterministic: no wall clock, no randomness — state advances only
/// with the virtual `now` the caller passes in. Single-threaded, like
/// the discrete-event simulator that drives it.

namespace syncts {

struct BandwidthOptions;

/// Running totals the scheduler keeps about itself; published as
/// `bsched_*` metrics by the runtime when a registry is attached.
struct BandwidthCounters {
    std::uint64_t admitted = 0;        ///< flushes admitted
    std::uint64_t refused = 0;         ///< flushes refused (deferred)
    std::uint64_t bytes_admitted = 0;  ///< clamped bytes charged
};

class BandwidthScheduler {
public:
    /// `options.enabled` must be true; rates are validated >= 1 (a
    /// zero rate would make ready_time() infinite). `n` is the process
    /// count — one global bucket per process, channel buckets created
    /// lazily on first use.
    BandwidthScheduler(const BandwidthOptions& options, std::size_t n);

    /// True when the buckets can pay for `bytes` from `src` to `dst` at
    /// virtual time `now` — charging them and counting the admission.
    /// `deficit` is the caller-maintained DRR credit for this queue:
    /// the channel bucket may be overdrawn by up to `deficit` (the
    /// global bucket may not), and an admission consumes the credit.
    /// The charge is min(bytes, burst), so oversize packets pass once
    /// the buckets are full.
    bool admit(ProcessId src, ProcessId dst, std::uint64_t bytes,
               std::uint64_t now, std::uint64_t& deficit);

    /// Earliest virtual time >= now at which `admit` with the same
    /// arguments (and any deficit) could succeed — when both buckets
    /// will have refilled to the clamped charge. Callers re-arm their
    /// flush timer here after a refusal.
    std::uint64_t ready_time(ProcessId src, ProcessId dst,
                             std::uint64_t bytes, std::uint64_t now) const;

    const BandwidthCounters& counters() const noexcept { return counters_; }

private:
    struct Bucket {
        std::uint64_t tokens = 0;
        std::uint64_t last_refill = 0;  ///< virtual time of last refill
    };

    /// Tokens `bucket` holds at `now`: refilled at rate_ tokens/tick,
    /// capped at burst_.
    std::uint64_t tokens_at(const Bucket& bucket, std::uint64_t now) const;

    /// Ticks until a bucket holding `tokens` reaches `need`.
    std::uint64_t ticks_until(std::uint64_t tokens, std::uint64_t need) const;

    Bucket& channel_bucket(ProcessId src, ProcessId dst);

    std::uint64_t rate_;
    std::uint64_t burst_;
    std::vector<Bucket> global_;  ///< one per process (by ProcessId)
    std::unordered_map<std::uint64_t, Bucket> channels_;  ///< src<<32|dst
    BandwidthCounters counters_;
};

}  // namespace syncts
