#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"

/// \file fault_plan.hpp
/// Seeded, deterministic fault injection for the asynchronous packet
/// network: per-packet drop / duplicate / corrupt / extra-delay
/// probabilities plus targeted rules ("drop the Nth packet of kind k on
/// the directed edge (i, j)").
///
/// A FaultPlan is pure configuration and can be shared between runs; a
/// FaultInjector owns the derived RNG and the per-rule occurrence
/// counters, so a faulty run stays a pure function of
/// (programs, network seed, fault plan). The injector mutates only
/// payload bytes — packet headers (source/destination/kind) are assumed
/// to be protected by the transport's own framing, exactly like UDP/IP
/// header checksums; payload integrity is the protocol's problem, which
/// is why clocks/wire.hpp frames carry their own checksum.

namespace syncts {

/// Drops the `occurrence`-th matching packet (1-based) sent on the
/// directed edge source -> destination. `kind` matches Packet::kind;
/// kAnyKind matches every kind. Targeted rules make loss scenarios exact:
/// "lose the first REQ from P0 to P1" is one rule, not a probability.
struct TargetedDrop {
    static constexpr std::uint32_t kAnyKind = 0xFFFFFFFFu;

    ProcessId source = 0;
    ProcessId destination = 0;
    std::uint32_t kind = kAnyKind;
    std::uint64_t occurrence = 1;
};

/// Crashes process `process` after its `at_step`-th protocol step (a
/// commit or an accepted ACK, 1-based, counted across the process's whole
/// lifetime *including* steps re-executed after earlier crashes — so
/// several rules for one process fire in at_step order). The process
/// loses all volatile state, stays down for `downtime` virtual ticks
/// (deliveries to it are dropped), then restarts and rejoins from its
/// durable snapshot + WAL (docs/RECOVERY.md).
struct CrashRule {
    ProcessId process = 0;
    std::uint64_t at_step = 1;
    std::uint64_t downtime = 50;
};

struct FaultPlan {
    /// Seed of the injector's own RNG stream, independent of the latency
    /// stream so enabling faults does not perturb latency draws.
    std::uint64_t seed = 0xFA171ull;

    double drop_probability = 0.0;       ///< lose the packet entirely
    double duplicate_probability = 0.0;  ///< deliver an extra, independent copy
    double corrupt_probability = 0.0;    ///< mutate payload bytes
    double delay_probability = 0.0;      ///< add extra latency (reordering)
    /// Extra delay drawn uniformly from [1, max_extra_delay] when a packet
    /// is selected for delay. Ignored when zero.
    std::uint64_t max_extra_delay = 0;

    std::vector<TargetedDrop> targeted_drops;

    /// Whole-process crash/restart rules, executed by the synchronizer
    /// runtime (the injector touches packets, not processes).
    std::vector<CrashRule> crashes;

    /// True when any fault can actually fire. Crash rules count: a run
    /// with crashes needs retransmission armed even with lossless links.
    bool active() const noexcept {
        return drop_probability > 0.0 || duplicate_probability > 0.0 ||
               corrupt_probability > 0.0 ||
               (delay_probability > 0.0 && max_extra_delay > 0) ||
               !targeted_drops.empty() || !crashes.empty();
    }
};

/// What the network actually injected during one run.
struct FaultStats {
    std::uint64_t dropped = 0;         ///< probabilistic drops
    std::uint64_t targeted_drops = 0;  ///< rule-based drops
    std::uint64_t duplicated = 0;      ///< extra copies queued
    std::uint64_t corrupted = 0;       ///< payloads mutated
    std::uint64_t delayed = 0;         ///< extra-delay applications
    std::uint64_t crashes = 0;         ///< crash rules executed
    std::uint64_t down_drops = 0;      ///< deliveries lost to a down process
    /// Corrupted packets among down_drops: lost before any decoder could
    /// reject them, so they are absent from the runtime's reject count.
    std::uint64_t corrupt_down_drops = 0;

    std::uint64_t total_faults() const noexcept {
        return dropped + targeted_drops + duplicated + corrupted + delayed +
               crashes + down_drops;
    }

    std::string to_string() const;
};

/// Applies a FaultPlan to a packet stream. Default-constructed injectors
/// are inert (every packet passes through untouched).
class FaultInjector {
public:
    FaultInjector() = default;
    explicit FaultInjector(FaultPlan plan);

    /// One delivery of a packet: extra transit delay on top of the latency
    /// model, and whether the payload is corrupted in flight.
    struct Copy {
        std::uint64_t extra_delay = 0;
        bool corrupt = false;
    };

    /// The fate of one sent packet: `count` copies to deliver — 0 when
    /// it is dropped, 2 when it was duplicated. Fixed storage, so deciding
    /// allocates nothing.
    struct Disposition {
        std::array<Copy, 2> copies{};
        std::size_t count = 0;

        std::size_t size() const noexcept { return count; }
    };

    /// Decides the fate of one sent packet. Counts occurrences for
    /// targeted rules as a side effect.
    Disposition disposition(ProcessId source, ProcessId destination,
                            std::uint32_t kind);

    /// Deterministically mutates payload bytes: flips a random bit,
    /// truncates the tail, or appends garbage. Empty bodies gain garbage.
    void corrupt_body(std::vector<std::uint8_t>& body);

    bool active() const noexcept { return plan_.active(); }
    const FaultPlan& plan() const noexcept { return plan_; }
    const FaultStats& stats() const noexcept { return stats_; }

private:
    FaultPlan plan_;
    Rng rng_{0};
    FaultStats stats_;
    /// rule_hits_[r] — matching packets seen so far for targeted rule r.
    std::vector<std::uint64_t> rule_hits_;
};

}  // namespace syncts
