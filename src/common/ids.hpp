#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

/// \file ids.hpp
/// Strongly-named identifier aliases shared by every module.
///
/// Processes are numbered 0..N-1 (the paper writes P_1..P_N; we use
/// zero-based indices throughout the implementation and only shift to
/// one-based numbering when printing paper figures verbatim).

namespace syncts {

/// Index of a process in the system, 0-based.
using ProcessId = std::uint32_t;

/// Index of a message within a computation, 0-based, in *instant order*:
/// synchronous messages are logically instantaneous, so every computation
/// admits a global total order of message instants consistent with all
/// per-process event orders (Charron-Bost et al.). MessageId is the rank of
/// a message in one such order.
using MessageId = std::uint32_t;

/// Index of an edge group in an edge decomposition, 0-based. One vector-clock
/// component is assigned per group.
using GroupId = std::uint32_t;

/// Index of an event in a per-process event sequence, 0-based.
using EventIndex = std::uint32_t;

/// Index of a topology epoch, 0-based. Epoch 0 is the initial topology a
/// system boots with; every reconfiguration (channel/process add or
/// remove) starts the next epoch. Wire frames carry the sender's epoch so
/// that the rendezvous protocol can reject frames from a stale epoch
/// (frames predating the epoch mechanism decode as epoch 0).
using EpochId = std::uint32_t;

/// Sentinel for "no process".
inline constexpr ProcessId kNoProcess = std::numeric_limits<ProcessId>::max();

/// Largest process count a reader accepts from a declared header: the
/// text trace and decomposition formats and the SYTR stream header. The
/// readers size per-process state from that count before any record can
/// justify it, so without a bound a few bytes of input can exhaust
/// memory. 2^14 leaves room above the largest topology the repo builds
/// (cs:4:10000, 10,004 processes).
inline constexpr std::size_t kMaxDeclaredProcesses = std::size_t{1} << 14;

/// Sentinel for "no message" (e.g. "no message precedes this event").
inline constexpr MessageId kNoMessage = std::numeric_limits<MessageId>::max();

/// Sentinel for "no group".
inline constexpr GroupId kNoGroup = std::numeric_limits<GroupId>::max();

}  // namespace syncts
