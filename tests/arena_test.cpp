#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "clocks/online_clock.hpp"
#include "clocks/vector_timestamp.hpp"
#include "common/rng.hpp"
#include "common/timestamp_arena.hpp"
#include "common/ts_kernels.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "runtime/synchronizer.hpp"
#include "trace/generator.hpp"

// ---- Counting allocator -----------------------------------------------
// Global operator new/delete replacements let the steady-state tests
// assert "zero heap allocations" directly instead of inferring it from
// capacity bookkeeping, and the footprint tests read live heap bytes and
// their high-water mark. Every block carries its size in a header, so the
// live count does not depend on sized delete being called.
//
// GCC pairs the replacement operator new (which delegates to malloc) with
// the free() in the replacement delete and reports a mismatched-new-delete
// pair; replacing the global operators this way is well-defined, so
// silence the false positive for this translation unit.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_live_bytes{0};

constexpr std::size_t kSizeHeader = alignof(std::max_align_t);

void* counted_new(std::size_t size) {
    ++g_allocations;
    void* const base = std::malloc(kSizeHeader + size);
    if (base == nullptr) throw std::bad_alloc();
    *static_cast<std::size_t*>(base) = size;
    const std::size_t live = g_live_bytes += size;
    std::size_t peak = g_peak_live_bytes.load();
    while (live > peak &&
           !g_peak_live_bytes.compare_exchange_weak(peak, live)) {
    }
    return static_cast<char*>(base) + kSizeHeader;
}

void counted_delete(void* p) noexcept {
    if (p == nullptr) return;
    void* const base = static_cast<char*>(p) - kSizeHeader;
    g_live_bytes -= *static_cast<std::size_t*>(base);
    std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace syncts {
namespace {

TEST(TimestampArena, AllocateZeroInitializesSlots) {
    TimestampArena arena(3);
    const TsHandle h = arena.allocate();
    EXPECT_EQ(h, 0u);
    EXPECT_EQ(arena.size(), 1u);
    for (const std::uint64_t component : arena.span(h)) {
        EXPECT_EQ(component, 0u);
    }
}

TEST(TimestampArena, AllocateCopiesComponents) {
    TimestampArena arena(3);
    const std::vector<std::uint64_t> components{1, 2, 3};
    const TsHandle h = arena.allocate(components);
    ASSERT_EQ(arena.span(h).size(), 3u);
    EXPECT_EQ(arena.span(h)[0], 1u);
    EXPECT_EQ(arena.span(h)[1], 2u);
    EXPECT_EQ(arena.span(h)[2], 3u);
}

TEST(TimestampArena, AllocateRejectsWidthMismatch) {
    TimestampArena arena(3);
    const std::vector<std::uint64_t> wrong{1, 2};
    EXPECT_THROW(arena.allocate(wrong), std::invalid_argument);
}

TEST(TimestampArena, SpanRejectsOutOfRangeHandle) {
    TimestampArena arena(2);
    arena.allocate();
    EXPECT_THROW(arena.span(1), std::invalid_argument);
    EXPECT_THROW(arena.span(kNoTimestamp), std::invalid_argument);
}

TEST(TimestampArena, HandlesStayValidAcrossGrowth) {
    // Start with no reserve so the slab reallocates many times; handles
    // must keep addressing the same logical rows with their values intact.
    TimestampArena arena(4);
    constexpr std::size_t kSlots = 1000;
    for (std::size_t i = 0; i < kSlots; ++i) {
        const TsHandle h = arena.allocate();
        auto row = arena.span(h);
        for (std::size_t k = 0; k < row.size(); ++k) {
            row[k] = i * 10 + k;
        }
    }
    ASSERT_EQ(arena.size(), kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
        const auto row = arena.span(static_cast<TsHandle>(i));
        for (std::size_t k = 0; k < row.size(); ++k) {
            ASSERT_EQ(row[k], i * 10 + k) << "slot " << i;
        }
    }
}

TEST(TimestampArena, ClearKeepsCapacityForReuse) {
    TimestampArena arena(8, 64);
    for (int i = 0; i < 64; ++i) arena.allocate();
    const std::size_t capacity = arena.capacity();
    arena.clear();
    EXPECT_EQ(arena.size(), 0u);
    EXPECT_EQ(arena.capacity(), capacity);

    const std::size_t before = g_allocations.load();
    for (int round = 0; round < 10; ++round) {
        arena.clear();
        for (int i = 0; i < 64; ++i) arena.allocate();
    }
    EXPECT_EQ(g_allocations.load(), before)
        << "clear+allocate within capacity must not touch the heap";
}

TEST(TimestampArena, ZeroWidthArenaTracksSlots) {
    TimestampArena arena(0);
    const TsHandle a = arena.allocate();
    const TsHandle b = arena.allocate();
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(arena.size(), 2u);
    EXPECT_TRUE(arena.span(a).empty());
    arena.clear();
    EXPECT_EQ(arena.size(), 0u);
}

// ---- Handle-space ceiling ---------------------------------------------

TEST(TimestampArena, AllocateThrowsTypedErrorAtSlotCeiling) {
    TimestampArena arena(2, 0, 4);
    for (int i = 0; i < 4; ++i) arena.allocate();
    try {
        arena.allocate();
        FAIL() << "expected ArenaFullError";
    } catch (const ArenaFullError& e) {
        EXPECT_EQ(e.requested_slots(), 5u);
        EXPECT_EQ(e.max_slots(), 4u);
    }
    // A refused allocation leaves the arena usable at the ceiling, and
    // the typed error still reads as the standard length_error family.
    EXPECT_EQ(arena.size(), 4u);
    EXPECT_THROW(arena.allocate(), std::length_error);
    EXPECT_EQ(arena.span(3).size(), 2u);
}

TEST(TimestampArena, ReserveThrowsPastSlotCeiling) {
    TimestampArena arena(3, 0, 16);
    EXPECT_NO_THROW(arena.reserve(16));
    EXPECT_EQ(arena.max_slots(), 16u);
    EXPECT_THROW(arena.reserve(17), ArenaFullError);
}

TEST(TimestampArena, ZeroWidthArenaHonorsSlotCeiling) {
    TimestampArena arena(0, 0, 2);
    arena.allocate();
    arena.allocate();
    EXPECT_THROW(arena.allocate(), ArenaFullError);
    EXPECT_EQ(arena.size(), 2u);
}

TEST(TimestampArena, DefaultCeilingIsTheHandleSpace) {
    const TimestampArena arena(4);
    EXPECT_EQ(arena.max_slots(), static_cast<std::size_t>(kNoTimestamp));
}

TEST(TimestampArena, FourBillionSlotReserveThrowsInsteadOfWrapping) {
    // A streamed ingestion that tried to keep every stamp resident would
    // eventually ask for more slots than the 32-bit handle space. The
    // guard must refuse with the typed error BEFORE touching the slab —
    // a wrapped TsHandle would silently alias slot 0.
    TimestampArena arena(2);
    EXPECT_THROW(arena.reserve(5'000'000'000ull), ArenaFullError);
    EXPECT_EQ(arena.size(), 0u);
    EXPECT_EQ(arena.capacity(), 0u);
    // Ceiling refusal is not sticky: normal use continues.
    EXPECT_NO_THROW(arena.allocate());
}

// ---- WindowedTimestampArena (docs/STREAMING.md) ------------------------

TEST(WindowedArena, RingRetiresOldestAndKeepsResidencyBounded) {
    WindowedTimestampArena window(2, 4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        const std::vector<std::uint64_t> stamp{i, i + 100};
        EXPECT_EQ(window.push(stamp), i);
        EXPECT_LE(window.resident(), 4u);
    }
    EXPECT_EQ(window.frontier(), 6u);
    EXPECT_EQ(window.next(), 10u);
    for (std::uint64_t id = 6; id < 10; ++id) {
        ASSERT_TRUE(window.is_resident(id));
        EXPECT_EQ(window.span(id)[0], id);
        EXPECT_EQ(window.span(id)[1], id + 100);
    }
}

TEST(WindowedArena, RetiredReadThrowsTypedError) {
    WindowedTimestampArena window(1, 2);
    const std::vector<std::uint64_t> stamp{7};
    window.push(stamp);
    window.push(stamp);
    window.push(stamp);  // retires id 0
    try {
        (void)window.span(0);
        FAIL() << "expected RetiredStampError";
    } catch (const RetiredStampError& e) {
        EXPECT_EQ(e.id(), 0u);
    }
    EXPECT_THROW((void)window.span(99), RetiredStampError);
    EXPECT_FALSE(window.is_resident(0));
    EXPECT_TRUE(window.is_resident(2));
}

TEST(WindowedArena, LogicalIdsCrossTheHandleSpaceWithoutWrapping) {
    // Seed the id stream just below 2^32: pushes walk logical ids past
    // the 32-bit slot ceiling a plain arena would refuse, while the ring
    // keeps recycling the same `window` physical slots.
    const std::uint64_t boundary = (std::uint64_t{1} << 32) - 2;
    WindowedTimestampArena window(1, 3, boundary);
    for (std::uint64_t i = 0; i < 6; ++i) {
        const std::vector<std::uint64_t> stamp{i};
        EXPECT_EQ(window.push(stamp), boundary + i);
    }
    EXPECT_EQ(window.frontier(), boundary + 3);
    EXPECT_EQ(window.next(), boundary + 6);
    EXPECT_FALSE(window.is_resident(boundary + 2));
    EXPECT_THROW((void)window.span(boundary + 2), RetiredStampError);
    for (std::uint64_t i = 3; i < 6; ++i) {
        EXPECT_EQ(window.span(boundary + i)[0], i);
    }
}

TEST(WindowedArena, SteadyStatePushIsAllocationFree) {
    WindowedTimestampArena window(8, 16);
    const std::vector<std::uint64_t> stamp(8, 42);
    window.push(stamp);  // warm
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 1000; ++i) (void)window.push(stamp);
    EXPECT_EQ(g_allocations.load(), before)
        << "the ring must recycle slots, never grow";
}

// ---- Batch kernels ----------------------------------------------------

TimestampArena sample_arena() {
    TimestampArena arena(3, 5);
    arena.allocate(std::vector<std::uint64_t>{0, 0, 0});
    arena.allocate(std::vector<std::uint64_t>{1, 2, 3});
    arena.allocate(std::vector<std::uint64_t>{2, 2, 3});
    arena.allocate(std::vector<std::uint64_t>{3, 0, 0});
    arena.allocate(std::vector<std::uint64_t>{1, 2, 3});
    return arena;
}

TEST(TimestampArena, LeqManyMatchesScalarKernel) {
    const TimestampArena arena = sample_arena();
    const std::vector<std::uint64_t> probe{1, 2, 3};
    std::vector<std::uint8_t> out(arena.size());
    leq_many(arena, probe, out);
    for (std::size_t i = 0; i < arena.size(); ++i) {
        EXPECT_EQ(out[i] != 0,
                  ts::leq(probe, arena.span(static_cast<TsHandle>(i))))
            << "slot " << i;
    }
}

TEST(TimestampArena, RelateManyMatchesScalarKernel) {
    const TimestampArena arena = sample_arena();
    const std::vector<std::uint64_t> probe{1, 2, 3};
    std::vector<std::uint8_t> out(arena.size());
    relate_many(arena, probe, out);
    for (std::size_t i = 0; i < arena.size(); ++i) {
        EXPECT_EQ(out[i],
                  ts::relate(arena.span(static_cast<TsHandle>(i)), probe))
            << "slot " << i;
    }
}

TEST(TimestampArena, DominatorsOfFindsStrictDominators) {
    const TimestampArena arena = sample_arena();
    const std::vector<std::uint64_t> probe{1, 2, 3};
    const std::vector<TsHandle> dominators = dominators_of(arena, probe);
    // Only slot 2 = (2,2,3) strictly dominates (1,2,3); the two equal
    // slots (1 and 4) do not.
    ASSERT_EQ(dominators.size(), 1u);
    EXPECT_EQ(dominators[0], 2u);
}

TEST(TimestampArena, BatchKernelsRejectMismatchedSizes) {
    const TimestampArena arena = sample_arena();
    const std::vector<std::uint64_t> narrow{1, 2};
    std::vector<std::uint8_t> out(arena.size());
    EXPECT_THROW(leq_many(arena, narrow, out), std::invalid_argument);
    const std::vector<std::uint64_t> probe{1, 2, 3};
    std::vector<std::uint8_t> short_out(arena.size() - 1);
    EXPECT_THROW(relate_many(arena, probe, short_out),
                 std::invalid_argument);
}

// ---- Span kernels agree with the VectorTimestamp compat shims ---------

TEST(TsKernels, KernelsMatchVectorTimestampMethods) {
    const VectorTimestamp u(std::vector<std::uint64_t>{1, 2, 3});
    const VectorTimestamp v(std::vector<std::uint64_t>{2, 2, 4});
    const VectorTimestamp w(std::vector<std::uint64_t>{0, 5, 0});

    EXPECT_EQ(ts::leq(u.components(), v.components()), u.leq(v));
    EXPECT_EQ(ts::less(u.components(), v.components()), u.less(v));
    EXPECT_EQ(ts::concurrent(u.components(), w.components()),
              u.concurrent_with(w));
    EXPECT_EQ(ts::total(u.components()), u.total());

    VectorTimestamp joined = u;
    joined.join(v);
    std::vector<std::uint64_t> raw{1, 2, 3};
    ts::join(raw, v.components());
    EXPECT_EQ(joined, VectorTimestamp(raw));
}

TEST(TsKernels, RelateEncodesAllFourOutcomes) {
    const std::vector<std::uint64_t> low{1, 1};
    const std::vector<std::uint64_t> high{2, 2};
    const std::vector<std::uint64_t> cross{0, 3};
    EXPECT_EQ(ts::relate(low, high), ts::kRowLeq);
    EXPECT_EQ(ts::relate(high, low), ts::kProbeLeq);
    EXPECT_EQ(ts::relate(low, low), ts::kRowLeq | ts::kProbeLeq);
    EXPECT_EQ(ts::relate(low, cross), 0);
}

// ---- Zero-allocation steady state -------------------------------------

TEST(TimestampArena, OnlineHotPathIsAllocationFreeInSteadyState) {
    const Graph topology = topology::star(6);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper engine(decomposition);

    TimestampArena arena(engine.width(), 256);
    // Warm-up: sizes the engine's internal scratch and fills the arena
    // once so every later round runs inside reserved capacity.
    for (ProcessId client = 1; client < 6; ++client) {
        engine.timestamp_message(0, client, arena);
    }
    arena.clear();

    const std::size_t before = g_allocations.load();
    for (int round = 0; round < 16; ++round) {
        arena.clear();
        for (int i = 0; i < 16; ++i) {
            for (ProcessId client = 1; client < 6; ++client) {
                engine.timestamp_message(0, client, arena);
            }
        }
    }
    EXPECT_EQ(g_allocations.load(), before)
        << "the Fig. 5 rendezvous hot path must not allocate per message";
}

TEST(TimestampArena, MetricsHotPathIsAllocationFreeInSteadyState) {
    const Graph topology = topology::star(6);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper engine(decomposition);

    // Registration (counter/gauge/histogram creation) is allowed to
    // allocate; it happens once, before the measured region.
    obs::MetricsRegistry registry;
    TimestampArena arena(engine.width(), 256);
    arena.attach_metrics(registry, "arena");
    engine.attach_metrics(registry);
    obs::Histogram& latency = registry.histogram("probe_latency");
    obs::Counter& probes = registry.counter("probes");

    for (ProcessId client = 1; client < 6; ++client) {
        engine.timestamp_message(0, client, arena);
    }
    arena.clear();
    std::vector<std::uint8_t> out(16 * 5);
    const std::vector<std::uint64_t> probe(engine.width(), 1);

    const std::size_t before = g_allocations.load();
    for (int round = 0; round < 16; ++round) {
        arena.clear();
        for (int i = 0; i < 16; ++i) {
            for (ProcessId client = 1; client < 6; ++client) {
                engine.timestamp_message(0, client, arena);
                probes.inc();
                latency.record(static_cast<std::uint64_t>(i));
            }
        }
        // The instrumented batch kernel (note_kernel) is on the same
        // guarantee.
        out.resize(arena.size());
        leq_many(arena, probe, out);
    }
    EXPECT_EQ(g_allocations.load(), before)
        << "counter inc + histogram record on the arena hot path must not "
           "touch the heap";
    EXPECT_EQ(registry.counter("arena_slots").value(),
              registry.counter("clock_online_stamps").value());
    EXPECT_EQ(probes.value(), 16u * 16u * 5u);
    EXPECT_EQ(latency.count(), 16u * 16u * 5u);
    EXPECT_EQ(registry.counter("arena_kernel_calls").value(), 16u);
}

// A copy or move of an attached arena starts detached, assignment keeps
// the target's own attachment, and detach_metrics() detaches: only the
// attached arena's traffic reaches the registry, so a copy neither
// double-counts nor keeps a pointer into a registry it does not know.
TEST(TimestampArena, CopiesStartDetachedFromTheRegistry) {
    obs::MetricsRegistry registry;
    TimestampArena attached(2);
    attached.attach_metrics(registry, "arena");
    attached.allocate();

    TimestampArena copy = attached;
    copy.allocate();
    TimestampArena moved = std::move(copy);
    moved.allocate();
    TimestampArena assigned(2);
    assigned = attached;
    assigned.allocate();
    EXPECT_EQ(registry.counter("arena_slots").value(), 1u);

    attached = moved;
    attached.allocate();
    EXPECT_EQ(registry.counter("arena_slots").value(), 2u);
    EXPECT_EQ(attached.size(), 4u);

    attached.detach_metrics();
    attached.allocate();
    EXPECT_EQ(registry.counter("arena_slots").value(), 2u);
}

// Clock state grows with the topology, not with N²: each process's peer
// table spans its neighbour ids only. On the client–server example (4
// servers, 10,000 clients, d = 4) an N-entry table per process held
// about 400 MB; the servers' tables span N, the clients' span 4.
TEST(OnlineClock, ClientServerTimestamperHeapStaysLinear) {
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology::client_server(4, 10000)));
    ASSERT_EQ(decomposition->size(), 4u);
    const std::size_t before = g_live_bytes.load();
    std::size_t held = 0;
    {
        const OnlineTimestamper timestamper(decomposition);
        held = g_live_bytes.load() - before;
    }
    EXPECT_LE(held, std::size_t{4} << 20)
        << "one OnlineTimestamper over cs:4:10000 holds " << held
        << " live heap bytes";
}

// The rendezvous path through the whole simulated protocol — frame
// encode/decode, the simulator queue, the REQ/ACK windows and buffered
// REQs — recycles its buffers, so a longer run costs only its result:
// each committed message's own VectorTimestamp (plus amortized growth of
// the result vectors). Measured as the slope between two run lengths so
// per-channel and per-run set-up cancels out, on the classic profile and
// on the batched one (batching, ACK coalescing and delta on), whose TX
// queues copy every frame and hand its packet body back to the network.
TEST(RendezvousProtocol, SteadyStateAllocatesOnlyTheResult) {
    const Graph grid = topology::grid(8, 8);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(grid));
    Rng rng(0xA110C);
    WorkloadOptions workload;
    workload.num_messages = 2000;
    const SyncComputation short_script =
        random_computation(grid, workload, rng);
    workload.num_messages = 4000;
    const SyncComputation long_script =
        random_computation(grid, workload, rng);
    SynchronizerOptions classic;
    classic.latency_lo = 1;
    classic.latency_hi = 4;
    SynchronizerOptions batched = classic;
    batched.protocol.batching = true;
    batched.protocol.coalesce_acks = true;
    batched.protocol.delta = true;

    for (const SynchronizerOptions* options : {&classic, &batched}) {
        SCOPED_TRACE(options == &classic ? "classic" : "batched");
        const auto allocations_of = [&](const SyncComputation& script) {
            const std::size_t before = g_allocations.load();
            const SynchronizerResult result =
                run_rendezvous_protocol(decomposition, script, *options);
            const std::size_t used = g_allocations.load() - before;
            EXPECT_EQ(result.message_stamps.size(), script.num_messages());
            return used;
        };
        (void)allocations_of(short_script);  // warm-up
        const std::size_t short_run = allocations_of(short_script);
        const std::size_t long_run = allocations_of(long_script);
        const double per_extra_message =
            (static_cast<double>(long_run) - static_cast<double>(short_run)) /
            static_cast<double>(long_script.num_messages() -
                                short_script.num_messages());
        EXPECT_LE(per_extra_message, 1.5)
            << short_run << " allocations for "
            << short_script.num_messages() << " messages, " << long_run
            << " for " << long_script.num_messages();
    }
}

// Each committed stamp is written once, into the result the run returns:
// no staging copy of the stamps is live beside the result, so the run's
// peak live heap is the returned stamps plus bookkeeping (the realized
// computation, engines, channels, packets) under two thirds of a second
// copy of them. A staged copy of every stamp would put the peak near
// 2.5 copies.
TEST(RendezvousProtocol, PeakHeapHoldsOneCopyOfTheStamps) {
    const Graph grid = topology::grid(8, 8);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(grid));
    ASSERT_EQ(decomposition->size(), 32u);
    Rng rng(0x5EA1);
    WorkloadOptions workload;
    workload.num_messages = 8000;
    const SyncComputation script = random_computation(grid, workload, rng);
    SynchronizerOptions options;
    options.latency_lo = 1;
    options.latency_hi = 4;

    const std::size_t before = g_live_bytes.load();
    g_peak_live_bytes = before;
    const SynchronizerResult result =
        run_rendezvous_protocol(decomposition, script, options);
    const std::size_t peak = g_peak_live_bytes.load() - before;

    ASSERT_EQ(result.message_stamps.size(), script.num_messages());
    std::size_t stamp_bytes =
        result.message_stamps.capacity() * sizeof(VectorTimestamp);
    for (const VectorTimestamp& stamp : result.message_stamps) {
        stamp_bytes += stamp.width() * sizeof(std::uint64_t);
    }
    EXPECT_LE(peak, stamp_bytes + 2 * stamp_bytes / 3)
        << "peak live heap " << peak << " B for " << stamp_bytes
        << " B of returned stamps";
}

}  // namespace
}  // namespace syncts
