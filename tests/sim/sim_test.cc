/**
 * @file
 * Unit tests for src/sim: memory image, allocator, scheduling
 * policies, and the execution engine (including the SC/analysis
 * atomicity properties the tracer must guarantee).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "memtrace/sink.hh"
#include "sim/address_allocator.hh"
#include "sim/engine.hh"
#include "sim/memory_image.hh"
#include "sim/scheduler.hh"

namespace persim {
namespace {

TEST(MemoryImage, LoadOfUntouchedMemoryIsZero)
{
    MemoryImage image;
    EXPECT_EQ(image.load(0x1234, 8), 0u);
    EXPECT_EQ(image.pageCount(), 0u);
}

TEST(MemoryImage, StoreLoadRoundTrip)
{
    MemoryImage image;
    image.store(0x1000, 8, 0x1122334455667788ULL);
    EXPECT_EQ(image.load(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(image.load(0x1000, 4), 0x55667788u);
    EXPECT_EQ(image.load(0x1004, 4), 0x11223344u);
    EXPECT_EQ(image.load(0x1007, 1), 0x11u);
}

TEST(MemoryImage, PartialStorePreservesNeighbors)
{
    MemoryImage image;
    image.store(0x2000, 8, ~0ULL);
    image.store(0x2002, 2, 0);
    EXPECT_EQ(image.load(0x2000, 8), 0xffffffff0000ffffULL);
}

TEST(MemoryImage, CrossPageAccess)
{
    MemoryImage image;
    const Addr addr = MemoryImage::page_size - 4;
    image.store(addr, 8, 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(image.load(addr, 8), 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(image.pageCount(), 2u);
}

TEST(MemoryImage, BulkBytes)
{
    MemoryImage image;
    const char msg[] = "persistency";
    image.writeBytes(0x3000, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    image.readBytes(out, 0x3000, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(MemoryImage, RejectsBadSizes)
{
    MemoryImage image;
    EXPECT_THROW(image.load(0, 0), FatalError);
    EXPECT_THROW(image.load(0, 9), FatalError);
    EXPECT_THROW(image.store(0, 16, 0), FatalError);
}

/**
 * Byte-map reference model: the plain semantics MemoryImage's word
 * fast path and page-span copies must reproduce.
 */
class ByteModel
{
  public:
    std::uint64_t
    load(Addr addr, unsigned size) const
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < size; ++i)
            value |= static_cast<std::uint64_t>(byte(addr + i)) << (8 * i);
        return value;
    }

    void
    store(Addr addr, unsigned size, std::uint64_t value)
    {
        for (unsigned i = 0; i < size; ++i)
            bytes_[addr + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
    }

    std::uint8_t
    byte(Addr addr) const
    {
        const auto it = bytes_.find(addr);
        return it == bytes_.end() ? 0 : it->second;
    }

    void clear() { bytes_.clear(); }

  private:
    std::map<Addr, std::uint8_t> bytes_;
};

/** Size mask of an n-byte access. */
std::uint64_t
lowBytes(std::uint64_t value, unsigned size)
{
    return size == 8 ? value : value & ((1ULL << (8 * size)) - 1);
}

TEST(MemoryImage, AccessesNearThePageEndRoundTrip)
{
    // Every size at every offset of a page's last word: the ones that
    // fit take the in-page path, the rest straddle into the next page.
    constexpr std::uint64_t page = MemoryImage::page_size;
    const std::uint64_t value = 0x8877665544332211ULL;
    for (unsigned size = 1; size <= 8; ++size) {
        for (std::uint64_t offset = page - 8; offset < page; ++offset) {
            MemoryImage image;
            ByteModel model;
            // Guard bytes on both sides must survive the store.
            image.store(3 * page + offset - 8, 8, ~0ULL);
            model.store(3 * page + offset - 8, 8, ~0ULL);
            image.store(3 * page + offset + size, 8, ~0ULL);
            model.store(3 * page + offset + size, 8, ~0ULL);

            const Addr addr = 3 * page + offset;
            image.store(addr, size, value);
            model.store(addr, size, value);
            EXPECT_EQ(image.load(addr, size), lowBytes(value, size))
                << "size " << size << " offset " << offset;
            for (Addr a = addr - 8; a < addr + size + 8; ++a)
                EXPECT_EQ(image.load(a, 1), model.load(a, 1))
                    << "size " << size << " offset " << offset
                    << " byte 0x" << std::hex << a;
            for (unsigned probe = 1; probe <= 8; ++probe)
                EXPECT_EQ(image.load(addr, probe),
                          model.load(addr, probe));
            EXPECT_EQ(image.pageCount(), 2u); // The guard straddles.
        }
    }
}

TEST(MemoryImage, AbsentPagesReadZeroWithoutMaterializing)
{
    MemoryImage image;
    constexpr std::uint64_t page = MemoryImage::page_size;
    image.store(page + 16, 8, ~0ULL);
    for (unsigned size = 1; size <= 8; ++size) {
        EXPECT_EQ(image.load(5 * page + 8, size), 0u);
        EXPECT_EQ(image.load(5 * page - 3, size), 0u); // Straddles.
        EXPECT_EQ(image.load(page + 24, size), 0u);    // Present page.
    }
    // Half the straddling word lies on the present page.
    EXPECT_EQ(image.load(page - 4, 8), 0u);
    EXPECT_EQ(image.load(2 * page - 4, 8), 0u);
    std::uint8_t buf[64];
    std::memset(buf, 0xab, sizeof(buf));
    image.readBytes(buf, 9 * page - 32, sizeof(buf));
    for (const std::uint8_t byte : buf)
        EXPECT_EQ(byte, 0u);
    EXPECT_EQ(image.pageCount(), 1u);
}

TEST(MemoryImage, BulkBytesSpanThreePages)
{
    constexpr std::uint64_t page = MemoryImage::page_size;
    std::vector<std::uint8_t> data(page + 40);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 1);

    MemoryImage image;
    const Addr base = 2 * page - 20; // Pages 1, 2 and 3.
    image.writeBytes(base, data.data(), data.size());
    EXPECT_EQ(image.pageCount(), 3u);

    std::vector<std::uint8_t> out(data.size());
    image.readBytes(out.data(), base, out.size());
    EXPECT_EQ(out, data);
    for (std::size_t i = 0; i < data.size(); i += 97)
        EXPECT_EQ(image.load(base + i, 1), data[i]);
    EXPECT_EQ(image.load(base - 1, 1), 0u);
    EXPECT_EQ(image.load(base + data.size(), 1), 0u);

    // A read across a hole: pages 5 and 7 present, 6 absent.
    MemoryImage holes;
    holes.store(6 * page - 8, 8, 0x0101010101010101ULL);
    holes.store(7 * page, 8, 0x0202020202020202ULL);
    std::vector<std::uint8_t> span(page + 16);
    holes.readBytes(span.data(), 6 * page - 8, span.size());
    for (std::size_t i = 0; i < span.size(); ++i) {
        const std::uint8_t expect =
            i < 8 ? 1 : i >= page + 8 ? 2 : 0;
        EXPECT_EQ(span[i], expect) << "byte " << i;
    }
    EXPECT_EQ(holes.pageCount(), 2u);
}

TEST(MemoryImage, ZeroKeepsPagesForReuse)
{
    MemoryImage image;
    constexpr std::uint64_t page = MemoryImage::page_size;
    image.store(0x100, 8, 0x1122334455667788ULL);
    image.store(4 * page - 2, 4, 0xdeadbeef);
    ASSERT_EQ(image.pageCount(), 3u);

    image.zero();
    EXPECT_EQ(image.pageCount(), 3u);
    EXPECT_EQ(image.load(0x100, 8), 0u);
    EXPECT_EQ(image.load(4 * page - 2, 4), 0u);

    // The retained pages take new contents; new pages still appear.
    image.store(0x104, 2, 0xbeef);
    image.store(8 * page, 1, 0x5a);
    EXPECT_EQ(image.load(0x100, 8), 0x0000beef00000000ULL);
    EXPECT_EQ(image.load(8 * page, 1), 0x5au);
    EXPECT_EQ(image.load(4 * page - 2, 4), 0u);
    EXPECT_EQ(image.pageCount(), 4u);

    image.clear();
    EXPECT_EQ(image.pageCount(), 0u);
    EXPECT_EQ(image.load(0x104, 2), 0u);
}

TEST(MemoryImage, CloneIsIndependent)
{
    MemoryImage image;
    image.store(0x40, 8, 0xaaaaaaaaaaaaaaaaULL);
    MemoryImage copy = image.clone();
    EXPECT_EQ(copy.load(0x40, 8), 0xaaaaaaaaaaaaaaaaULL);

    image.store(0x40, 8, 1);
    copy.store(0x48, 8, 2);
    copy.store(0x10000, 8, 3); // A page only the copy has.
    EXPECT_EQ(image.load(0x40, 8), 1u);
    EXPECT_EQ(image.load(0x48, 8), 0u);
    EXPECT_EQ(image.load(0x10000, 8), 0u);
    EXPECT_EQ(copy.load(0x40, 8), 0xaaaaaaaaaaaaaaaaULL);
    EXPECT_EQ(copy.load(0x48, 8), 2u);
    EXPECT_EQ(image.pageCount(), 1u);
    EXPECT_EQ(copy.pageCount(), 2u);

    copy.zero();
    EXPECT_EQ(image.load(0x40, 8), 1u);

    // A moved-from image is empty and still usable.
    MemoryImage moved = std::move(image);
    EXPECT_EQ(moved.load(0x40, 8), 1u);
    EXPECT_EQ(image.pageCount(), 0u);
    EXPECT_EQ(image.load(0x40, 8), 0u);
    image.store(0x40, 8, 9);
    EXPECT_EQ(image.load(0x40, 8), 9u);
    EXPECT_EQ(moved.load(0x40, 8), 1u);
}

TEST(MemoryImage, MatchesAByteMapUnderRandomAccesses)
{
    // Addresses cluster around the boundaries of a few pages so that
    // straddling accesses, absent pages and page spans all occur.
    constexpr std::uint64_t page = MemoryImage::page_size;
    Rng rng(0x6d656d696d616765ULL);
    auto randomAddr = [&rng]() -> Addr {
        const Addr boundary = (1 + rng.nextBounded(6)) * page;
        return boundary - 24 + rng.nextBounded(48);
    };

    MemoryImage image;
    ByteModel model;
    for (int step = 0; step < 10000; ++step) {
        const std::uint64_t pick = rng.nextBounded(100);
        if (pick < 40) {
            const Addr addr = randomAddr();
            const auto size = static_cast<unsigned>(1 + rng.nextBounded(8));
            const std::uint64_t value = rng.next();
            image.store(addr, size, value);
            model.store(addr, size, value);
        } else if (pick < 80) {
            const Addr addr = randomAddr();
            const auto size = static_cast<unsigned>(1 + rng.nextBounded(8));
            ASSERT_EQ(image.load(addr, size), model.load(addr, size))
                << "step " << step << " load " << size << " @0x"
                << std::hex << addr;
        } else if (pick < 90) {
            const Addr addr = randomAddr();
            std::vector<std::uint8_t> bytes(rng.nextBounded(page + 64));
            for (auto &byte : bytes)
                byte = static_cast<std::uint8_t>(rng.next());
            image.writeBytes(addr, bytes.data(), bytes.size());
            for (std::size_t i = 0; i < bytes.size(); ++i)
                model.store(addr + i, 1, bytes[i]);
        } else if (pick < 98) {
            const Addr addr = randomAddr();
            std::vector<std::uint8_t> bytes(rng.nextBounded(page + 64));
            image.readBytes(bytes.data(), addr, bytes.size());
            for (std::size_t i = 0; i < bytes.size(); ++i)
                ASSERT_EQ(bytes[i], model.byte(addr + i))
                    << "step " << step << " read @0x" << std::hex
                    << addr + i;
        } else if (pick < 99) {
            image.zero();
            model.clear();
        } else {
            image = image.clone();
        }
    }
}

TEST(Allocator, AllocationsAreDisjointAndAligned)
{
    AddressAllocator alloc(0x1000, 4096);
    std::set<Addr> seen;
    for (int i = 0; i < 16; ++i) {
        const Addr a = alloc.allocate(24, 8);
        EXPECT_TRUE(isAligned(a, 8));
        for (Addr b : seen)
            EXPECT_TRUE(a + 24 <= b || b + 24 <= a);
        seen.insert(a);
    }
    EXPECT_EQ(alloc.liveBlocks(), 16u);
}

TEST(Allocator, RespectsAlignment)
{
    AddressAllocator alloc(0x1000, 1 << 16);
    alloc.allocate(8);
    const Addr a = alloc.allocate(64, 256);
    EXPECT_TRUE(isAligned(a, 256));
}

TEST(Allocator, FreeEnablesReuse)
{
    AddressAllocator alloc(0x1000, 256);
    const Addr a = alloc.allocate(128);
    alloc.free(a);
    const Addr b = alloc.allocate(128);
    EXPECT_EQ(a, b);
}

TEST(Allocator, CoalescesAdjacentFreeRanges)
{
    AddressAllocator alloc(0x1000, 256);
    const Addr a = alloc.allocate(64);
    const Addr b = alloc.allocate(64);
    const Addr c = alloc.allocate(64);
    alloc.free(a);
    alloc.free(c);
    alloc.free(b);
    // The whole region should be one free range again.
    const Addr big = alloc.allocate(256);
    EXPECT_EQ(big, 0x1000u);
}

TEST(Allocator, ExhaustionIsFatal)
{
    AddressAllocator alloc(0x1000, 64);
    alloc.allocate(64);
    EXPECT_THROW(alloc.allocate(8), FatalError);
}

TEST(Allocator, DoubleFreeIsFatal)
{
    AddressAllocator alloc(0x1000, 64);
    const Addr a = alloc.allocate(8);
    alloc.free(a);
    EXPECT_THROW(alloc.free(a), FatalError);
}

TEST(Allocator, TracksLiveBytes)
{
    AddressAllocator alloc(0x1000, 1024);
    const Addr a = alloc.allocate(100); // Rounded to 104.
    EXPECT_EQ(alloc.bytesLive(), 104u);
    EXPECT_EQ(alloc.blockSize(a), 104u);
    EXPECT_TRUE(alloc.isAllocated(a));
    alloc.free(a);
    EXPECT_EQ(alloc.bytesLive(), 0u);
    EXPECT_FALSE(alloc.isAllocated(a));
}

TEST(Scheduler, RoundRobinCycles)
{
    RoundRobinPolicy policy(1);
    const std::vector<ThreadId> runnable{0, 1, 2};
    ThreadId current = invalid_thread;
    std::vector<ThreadId> order;
    for (int i = 0; i < 6; ++i) {
        current = policy.pick(runnable, current).thread;
        order.push_back(current);
    }
    EXPECT_EQ(order, (std::vector<ThreadId>{0, 1, 2, 0, 1, 2}));
}

TEST(Scheduler, RoundRobinSkipsFinishedThreads)
{
    RoundRobinPolicy policy(1);
    const std::vector<ThreadId> runnable{0, 2};
    EXPECT_EQ(policy.pick(runnable, 0).thread, 2u);
    EXPECT_EQ(policy.pick(runnable, 2).thread, 0u);
    EXPECT_EQ(policy.pick(runnable, 1).thread, 2u);
}

TEST(Scheduler, RandomIsDeterministicPerSeed)
{
    RandomPolicy a(99, 4);
    RandomPolicy b(99, 4);
    const std::vector<ThreadId> runnable{0, 1, 2, 3};
    for (int i = 0; i < 50; ++i) {
        const auto da = a.pick(runnable, 0);
        const auto db = b.pick(runnable, 0);
        EXPECT_EQ(da.thread, db.thread);
        EXPECT_EQ(da.quantum, db.quantum);
    }
}

TEST(Scheduler, RandomVisitsAllThreads)
{
    RandomPolicy policy(7, 1);
    const std::vector<ThreadId> runnable{0, 1, 2, 3};
    std::set<ThreadId> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(policy.pick(runnable, 0).thread);
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Engine, SingleThreadBasicOps)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.pmalloc(16);
        ctx.store(a, 0x1234);
        EXPECT_EQ(ctx.load(a), 0x1234u);
        const Addr v = ctx.vmalloc(8);
        ctx.store(v, 9);
        EXPECT_EQ(ctx.load(v), 9u);
    }});
    EXPECT_GT(engine.eventCount(), 0u);
    // Events: ThreadStart, PMalloc, store, load, store, load, ThreadEnd.
    EXPECT_EQ(trace.size(), 7u);
    EXPECT_EQ(trace.events().front().kind, EventKind::ThreadStart);
    EXPECT_EQ(trace.events().back().kind, EventKind::ThreadEnd);
}

TEST(Engine, SetupRunsAsThreadZero)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    Addr shared = 0;
    engine.runSetup([&shared](ThreadCtx &ctx) {
        shared = ctx.pmalloc(8);
        ctx.store(shared, 77);
    });
    engine.run({[shared](ThreadCtx &ctx) {
        EXPECT_EQ(ctx.load(shared), 77u);
    }});
    EXPECT_EQ(trace.events()[0].kind, EventKind::PMalloc);
    EXPECT_EQ(trace.events()[0].thread, 0u);
}

TEST(Engine, RmwSemantics)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        ctx.store(a, 10);
        EXPECT_EQ(ctx.rmwExchange(a, 20), 10u);
        EXPECT_EQ(ctx.rmwFetchAdd(a, 5), 20u);
        EXPECT_EQ(ctx.load(a), 25u);
        EXPECT_EQ(ctx.rmwCas(a, 25, 30), 25u); // Success.
        EXPECT_EQ(ctx.load(a), 30u);
        EXPECT_EQ(ctx.rmwCas(a, 99, 40), 30u); // Failure.
        EXPECT_EQ(ctx.load(a), 30u);
    }});
}

TEST(Engine, FailedCasTracesAsLoad)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        ctx.store(a, 1);
        ctx.rmwCas(a, 1, 2); // Succeeds -> Rmw.
        ctx.rmwCas(a, 1, 3); // Fails -> Load.
    }});
    std::map<EventKind, int> kinds;
    for (const auto &event : trace.events())
        ++kinds[event.kind];
    EXPECT_EQ(kinds[EventKind::Rmw], 1);
    EXPECT_EQ(kinds[EventKind::Load], 1);
}

TEST(Engine, CopySplitsAtWordBoundaries)
{
    EngineConfig config;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.pmalloc(32);
        std::uint8_t buf[20];
        for (int i = 0; i < 20; ++i)
            buf[i] = static_cast<std::uint8_t>(i + 1);
        ctx.copyIn(a + 3, buf, 20); // Unaligned start.
        std::uint8_t out[20] = {};
        ctx.copyOut(out, a + 3, 20);
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(out[i], buf[i]);
    }});
    for (const auto &event : trace.events()) {
        if (!event.isAccess())
            continue;
        EXPECT_LE(event.size, 8);
        // No access crosses an 8-byte boundary.
        EXPECT_EQ(event.addr / 8, (event.addr + event.size - 1) / 8)
            << formatEvent(event);
    }
}

TEST(Engine, CopySimMovesDataWithinSimMemory)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &ctx) {
        const Addr src = ctx.pmalloc(16);
        const Addr dst = ctx.pmalloc(16);
        ctx.store(src, 0xabcdef12345678ULL);
        ctx.store(src + 8, 0x11223344u, 4);
        ctx.copySim(dst, src, 12);
        EXPECT_EQ(ctx.load(dst), 0xabcdef12345678ULL);
        EXPECT_EQ(ctx.load(dst + 8, 4), 0x11223344u);
    }});
}

/** Events of each thread appear in program order in the trace. */
TEST(Engine, TraceRespectsProgramOrder)
{
    EngineConfig config;
    config.seed = 123;
    config.quantum = 2;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);

    Addr base = 0;
    engine.runSetup([&base](ThreadCtx &ctx) {
        base = ctx.pmalloc(1024);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([base, t](ThreadCtx &ctx) {
            for (int i = 0; i < 50; ++i)
                ctx.store(base + 64 * t, i);
        });
    }
    engine.run(workers);

    std::map<ThreadId, std::uint64_t> last_value;
    std::map<ThreadId, bool> seen_any;
    SeqNum expected_seq = 0;
    for (const auto &event : trace.events()) {
        EXPECT_EQ(event.seq, expected_seq++);
        if (event.kind != EventKind::Store || event.thread == 0)
            continue;
        if (seen_any[event.thread]) {
            EXPECT_EQ(event.value, last_value[event.thread] + 1);
        }
        last_value[event.thread] = event.value;
        seen_any[event.thread] = true;
    }
}

/** Loads return the most recent prior store in the global order (SC). */
TEST(Engine, TraceIsSequentiallyConsistent)
{
    EngineConfig config;
    config.seed = 77;
    config.quantum = 1;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);

    Addr cell = 0;
    engine.runSetup([&cell](ThreadCtx &ctx) {
        cell = ctx.pmalloc(8);
        ctx.store(cell, 0);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 3; ++t) {
        workers.push_back([cell, t](ThreadCtx &ctx) {
            for (int i = 0; i < 30; ++i) {
                ctx.load(cell);
                ctx.store(cell, static_cast<std::uint64_t>(t) * 1000 + i);
            }
        });
    }
    engine.run(workers);

    std::uint64_t current = ~0ULL;
    for (const auto &event : trace.events()) {
        if (!event.isAccess() || event.addr != cell)
            continue;
        if (event.kind == EventKind::Store) {
            current = event.value;
        } else if (current != ~0ULL) {
            EXPECT_EQ(event.value, current)
                << "load observed a stale value at seq " << event.seq;
        }
    }
}

TEST(Engine, DeterministicInterleavingPerSeed)
{
    auto run = [](std::uint64_t seed) {
        EngineConfig config;
        config.seed = seed;
        config.quantum = 3;
        InMemoryTrace trace;
        ExecutionEngine engine(config, &trace);
        Addr base = 0;
        engine.runSetup([&base](ThreadCtx &ctx) {
            base = ctx.pmalloc(256);
        });
        std::vector<ExecutionEngine::WorkerFn> workers;
        for (int t = 0; t < 3; ++t) {
            workers.push_back([base, t](ThreadCtx &ctx) {
                for (int i = 0; i < 20; ++i)
                    ctx.store(base + 8 * t, i);
            });
        }
        engine.run(workers);
        std::vector<ThreadId> order;
        for (const auto &event : trace.events())
            order.push_back(event.thread);
        return order;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(Engine, MaxEventsGuardsAgainstLivelock)
{
    EngineConfig config;
    config.max_events = 100;
    ExecutionEngine engine(config, nullptr);
    EXPECT_THROW(engine.run({[](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        for (;;)
            ctx.load(a);
    }}), FatalError);
}

TEST(Engine, MaxEventsAbortsAllThreads)
{
    EngineConfig config;
    config.max_events = 200;
    ExecutionEngine engine(config, nullptr);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 3; ++t) {
        workers.push_back([](ThreadCtx &ctx) {
            const Addr a = ctx.vmalloc(8);
            for (;;)
                ctx.load(a);
        });
    }
    EXPECT_THROW(engine.run(workers), FatalError);
}

TEST(Engine, WorkerExceptionPropagates)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    std::vector<ExecutionEngine::WorkerFn> workers;
    workers.push_back([](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        for (int i = 0; i < 10; ++i)
            ctx.store(a, i);
        PERSIM_FATAL("worker gave up");
    });
    workers.push_back([](ThreadCtx &ctx) {
        const Addr a = ctx.vmalloc(8);
        for (int i = 0; i < 1000000; ++i)
            ctx.store(a, i);
    });
    EXPECT_THROW(engine.run(workers), FatalError);
}

TEST(Engine, RunTwiceIsFatal)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    engine.run({[](ThreadCtx &) {}});
    EXPECT_THROW(engine.run({[](ThreadCtx &) {}}), FatalError);
}

TEST(Engine, DebugLoadSeesFinalState)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    Addr a = 0;
    engine.runSetup([&a](ThreadCtx &ctx) {
        a = ctx.pmalloc(8);
    });
    engine.run({[a](ThreadCtx &ctx) {
        ctx.store(a, 4242);
    }});
    EXPECT_EQ(engine.debugLoad(a), 4242u);
    std::uint8_t bytes[2];
    engine.debugReadBytes(bytes, a, 2);
    EXPECT_EQ(bytes[0], 4242 & 0xff);
}

TEST(Engine, RoundRobinSchedulerWorks)
{
    EngineConfig config;
    config.scheduler = SchedulerKind::RoundRobin;
    config.quantum = 1;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([](ThreadCtx &ctx) {
            const Addr a = ctx.vmalloc(8);
            for (int i = 0; i < 10; ++i)
                ctx.store(a, i);
        });
    }
    engine.run(workers);
    // With quantum 1 and round-robin, thread ids should alternate for
    // the bulk of the trace.
    int alternations = 0;
    for (std::size_t i = 1; i < trace.size(); ++i)
        alternations += trace.events()[i].thread !=
            trace.events()[i - 1].thread;
    EXPECT_GT(alternations, static_cast<int>(trace.size() / 2));
}

/** Counts destructions: an RAII local that must unwind with its fiber. */
struct UnwindProbe
{
    explicit UnwindProbe(int *destroyed) : destroyed_(destroyed) {}
    ~UnwindProbe() { ++*destroyed_; }
    int *destroyed_;
};

/** Lines of /proc/self/maps: one per mapping of this process. */
std::size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

/** Resident set size in pages, from /proc/self/statm. */
std::size_t
residentPages()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t size = 0;
    std::size_t resident = 0;
    statm >> size >> resident;
    return resident;
}

TEST(EngineFibers, WorkersRunOnTheCallingThread)
{
    EngineConfig config;
    ExecutionEngine engine(config, nullptr);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(4);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([&seen, t](ThreadCtx &ctx) {
            const Addr a = ctx.vmalloc(8);
            for (int i = 0; i < 50; ++i)
                ctx.store(a, i);
            seen[t] = std::this_thread::get_id();
        });
    }
    engine.run(workers);
    for (const std::thread::id id : seen)
        EXPECT_EQ(id, caller);
}

TEST(EngineFibers, WorkerErrorUnwindsParkedFibers)
{
    // Round-robin, quantum 1: threads 0 and 1 each park at their first
    // store holding a probe, thread 2 throws on its first turn, and
    // thread 3 is never scheduled at all.
    EngineConfig config;
    config.scheduler = SchedulerKind::RoundRobin;
    config.quantum = 1;
    ExecutionEngine engine(config, nullptr);
    int destroyed = 0;
    bool never_ran = true;
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([&destroyed](ThreadCtx &ctx) {
            UnwindProbe probe(&destroyed);
            const Addr a = ctx.vmalloc(8);
            for (int i = 0;; ++i)
                ctx.store(a, i);
        });
    }
    workers.push_back([](ThreadCtx &) {
        throw std::runtime_error("worker gave up");
    });
    workers.push_back([&never_ran](ThreadCtx &) { never_ran = false; });
    EXPECT_THROW(engine.run(workers), std::runtime_error);
    EXPECT_EQ(destroyed, 2);
    EXPECT_TRUE(never_ran);
}

/** Round-robin, quantum 1, until a thread exits: then it throws. */
class ThrowAtExitPolicy : public SchedulingPolicy
{
  public:
    ScheduleDecision
    pick(const std::vector<ThreadId> &runnable, ThreadId current) override
    {
        if (current == invalid_thread && started_)
            throw std::runtime_error("policy gave up");
        started_ = true;
        return inner_.pick(runnable, current);
    }

  private:
    RoundRobinPolicy inner_{1};
    bool started_ = false;
};

TEST(EngineFibers, PolicyErrorAtThreadExitIsReported)
{
    // The successor pick of a finishing thread runs after its worker
    // returned: its error must still reach run(), not escape the fiber.
    ThrowAtExitPolicy policy;
    ExecutionEngine engine(EngineConfig{}, nullptr, &policy);
    int destroyed = 0;
    std::vector<ExecutionEngine::WorkerFn> workers;
    workers.push_back([](ThreadCtx &ctx) { ctx.vmalloc(8); });
    for (int t = 0; t < 2; ++t) {
        workers.push_back([&destroyed](ThreadCtx &ctx) {
            UnwindProbe probe(&destroyed);
            const Addr a = ctx.vmalloc(8);
            for (int i = 0; i < 50; ++i)
                ctx.store(a, i);
        });
    }
    EXPECT_THROW(engine.run(workers), std::runtime_error);
    EXPECT_EQ(destroyed, 2);
}

TEST(EngineFibers, CatchHandlersKeepTheirOwnException)
{
    // Both workers park inside a catch handler and interleave there:
    // each must still rethrow its own exception, not the other's.
    EngineConfig config;
    config.scheduler = SchedulerKind::RoundRobin;
    config.quantum = 1;
    ExecutionEngine engine(config, nullptr);
    std::vector<int> rethrown(2, -1);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([&rethrown, t](ThreadCtx &ctx) {
            const Addr a = ctx.vmalloc(8);
            try {
                throw t;
            } catch (int) {
                for (int i = 0; i < 10; ++i)
                    ctx.store(a, i);
                try {
                    throw;
                } catch (int caught) {
                    rethrown[t] = caught;
                }
            }
            EXPECT_EQ(std::uncaught_exceptions(), 0);
        });
    }
    engine.run(workers);
    EXPECT_EQ(rethrown, (std::vector<int>{0, 1}));
}

TEST(EngineFibers, MaxEventsUnwindsEveryFiber)
{
    EngineConfig config;
    config.scheduler = SchedulerKind::RoundRobin;
    config.quantum = 8;
    config.max_events = 200;
    ExecutionEngine engine(config, nullptr);
    int destroyed = 0;
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back([&destroyed](ThreadCtx &ctx) {
            UnwindProbe probe(&destroyed);
            const Addr a = ctx.vmalloc(8);
            for (;;)
                ctx.load(a);
        });
    }
    EXPECT_THROW(engine.run(workers), FatalError);
    EXPECT_EQ(destroyed, 4);
}

TEST(EngineFibers, DeepStackWorkerCompletes)
{
    EngineConfig config;
    config.quantum = 1;
    InMemoryTrace trace;
    ExecutionEngine engine(config, &trace);
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (int t = 0; t < 2; ++t) {
        workers.push_back([](ThreadCtx &ctx) {
            // ~128 KiB of live stack across scheduling points.
            volatile unsigned char frame[128 * 1024];
            const Addr a = ctx.vmalloc(8);
            for (std::size_t i = 0; i < sizeof(frame); i += 4096) {
                frame[i] = static_cast<unsigned char>(i >> 12);
                ctx.store(a, frame[i]);
            }
            for (std::size_t i = 0; i < sizeof(frame); i += 4096)
                EXPECT_EQ(frame[i], static_cast<unsigned char>(i >> 12));
        });
    }
    engine.run(workers);
    EXPECT_GT(trace.size(), 64u);
}

TEST(EngineFibers, BackToBackEnginesLeakNothing)
{
    // The explorer builds one engine per execution: thousands of
    // short 4-thread runs must return every stack mapping and page.
    const auto runOne = [](std::uint64_t seed) {
        EngineConfig config;
        config.seed = seed;
        ExecutionEngine engine(config, nullptr);
        std::vector<ExecutionEngine::WorkerFn> workers;
        for (int t = 0; t < 4; ++t) {
            workers.push_back([](ThreadCtx &ctx) {
                const Addr a = ctx.vmalloc(8);
                for (int i = 0; i < 8; ++i)
                    ctx.store(a, i);
            });
        }
        engine.run(workers);
    };
    for (std::uint64_t seed = 0; seed < 1000; ++seed)
        runOne(seed);
    const std::size_t maps_before = mappingCount();
    [[maybe_unused]] const std::size_t pages_before = residentPages();
    for (std::uint64_t seed = 1000; seed < 10000; ++seed)
        runOne(seed);
    // A leaked stack per run would add 36,000 mappings and at least
    // as many resident pages; allow the allocator a little slack.
    EXPECT_LE(mappingCount(), maps_before + 64);
#if !defined(__SANITIZE_ADDRESS__)
    // ASan's quarantine holds freed heap blocks resident by design
    // (LeakSanitizer checks the heap at exit instead).
    EXPECT_LE(residentPages(), pages_before + 16384);
#endif
}

} // namespace
} // namespace persim
