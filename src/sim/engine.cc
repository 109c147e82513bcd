#include "sim/engine.hh"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cxxabi.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>

#include "common/error.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace persim {

namespace {

/** Stack of every fiber. Pages are touched lazily, so only the depth
    a worker actually reaches costs memory. */
constexpr std::size_t fiber_stack_bytes = 1 << 20;

/**
 * The C++ runtime's per-thread exception state (layout fixed by the
 * Itanium C++ ABI, 2.2.2). Fibers share one OS thread, so a fiber
 * switched out inside a catch handler, or while unwinding, takes its
 * copy along.
 */
struct EhGlobals
{
    void *caught_exceptions = nullptr;
    unsigned int uncaught_exceptions = 0;
};

} // namespace

struct ExecutionEngine::Context
{
    ucontext_t uc{};
    EhGlobals eh;
#if defined(__SANITIZE_ADDRESS__)
    void *fake_stack = nullptr;
    const void *stack_bottom = nullptr;
    std::size_t stack_size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
    void *tsan_fiber = nullptr;
#endif
};

/**
 * One simulated thread. On the multi-threaded path it owns a fiber: a
 * context plus an mmap'd stack whose lowest page is PROT_NONE, so an
 * overflow faults instead of corrupting a neighbour.
 */
struct ExecutionEngine::ThreadSlot
{
    ThreadSlot() = default;
    ThreadSlot(const ThreadSlot &) = delete;
    ThreadSlot &operator=(const ThreadSlot &) = delete;

    ~ThreadSlot() { releaseFiber(); }

    /** Map the guarded stack and point the context at fiberEntry. */
    void makeFiber(ExecutionEngine *engine, ThreadId tid)
    {
        const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        mapping_bytes = guard + fiber_stack_bytes;
        void *base = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
        if (base == MAP_FAILED)
            PERSIM_FATAL("cannot map a " << fiber_stack_bytes
                         << "-byte fiber stack: " << std::strerror(errno));
        mapping = base;
        if (mprotect(base, guard, PROT_NONE) != 0)
            PERSIM_FATAL("cannot protect a fiber stack guard page: "
                         << std::strerror(errno));

        void *stack = static_cast<char *>(base) + guard;
        getcontext(&context.uc);
        context.uc.uc_stack.ss_sp = stack;
        context.uc.uc_stack.ss_size = fiber_stack_bytes;
        context.uc.uc_link = nullptr;
        const auto self = reinterpret_cast<std::uintptr_t>(engine);
        makecontext(&context.uc,
                    reinterpret_cast<void (*)()>(&ExecutionEngine::fiberEntry),
                    3, static_cast<unsigned>(self >> 32),
                    static_cast<unsigned>(self), static_cast<unsigned>(tid));
#if defined(__SANITIZE_ADDRESS__)
        context.stack_bottom = stack;
        context.stack_size = fiber_stack_bytes;
#endif
#if defined(__SANITIZE_THREAD__)
        context.tsan_fiber = __tsan_create_fiber(0);
#endif
    }

    /** Unmap the stack; the fiber must not be running. */
    void releaseFiber()
    {
#if defined(__SANITIZE_THREAD__)
        if (context.tsan_fiber)
            __tsan_destroy_fiber(context.tsan_fiber);
        context.tsan_fiber = nullptr;
#endif
        if (mapping)
            munmap(mapping, mapping_bytes);
        mapping = nullptr;
    }

    Context context;
    void *mapping = nullptr;
    std::size_t mapping_bytes = 0;
    bool done = false;
    std::exception_ptr error;
};

ExecutionEngine::~ExecutionEngine() = default;

ExecutionEngine::ExecutionEngine(const EngineConfig &config, TraceSink *sink)
    : config_(config), sink_(sink),
      valloc_(volatile_base, config.volatile_capacity),
      palloc_(persistent_base, config.persistent_capacity),
      owned_policy_(makePolicy(config.scheduler, config.seed,
                               config.quantum)),
      policy_(owned_policy_.get())
{
    PERSIM_REQUIRE(volatile_base + config.volatile_capacity
                   <= persistent_base,
                   "volatile region overlaps the persistent region");
}

ExecutionEngine::ExecutionEngine(const EngineConfig &config, TraceSink *sink,
                                 SchedulingPolicy *policy)
    : config_(config), sink_(sink),
      valloc_(volatile_base, config.volatile_capacity),
      palloc_(persistent_base, config.persistent_capacity),
      policy_(policy)
{
    PERSIM_REQUIRE(policy != nullptr, "injected policy must not be null");
    PERSIM_REQUIRE(volatile_base + config.volatile_capacity
                   <= persistent_base,
                   "volatile region overlaps the persistent region");
}

void
ExecutionEngine::runSetup(const WorkerFn &fn)
{
    PERSIM_REQUIRE(!ran_, "runSetup must precede run");
    in_setup_ = true;
    ThreadCtx ctx(this, 0);
    try {
        fn(ctx);
        // Setup results must be visible to every worker.
        if (config_.consistency == ConsistencyModel::TSO)
            drainAll(0);
    } catch (...) {
        in_setup_ = false;
        throw;
    }
    in_setup_ = false;
}

void
ExecutionEngine::run(const std::vector<WorkerFn> &workers)
{
    PERSIM_REQUIRE(!ran_, "an ExecutionEngine can only run once");
    ran_ = true;

    if (workers.empty()) {
        if (sink_)
            sink_->onFinish();
        return;
    }

    const auto n = static_cast<ThreadId>(workers.size());
    serial_ = (n == 1);
    slots_.clear();
    for (ThreadId t = 0; t < n; ++t)
        slots_.push_back(std::make_unique<ThreadSlot>());
    runnable_.clear();
    for (ThreadId t = 0; t < n; ++t)
        runnable_.push_back(t);

    if (serial_)
        workerBody(0, workers[0]);
    else
        runFibers(workers);

    for (const auto &slot : slots_) {
        if (slot->error)
            std::rethrow_exception(slot->error);
    }
    if (sink_)
        sink_->onFinish();
}

void
ExecutionEngine::runFibers(const std::vector<WorkerFn> &workers)
{
    workers_ = &workers;
    caller_ = std::make_unique<Context>();
#if defined(__SANITIZE_THREAD__)
    caller_->tsan_fiber = __tsan_get_current_fiber();
#endif
    for (ThreadId t = 0; t < slots_.size(); ++t)
        slots_[t]->makeFiber(this, t);

    const ScheduleDecision d = policy_->pick(runnable_, invalid_thread);
    token_ = d.thread;
    quantum_left_ = d.quantum;
    // Fibers hand the token to each other directly; control comes
    // back here only when one finishes.
    while (token_ != invalid_thread && !aborting_)
        switchContext(*caller_, slots_[token_]->context);
    // Abort: resume every unfinished fiber once. It throws Aborted at
    // its next (or, never started, its first) scheduling point and
    // unwinds its own stack before it returns here.
    for (const auto &slot : slots_) {
        if (!slot->done)
            switchContext(*caller_, slot->context);
    }

    for (auto &slot : slots_)
        slot->releaseFiber();
    caller_.reset();
    workers_ = nullptr;
}

void
ExecutionEngine::fiberEntry(unsigned engine_hi, unsigned engine_lo,
                            unsigned tid)
{
    auto *engine = reinterpret_cast<ExecutionEngine *>(
        (static_cast<std::uintptr_t>(engine_hi) << 32) | engine_lo);
#if defined(__SANITIZE_ADDRESS__)
    // The first fiber to start learns the caller's stack from the
    // switch that entered it; later ones are entered by fibers.
    Context &caller = *engine->caller_;
    if (caller.stack_bottom == nullptr)
        __sanitizer_finish_switch_fiber(nullptr, &caller.stack_bottom,
                                        &caller.stack_size);
    else
        __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
    engine->workerBody(tid, (*engine->workers_)[tid]);
    engine->switchContext(engine->slots_[tid]->context, *engine->caller_,
                          true);
}

void
ExecutionEngine::switchContext(Context &from, Context &to, bool leaving)
{
    auto *eh = reinterpret_cast<EhGlobals *>(abi::__cxa_get_globals());
    from.eh = *eh;
    *eh = to.eh;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(leaving ? nullptr : &from.fake_stack,
                                   to.stack_bottom, to.stack_size);
#else
    (void)leaving;
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
    swapcontext(&from.uc, &to.uc);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

void
ExecutionEngine::workerBody(ThreadId tid, const WorkerFn &fn)
{
    try {
        ThreadCtx ctx(this, tid);
        schedulePoint(tid);
        emit(tid, EventKind::ThreadStart, 0, 0, 0);
        fn(ctx);
        schedulePoint(tid);
        if (config_.consistency == ConsistencyModel::TSO)
            drainAll(tid);
        emit(tid, EventKind::ThreadEnd, 0, 0, 0);
    } catch (const Aborted &) {
        // Unwound by an abort; the error that caused it is recorded.
    } catch (...) {
        slots_[tid]->error = std::current_exception();
    }
    finishThread(tid);
}

void
ExecutionEngine::schedulePoint(ThreadId tid)
{
    schedulePointInner(tid);
    // The token is held here: safe to age the store buffer.
    if (config_.consistency == ConsistencyModel::TSO)
        backgroundDrain(tid);
}

void
ExecutionEngine::backgroundDrain(ThreadId tid)
{
    auto &buffer = storeBuffer(tid);
    if (tid >= drain_ticks_.size())
        drain_ticks_.resize(tid + 1, 0);
    if (buffer.empty()) {
        drain_ticks_[tid] = 0;
        return;
    }
    if (++drain_ticks_[tid] >= config_.drain_interval) {
        drain_ticks_[tid] = 0;
        drainOne(tid);
    }
}

void
ExecutionEngine::schedulePointInner(ThreadId tid)
{
    if (in_setup_ || serial_)
        return;

    // Only the fiber holding the token runs, so token_ == tid here.
    for (;;) {
        if (aborting_)
            throw Aborted{};
        if (quantum_left_ > 0) {
            --quantum_left_;
            return;
        }
        const ScheduleDecision d = policy_->pick(runnable_, tid);
        quantum_left_ = d.quantum;
        if (d.thread != tid) {
            token_ = d.thread;
            switchContext(slots_[tid]->context,
                          slots_[d.thread]->context);
        }
        // Loop: either we still hold the token (and now have quantum)
        // or it was handed back to us.
    }
}

void
ExecutionEngine::finishThread(ThreadId tid)
{
    if (in_setup_ || serial_)
        return;

    runnable_.erase(std::remove(runnable_.begin(), runnable_.end(), tid),
                    runnable_.end());
    slots_[tid]->done = true;
    // The first error unwinds every other thread so run() can report.
    if (slots_[tid]->error)
        aborting_ = true;
    if (token_ != tid)
        return;
    token_ = invalid_thread;
    if (aborting_ || runnable_.empty())
        return;
    // Outside the worker's try: a throwing policy must not escape the
    // fiber's entry function.
    try {
        const ScheduleDecision d = policy_->pick(runnable_, invalid_thread);
        token_ = d.thread;
        quantum_left_ = d.quantum;
    } catch (...) {
        slots_[tid]->error = std::current_exception();
        aborting_ = true;
    }
}

void
ExecutionEngine::emit(ThreadId tid, EventKind kind, Addr addr,
                      unsigned size, std::uint64_t value,
                      std::uint16_t marker)
{
    if (config_.max_events > 0 && next_seq_ >= config_.max_events) {
        if (!(in_setup_ || serial_))
            aborting_ = true;
        PERSIM_FATAL("execution exceeded max_events="
                     << config_.max_events
                     << " (possible livelock in the workload)");
    }

    TraceEvent event;
    event.seq = next_seq_++;
    event.addr = addr;
    event.value = value;
    event.thread = tid;
    event.kind = kind;
    event.size = static_cast<std::uint8_t>(size);
    event.marker = marker;
    if (sink_)
        sink_->onEvent(event);
}

std::uint64_t
ExecutionEngine::debugLoad(Addr addr, unsigned size) const
{
    return image_.load(addr, size);
}

void
ExecutionEngine::debugReadBytes(void *dst, Addr src, std::size_t n) const
{
    image_.readBytes(dst, src, n);
}

std::deque<ExecutionEngine::BufferedStore> &
ExecutionEngine::storeBuffer(ThreadId tid)
{
    if (tid >= store_buffers_.size())
        store_buffers_.resize(tid + 1);
    return store_buffers_[tid];
}

void
ExecutionEngine::drainOne(ThreadId tid)
{
    auto &buffer = storeBuffer(tid);
    PERSIM_ASSERT(!buffer.empty(), "drain of an empty store buffer");
    const BufferedStore entry = buffer.front();
    buffer.pop_front();
    image_.store(entry.addr, entry.size, entry.value);
    emit(tid, EventKind::Store, entry.addr, entry.size, entry.value);
}

void
ExecutionEngine::drainAll(ThreadId tid)
{
    auto &buffer = storeBuffer(tid);
    while (!buffer.empty())
        drainOne(tid);
}

void
ExecutionEngine::drainLine(ThreadId tid, Addr addr)
{
    const std::uint64_t line = addr / cache_line_bytes;
    auto &buffer = storeBuffer(tid);
    // Find the newest buffered store of the line; everything up to it
    // must drain first (the buffer is FIFO), which is always legal —
    // the background drain may retire those stores at any time.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
        const BufferedStore &entry = buffer[i];
        if (entry.addr / cache_line_bytes == line ||
            (entry.addr + entry.size - 1) / cache_line_bytes == line)
            keep = i + 1;
    }
    for (std::size_t i = 0; i < keep; ++i)
        drainOne(tid);
}

std::uint64_t
ThreadCtx::load(Addr addr, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO) {
        auto &buffer = engine_->storeBuffer(tid_);
        // Store-to-load forwarding: the newest buffered store fully
        // covering the load supplies the value. A partial overlap
        // (which real pipelines stall on) drains the buffer instead.
        for (auto it = buffer.rbegin(); it != buffer.rend(); ++it) {
            if (it->addr <= addr && addr + size <= it->addr + it->size) {
                const unsigned shift =
                    static_cast<unsigned>(8 * (addr - it->addr));
                std::uint64_t value = it->value >> shift;
                if (size < 8)
                    value &= (1ULL << (8 * size)) - 1;
                engine_->emit(tid_, EventKind::Load, addr, size, value);
                return value;
            }
            if (it->addr < addr + size && addr < it->addr + it->size) {
                engine_->drainAll(tid_);
                break;
            }
        }
    }
    const std::uint64_t value = engine_->image_.load(addr, size);
    engine_->emit(tid_, EventKind::Load, addr, size, value);
    return value;
}

void
ThreadCtx::store(Addr addr, std::uint64_t value, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO) {
        auto &buffer = engine_->storeBuffer(tid_);
        buffer.push_back(ExecutionEngine::BufferedStore{
            addr, size, value});
        while (buffer.size() > engine_->config_.store_buffer_depth)
            engine_->drainOne(tid_);
        return;
    }
    engine_->image_.store(addr, size, value);
    engine_->emit(tid_, EventKind::Store, addr, size, value);
}

std::uint64_t
ThreadCtx::rmwExchange(Addr addr, std::uint64_t value, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    const std::uint64_t old = engine_->image_.load(addr, size);
    engine_->image_.store(addr, size, value);
    engine_->emit(tid_, EventKind::Rmw, addr, size, value);
    return old;
}

std::uint64_t
ThreadCtx::rmwCas(Addr addr, std::uint64_t expected, std::uint64_t desired,
                  unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    const std::uint64_t old = engine_->image_.load(addr, size);
    if (old == expected) {
        engine_->image_.store(addr, size, desired);
        engine_->emit(tid_, EventKind::Rmw, addr, size, desired);
    } else {
        // A failed CAS performs no write; trace it as a load.
        engine_->emit(tid_, EventKind::Load, addr, size, old);
    }
    return old;
}

std::uint64_t
ThreadCtx::rmwFetchAdd(Addr addr, std::uint64_t delta, unsigned size)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    const std::uint64_t old = engine_->image_.load(addr, size);
    const std::uint64_t updated = old + delta;
    engine_->image_.store(addr, size, updated);
    engine_->emit(tid_, EventKind::Rmw, addr, size, updated);
    return old;
}

void
ThreadCtx::copyIn(Addr dst, const void *src, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const std::size_t room = max_access_size - (dst % max_access_size);
        const std::size_t chunk = std::min(n, room);
        std::uint64_t value = 0;
        std::memcpy(&value, bytes, chunk);
        store(dst, value, static_cast<unsigned>(chunk));
        dst += chunk;
        bytes += chunk;
        n -= chunk;
    }
}

void
ThreadCtx::copyOut(void *dst, Addr src, std::size_t n)
{
    auto *bytes = static_cast<std::uint8_t *>(dst);
    while (n > 0) {
        const std::size_t room = max_access_size - (src % max_access_size);
        const std::size_t chunk = std::min(n, room);
        const std::uint64_t value =
            load(src, static_cast<unsigned>(chunk));
        std::memcpy(bytes, &value, chunk);
        src += chunk;
        bytes += chunk;
        n -= chunk;
    }
}

void
ThreadCtx::copySim(Addr dst, Addr src, std::size_t n)
{
    while (n > 0) {
        const std::size_t src_room =
            max_access_size - (src % max_access_size);
        const std::size_t dst_room =
            max_access_size - (dst % max_access_size);
        const std::size_t chunk = std::min({n, src_room, dst_room});
        const std::uint64_t value =
            load(src, static_cast<unsigned>(chunk));
        store(dst, value, static_cast<unsigned>(chunk));
        src += chunk;
        dst += chunk;
        n -= chunk;
    }
}

void
ThreadCtx::persistBarrier()
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::PersistBarrier, 0, 0, 0);
}

void
ThreadCtx::newStrand()
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::NewStrand, 0, 0, 0);
}

void
ThreadCtx::persistSync()
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::PersistSync, 0, 0, 0);
}

void
ThreadCtx::fence()
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::Fence, 0, 0, 0);
}

void
ThreadCtx::clflush(Addr addr)
{
    engine_->schedulePoint(tid_);
    // clflush is ordered against all older stores: they must be
    // globally visible before the flush takes effect.
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::CacheFlush, addr, 0, 0);
}

void
ThreadCtx::clflushopt(Addr addr)
{
    engine_->schedulePoint(tid_);
    // clflushopt/clwb are ordered only against older stores to the
    // flushed line: drain the FIFO prefix covering those and nothing
    // more, so the flush can overtake older stores to other lines.
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainLine(tid_, addr);
    engine_->emit(tid_, EventKind::CacheFlushOpt, addr, 0, 0);
}

void
ThreadCtx::clwb(Addr addr)
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainLine(tid_, addr);
    engine_->emit(tid_, EventKind::CacheWriteBack, addr, 0, 0);
}

void
ThreadCtx::sfence()
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::StoreFence, 0, 0, 0);
}

void
ThreadCtx::mfence()
{
    engine_->schedulePoint(tid_);
    if (engine_->config_.consistency == ConsistencyModel::TSO)
        engine_->drainAll(tid_);
    engine_->emit(tid_, EventKind::FullFence, 0, 0, 0);
}

void
ThreadCtx::marker(MarkerCode code, std::uint64_t arg)
{
    engine_->schedulePoint(tid_);
    engine_->emit(tid_, EventKind::Marker, 0, 0, arg,
                  static_cast<std::uint16_t>(code));
}

Addr
ThreadCtx::pmalloc(std::uint64_t size, std::uint64_t align)
{
    engine_->schedulePoint(tid_);
    const Addr addr = engine_->palloc_.allocate(size, align);
    engine_->emit(tid_, EventKind::PMalloc, addr, 0, size);
    return addr;
}

void
ThreadCtx::pfree(Addr addr)
{
    engine_->schedulePoint(tid_);
    engine_->palloc_.free(addr);
    engine_->emit(tid_, EventKind::PFree, addr, 0, 0);
}

Addr
ThreadCtx::vmalloc(std::uint64_t size, std::uint64_t align)
{
    engine_->schedulePoint(tid_);
    return engine_->valloc_.allocate(size, align);
}

void
ThreadCtx::vfree(Addr addr)
{
    engine_->schedulePoint(tid_);
    engine_->valloc_.free(addr);
}

} // namespace persim
