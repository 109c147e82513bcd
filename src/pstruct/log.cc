#include "pstruct/log.hh"

#include <sstream>

#include "common/bitops.hh"
#include "common/error.hh"

namespace persim {

std::uint64_t
LogLayout::recordBytes(std::uint64_t len)
{
    // [len][seq][payload padded to 8][checksum]
    return 8 + 8 + alignUp(len, 8) + 8;
}

std::uint64_t
LogLayout::checksum(std::uint64_t pos, std::uint64_t seq,
                    std::uint64_t len, const std::uint8_t *payload)
{
    // FNV-1a over (pos, seq, len, payload). Covering the position
    // means a record never validates against bytes written for a
    // different offset; covering the sequence number ties the record
    // to its place in the append order.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    mix(pos);
    mix(seq);
    mix(len);
    for (std::uint64_t i = 0; i < len; ++i) {
        hash ^= payload[i];
        hash *= 0x100000001b3ULL;
    }
    // A zero checksum would let blank memory validate a zero-length
    // record; keep it nonzero.
    return hash == 0 ? 1 : hash;
}

PersistentLog
PersistentLog::create(ThreadCtx &ctx, const LogOptions &options,
                      std::size_t threads)
{
    PERSIM_REQUIRE(options.capacity >= 64 && options.capacity % 8 == 0,
                   "log capacity must be a multiple of 8, >= 64");
    PERSIM_REQUIRE(threads >= 1, "need at least one writer slot");

    PersistentLog log;
    log.options_ = options;
    log.layout_.base = ctx.pmalloc(options.capacity, 64);
    log.layout_.capacity = options.capacity;
    ctx.persistBarrier(); // The blank log is the durable baseline.

    log.cursor_ = ctx.vmalloc(8, 64);
    ctx.store(log.cursor_, 0);
    log.seq_ = ctx.vmalloc(8, 64);
    ctx.store(log.seq_, 0);
    log.prev_start_ = ctx.vmalloc(8, 64);
    ctx.store(log.prev_start_, 0);
    log.lock_ = McsLock::create(ctx);
    for (std::size_t i = 0; i < threads; ++i)
        log.qnodes_.push_back(McsLock::createQnode(ctx));
    log.golden_ = std::make_shared<Golden>();
    return log;
}

std::uint64_t
PersistentLog::tailOffset(ThreadCtx &ctx) const
{
    return ctx.load(cursor_);
}

std::vector<GoldenLogRecord>
PersistentLog::goldenRecords() const
{
    PERSIM_REQUIRE(golden_ != nullptr, "log was not created");
    std::lock_guard<std::mutex> guard(golden_->mutex);
    return golden_->records;
}

std::uint64_t
PersistentLog::append(ThreadCtx &ctx, std::size_t slot,
                      const void *payload, std::uint64_t len)
{
    static const std::vector<Addr> no_deps;
    return append(ctx, slot, payload, len, no_deps);
}

std::uint64_t
PersistentLog::append(ThreadCtx &ctx, std::size_t slot,
                      const void *payload, std::uint64_t len,
                      const std::vector<Addr> &order_after)
{
    PERSIM_REQUIRE(slot < qnodes_.size(), "bad writer slot");
    PERSIM_REQUIRE(len >= 1, "empty records are not representable");
    McsGuard guard(ctx, lock_, qnodes_[slot]);

    const std::uint64_t pos = ctx.load(cursor_);
    const std::uint64_t seq = ctx.load(seq_);
    const std::uint64_t bytes = LogLayout::recordBytes(len);
    PERSIM_REQUIRE(pos + bytes <= layout_.capacity,
                   "log full: " << pos + bytes << " > "
                   << layout_.capacity);

    // Inter-record ordering: recovery scans until the first invalid
    // record, so record k must not persist while k-1 can still tear —
    // otherwise durable records hide behind a torn one. Note this is
    // a durability (bounded-loss) property, not integrity: the scan
    // never returns wrong bytes either way.
    //
    // Strand idiom (paper Section 5.3): a fresh strand rebuilds its
    // ordering by *reading every word* of the previous record (strong
    // persist atomicity makes each word's pending persist a
    // dependence) and then barriering. Reading only part of the
    // record would leave the unread words racing ahead.
    //
    // Epoch idiom: a trailing barrier folds this record's persists
    // into the thread's epoch state so the lock release publishes
    // them; the next appender's leading barrier (after its lock
    // acquisition) inherits them — the same two-barrier structure as
    // the queue's Algorithm 1 lines 8/11.
    if (!options_.omit_order_annotations) {
        if (options_.use_strands) {
            ctx.newStrand();
            const std::uint64_t prev = ctx.load(prev_start_);
            for (std::uint64_t word = prev; word < pos; word += 8)
                ctx.load(layout_.base + word);
            // Cross-structure predecessors (see the header comment):
            // one conflicting load each pulls their pending persists
            // into this strand's ordering before the barrier.
            for (Addr dep : order_after)
                ctx.load(dep);
            ctx.persistBarrier();
        } else {
            for (Addr dep : order_after)
                ctx.load(dep);
            ctx.persistBarrier(); // Leading: inherit the predecessor.
        }
    } else if (options_.use_strands) {
        ctx.newStrand();
    }

    const auto *bytes_in = static_cast<const std::uint8_t *>(payload);
    ctx.store(layout_.base + pos, len);
    ctx.store(layout_.base + pos + 8, seq);
    ctx.copyIn(layout_.base + pos + 16, bytes_in, len);
    ctx.store(layout_.base + pos + 16 + alignUp(len, 8),
              LogLayout::checksum(pos, seq, len, bytes_in));

    if (!options_.omit_order_annotations && !options_.use_strands)
        ctx.persistBarrier(); // Trailing: publish through the lock.

    ctx.store(prev_start_, pos);
    ctx.store(cursor_, pos + bytes);
    ctx.store(seq_, seq + 1);

    if (options_.record_golden) {
        std::lock_guard<std::mutex> golden_guard(golden_->mutex);
        GoldenLogRecord record;
        record.offset = pos;
        record.seq = seq;
        record.payload.assign(bytes_in, bytes_in + len);
        golden_->records.push_back(std::move(record));
    }
    return pos;
}

LogRecovery
PersistentLog::recover(const MemoryImage &image, const LogLayout &layout)
{
    LogRecovery result;
    std::uint64_t pos = 0;
    while (pos + LogLayout::recordBytes(1) <= layout.capacity) {
        const std::uint64_t len = image.load(layout.base + pos, 8);
        // len > capacity first: recordBytes wraps for a corrupt len
        // near 2^64.
        if (len == 0 || len > layout.capacity ||
            pos + LogLayout::recordBytes(len) > layout.capacity)
            break;
        const std::uint64_t seq = image.load(layout.base + pos + 8, 8);
        if (seq != result.records.size())
            break; // Stale or torn header: not the next append.
        std::vector<std::uint8_t> payload(len);
        image.readBytes(payload.data(), layout.base + pos + 16, len);
        const std::uint64_t stored = image.load(
            layout.base + pos + 16 + alignUp(len, 8), 8);
        if (stored != LogLayout::checksum(pos, seq, len, payload.data()))
            break;
        RecoveredRecord record;
        record.offset = pos;
        record.seq = seq;
        record.payload = std::move(payload);
        result.records.push_back(std::move(record));
        pos += LogLayout::recordBytes(len);
    }
    result.valid_bytes = pos;
    return result;
}

bool
PersistentLog::recordDurableAt(const MemoryImage &image,
                               const LogLayout &layout,
                               std::uint64_t offset, std::uint64_t seq)
{
    if (offset + LogLayout::recordBytes(1) > layout.capacity)
        return false;
    const std::uint64_t len = image.load(layout.base + offset, 8);
    if (len == 0 || len > layout.capacity ||
        offset + LogLayout::recordBytes(len) > layout.capacity)
        return false;
    if (image.load(layout.base + offset + 8, 8) != seq)
        return false;
    std::vector<std::uint8_t> payload(len);
    image.readBytes(payload.data(), layout.base + offset + 16, len);
    const std::uint64_t stored = image.load(
        layout.base + offset + 16 + alignUp(len, 8), 8);
    return stored == LogLayout::checksum(offset, seq, len,
                                         payload.data());
}

bool
PersistentLog::recordAt(const MemoryImage &image,
                        const LogLayout &layout, std::uint64_t offset,
                        RecoveredRecord &record)
{
    if (offset % 8 != 0 ||
        offset + LogLayout::recordBytes(1) > layout.capacity)
        return false;
    const std::uint64_t len = image.load(layout.base + offset, 8);
    if (len == 0 || len > layout.capacity ||
        offset + LogLayout::recordBytes(len) > layout.capacity)
        return false;
    const std::uint64_t seq = image.load(layout.base + offset + 8, 8);
    std::vector<std::uint8_t> payload(len);
    image.readBytes(payload.data(), layout.base + offset + 16, len);
    const std::uint64_t stored = image.load(
        layout.base + offset + 16 + alignUp(len, 8), 8);
    if (stored != LogLayout::checksum(offset, seq, len, payload.data()))
        return false;
    record.offset = offset;
    record.seq = seq;
    record.payload = std::move(payload);
    return true;
}

std::string
checkLogAgainstGolden(const MemoryImage &image, const LogLayout &layout,
                      const LogRecovery &recovery,
                      const std::vector<GoldenLogRecord> &golden)
{
    if (recovery.records.size() > golden.size()) {
        std::ostringstream oss;
        oss << "recovered " << recovery.records.size()
            << " records but only " << golden.size()
            << " were appended";
        return oss.str();
    }
    for (std::size_t i = 0; i < recovery.records.size(); ++i) {
        const RecoveredRecord &got = recovery.records[i];
        const GoldenLogRecord &want = golden[i];
        if (got.offset != want.offset || got.seq != want.seq ||
            got.payload != want.payload) {
            std::ostringstream oss;
            oss << "recovered record " << i << " at offset "
                << got.offset << " does not match append " << want.seq
                << " at offset " << want.offset;
            return oss.str();
        }
    }
    // Everything beyond the truncation point must be gone: a record
    // that still validates there persisted ahead of a predecessor
    // that did not (an inter-record ordering violation), and
    // truncate-at-first-bad recovery silently loses it.
    for (std::size_t i = recovery.records.size(); i < golden.size();
         ++i) {
        if (PersistentLog::recordDurableAt(image, layout,
                                           golden[i].offset,
                                           golden[i].seq)) {
            std::ostringstream oss;
            oss << "hole: record " << golden[i].seq << " at offset "
                << golden[i].offset
                << " is durable beyond the truncation point ("
                << recovery.valid_bytes << " valid bytes)";
            return oss.str();
        }
    }
    return "";
}

std::function<std::string(const MemoryImage &)>
makeLogRecoveryInvariant(const LogLayout &layout,
                         const std::vector<GoldenLogRecord> &golden)
{
    return [layout, golden](const MemoryImage &image) {
        const LogRecovery recovery =
            PersistentLog::recover(image, layout);
        return checkLogAgainstGolden(image, layout, recovery, golden);
    };
}

} // namespace persim
