#include "nvram/faults.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "nvram/endurance.hh"

namespace persim {
namespace {

// Domain-separation salts so the three fault classes draw from
// unrelated streams even under the same fault seed.
constexpr std::uint64_t tear_salt = 0x7465617270727374ULL;
constexpr std::uint64_t media_salt = 0x6d656469616572ULL;
constexpr std::uint64_t drain_salt = 0x647261696e647270ULL;

} // namespace

const char *
mediaFaultKindName(MediaFaultKind kind)
{
    switch (kind) {
    case MediaFaultKind::BitFlip:
        return "bit-flip";
    case MediaFaultKind::StuckAtZero:
        return "stuck-at-0";
    case MediaFaultKind::StuckAtOne:
        return "stuck-at-1";
    }
    return "?";
}

void
FaultConfig::validate() const
{
    PERSIM_REQUIRE(isPowerOfTwo(atomic_write_unit) &&
                       atomic_write_unit <= max_access_size,
                   "atomic write unit must be a power of two in 1..8");
    PERSIM_REQUIRE(tear_land_p >= 0.0 && tear_land_p <= 1.0,
                   "tear land probability must be in [0, 1]");
    PERSIM_REQUIRE(media_error_per_write >= 0.0 &&
                       media_error_per_write <= 1.0,
                   "media error probability must be in [0, 1]");
    PERSIM_REQUIRE(isPowerOfTwo(wear_block_bytes),
                   "wear block size must be a power of two");
    PERSIM_REQUIRE(drop_drain_p >= 0.0 && drop_drain_p <= 1.0,
                   "drain drop probability must be in [0, 1]");
    PERSIM_REQUIRE(drop_drain_p == 0.0 || drain_latency > 0.0,
                   "drain latency must be positive");
}

std::string
FaultInjection::describe() const
{
    char buf[128];
    switch (kind) {
    case Kind::TornPersist:
        std::snprintf(buf, sizeof(buf),
                      "torn persist %llu @0x%llx (%u/%u units landed)",
                      static_cast<unsigned long long>(persist),
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned>(landed_units),
                      static_cast<unsigned>(total_units));
        break;
    case Kind::MediaError:
        std::snprintf(buf, sizeof(buf), "media error @0x%llx bit %u",
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned>(bit));
        break;
    case Kind::DroppedDrain:
        std::snprintf(buf, sizeof(buf),
                      "dropped drain of persist %llu @0x%llx",
                      static_cast<unsigned long long>(persist),
                      static_cast<unsigned long long>(addr));
        break;
    }
    return buf;
}

void
FaultOutcome::record(const FaultInjection &injection)
{
    switch (injection.kind) {
    case FaultInjection::Kind::TornPersist:
        ++torn_persists;
        break;
    case FaultInjection::Kind::MediaError:
        ++media_errors;
        break;
    case FaultInjection::Kind::DroppedDrain:
        ++dropped_drains;
        break;
    }
    if (injected.size() < max_recorded)
        injected.push_back(injection);
}

std::string
FaultOutcome::summary() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%llu faults (%llu torn, %llu media, %llu dropped)",
                  static_cast<unsigned long long>(total()),
                  static_cast<unsigned long long>(torn_persists),
                  static_cast<unsigned long long>(media_errors),
                  static_cast<unsigned long long>(dropped_drains));
    std::string out = buf;
    const char *sep = ": ";
    for (const FaultInjection &injection : injected) {
        out += sep;
        out += injection.describe();
        sep = "; ";
    }
    return out;
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    // splitmix64 finalizer over a combination of both halves; the
    // golden-ratio offsets keep (0, 0) and friends well away from 0.
    std::uint64_t z = a + 0x9e3779b97f4a7c15ULL +
                      (b ^ 0xbf58476d1ce4e5b9ULL) * 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

FaultModel::FaultModel(
    const FaultConfig &config,
    std::unordered_map<std::uint64_t, std::uint64_t> wear)
    : config_(config)
{
    config_.validate();
    wear_.assign(wear.begin(), wear.end());
    std::sort(wear_.begin(), wear_.end());
}

FaultModel::FaultModel(const FaultConfig &config,
                       const InMemoryTrace &trace)
    : config_(config)
{
    config_.validate();
    if (config_.media_error_per_write > 0.0) {
        EnduranceTracker tracker(config_.wear_block_bytes);
        trace.replay(tracker);
        wear_.assign(tracker.counts().begin(), tracker.counts().end());
        std::sort(wear_.begin(), wear_.end());
    }
}

void
FaultModel::tearPiece(MemoryImage &image, const PersistRecord &record,
                      std::uint64_t fault_seed,
                      FaultOutcome *outcome) const
{
    // Each aligned atomic unit of the piece lands independently; the
    // per-record seed makes the outcome independent of which other
    // records exist.
    Rng rng(mixSeed(mixSeed(fault_seed, tear_salt), record.id));
    const std::uint64_t unit = config_.atomic_write_unit;
    const Addr end = record.addr + record.size;
    std::uint8_t total = 0;
    std::uint8_t landed = 0;
    Addr pos = record.addr;
    while (pos < end) {
        const Addr chunk_end =
            std::min<Addr>(end, blockBase(pos, unit) + unit);
        ++total;
        if (rng.nextBool(config_.tear_land_p)) {
            ++landed;
            const unsigned offset =
                static_cast<unsigned>(pos - record.addr);
            const unsigned bytes =
                static_cast<unsigned>(chunk_end - pos);
            image.store(pos, bytes, record.value >> (8 * offset));
        }
        pos = chunk_end;
    }
    if (landed > 0 && outcome) {
        FaultInjection injection;
        injection.kind = FaultInjection::Kind::TornPersist;
        injection.persist = record.id;
        injection.addr = record.addr;
        injection.landed_units = landed;
        injection.total_units = total;
        outcome->record(injection);
    }
}

void
FaultModel::applyMediaErrors(MemoryImage &image,
                             std::uint64_t fault_seed,
                             FaultOutcome *outcome) const
{
    if (config_.media_error_per_write <= 0.0)
        return;
    for (const auto &[block, writes] : wear_) {
        Rng rng(mixSeed(mixSeed(fault_seed, media_salt), block));
        const double fail_p =
            1.0 - std::pow(1.0 - config_.media_error_per_write,
                           static_cast<double>(writes));
        if (!rng.nextBool(fail_p))
            continue;
        const Addr addr = block * config_.wear_block_bytes +
                          rng.nextBounded(config_.wear_block_bytes);
        const auto bit =
            static_cast<std::uint8_t>(rng.nextBounded(8));
        const auto before =
            static_cast<std::uint8_t>(image.load(addr, 1));
        std::uint8_t after = before;
        switch (config_.media_kind) {
        case MediaFaultKind::BitFlip:
            after = before ^ static_cast<std::uint8_t>(1u << bit);
            break;
        case MediaFaultKind::StuckAtZero:
            after = before & static_cast<std::uint8_t>(~(1u << bit));
            break;
        case MediaFaultKind::StuckAtOne:
            after = before | static_cast<std::uint8_t>(1u << bit);
            break;
        }
        if (after == before)
            continue; // Stuck-at matching the stored bit is invisible.
        image.store(addr, 1, after);
        if (outcome) {
            FaultInjection injection;
            injection.kind = FaultInjection::Kind::MediaError;
            injection.addr = addr;
            injection.bit = bit;
            outcome->record(injection);
        }
    }
}

MemoryImage
FaultModel::crashImage(const PersistLog &log, double crash_time,
                       std::uint64_t fault_seed,
                       FaultOutcome *outcome) const
{
    CrashSampler sampler(*this, log);
    sampler.sample(crash_time, fault_seed, outcome);
    return sampler.release();
}

CrashSampler::CrashSampler(const FaultModel &model,
                           const PersistLog &log)
    : model_(model), log_(log)
{
    if (model_.config().drop_drain_p <= 0.0)
        return;

    // The drain buffer holds device writes, i.e. coalescing groups:
    // all pieces of one group drain (or vanish) together. Coalesced
    // records chain to the previous member of their device write;
    // everyone else founds a group of their own.
    std::vector<std::size_t> group(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        const PersistRecord &record = log[i];
        if (record.binding_source == DepSource::Coalesced &&
            record.binding < i) {
            group[i] = group[record.binding];
        } else {
            group[i] = i;
            founders_.push_back(i);
        }
    }
    // Drain order is completion order, which need not be log order
    // across threads; ties resolve by log index.
    std::sort(founders_.begin(), founders_.end(),
              [&log](std::size_t a, std::size_t b) {
                  if (log[a].time != log[b].time)
                      return log[a].time < log[b].time;
                  return a < b;
              });

    std::vector<double> issue_times;
    issue_times.reserve(founders_.size());
    std::vector<std::size_t> founder_pos(log.size());
    for (std::size_t k = 0; k < founders_.size(); ++k) {
        issue_times.push_back(log[founders_[k]].time);
        founder_pos[founders_[k]] = k;
    }
    queue_ = DrainQueue(std::move(issue_times),
                        model_.config().drain_latency);

    drain_pos_ = std::move(group);
    for (std::size_t &pos : drain_pos_)
        pos = founder_pos[pos];
}

DrainQueue::Range
CrashSampler::drawDrops(double crash_time, std::uint64_t fault_seed,
                        FaultOutcome *outcome)
{
    const FaultConfig &config = model_.config();
    if (config.drop_drain_p <= 0.0)
        return {};

    // One draw per queued device write, in drain order.
    const DrainQueue::Range pending = queue_.pendingAt(crash_time);
    drop_.assign(pending.size(), 0);
    Rng rng(mixSeed(fault_seed, drain_salt));
    for (std::size_t k = pending.first; k < pending.last; ++k) {
        if (!rng.nextBool(config.drop_drain_p))
            continue;
        drop_[k - pending.first] = 1;
        if (outcome) {
            const PersistRecord &founder = log_[founders_[k]];
            FaultInjection injection;
            injection.kind = FaultInjection::Kind::DroppedDrain;
            injection.persist = founder.id;
            injection.addr = founder.addr;
            outcome->record(injection);
        }
    }
    return pending;
}

const MemoryImage &
CrashSampler::sample(double crash_time, std::uint64_t fault_seed,
                     FaultOutcome *outcome)
{
    // With every fault class off this is exactly the recovery
    // observer's image (recovery::reconstructImage): durable iff
    // time <= T.
    image_.zero();
    const FaultConfig &config = model_.config();
    const DrainQueue::Range pending =
        drawDrops(crash_time, fault_seed, outcome);
    for (std::size_t i = 0; i < log_.size(); ++i) {
        const PersistRecord &record = log_[i];
        if (record.time <= crash_time) {
            const bool dropped = !pending.empty() &&
                drain_pos_[i] >= pending.first &&
                drain_pos_[i] < pending.last &&
                drop_[drain_pos_[i] - pending.first];
            if (!dropped)
                image_.store(record.addr, record.size, record.value);
        } else if (config.tear_persists && record.start <= crash_time) {
            // Crash landed inside the in-flight window [start, time).
            model_.tearPiece(image_, record, fault_seed, outcome);
        }
    }
    model_.applyMediaErrors(image_, fault_seed, outcome);
    return image_;
}

} // namespace persim
