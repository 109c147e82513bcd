#include "harness.hh"

#include <pthread.h>

#include <bit>
#include <sstream>

#include "recovery/fault_campaign.hh"

namespace perfbench {

using namespace persim;

namespace {

/** Innermost open span of the calling thread. */
thread_local std::int32_t current_span = -1;

} // namespace

std::int32_t
Tracer::begin(std::string name, std::int32_t parent)
{
    if (!enabled_)
        return -1;
    const double start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, start, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Tracer::end(std::int32_t id)
{
    if (id < 0)
        return;
    const double stop = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = stop;
}

std::vector<SpanRecord>
Tracer::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> out;
    out.swap(spans_);
    return out;
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

OneCpu::OneCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0 ||
        pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
}

OneCpu::~OneCpu()
{
    if (pinned_)
        pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
}

Span::Span(Tracer &tracer, std::string name)
    : Span(tracer, std::move(name), current_span)
{}

Span::Span(Tracer &tracer, std::string name, std::int32_t parent)
    : tracer_(tracer), id_(tracer.begin(std::move(name), parent)),
      saved_(current_span)
{
    if (id_ >= 0)
        current_span = id_;
}

Span::~Span()
{
    tracer_.end(id_);
    current_span = saved_;
}

void
Counters::add(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] += value;
}

std::map<std::string, double>
Counters::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
}

void
Checks::expect(bool ok, const std::string &check,
               const std::string &detail)
{
    if (!ok)
        failures_.push_back(workload_ + "/" + check + ": " + detail);
}

void
Digest::mix(std::uint64_t value)
{
    hash_ = fnv1a64(&value, sizeof value, hash_);
}

void
Digest::mix(double value)
{
    mix(std::bit_cast<std::uint64_t>(value));
}

void
Digest::mix(std::string_view text)
{
    mix(static_cast<std::uint64_t>(text.size()));
    hash_ = fnv1a64(text.data(), text.size(), hash_);
}

const std::vector<ModelConfig> &
replayModels()
{
    static const std::vector<ModelConfig> models{
        ModelConfig::strict(), ModelConfig::epoch(),
        ModelConfig::strand(), ModelConfig::px86()};
    return models;
}

std::string
diffTiming(const TimingResult &got, const TimingResult &want)
{
    std::ostringstream out;
    const auto field = [&out](const char *name, auto a, auto b) {
        if (a != b)
            out << " " << name << " " << a << " != " << b;
    };
    field("critical_path_bits", std::bit_cast<std::uint64_t>(
                                    got.critical_path),
          std::bit_cast<std::uint64_t>(want.critical_path));
    field("persists", got.persists, want.persists);
    field("coalesced", got.coalesced, want.coalesced);
    field("window_blocked", got.window_blocked, want.window_blocked);
    field("races", got.races, want.races);
    field("ops", got.ops, want.ops);
    field("events", got.events, want.events);
    field("barriers", got.barriers, want.barriers);
    field("strands", got.strands, want.strands);
    field("flushes", got.flushes, want.flushes);
    field("fences", got.fences, want.fences);
    field("unflushed", got.unflushed, want.unflushed);
    return out.str();
}

void
mixTiming(Digest &digest, const TimingResult &result)
{
    digest.mix(result.critical_path);
    for (const std::uint64_t value :
         {result.persists, result.coalesced, result.window_blocked,
          result.races, result.ops, result.events, result.barriers,
          result.strands, result.flushes, result.fences,
          result.unflushed})
        digest.mix(value);
}

void
checkModelOrder(Checks &checks, const std::string &label,
                const TimingResult &strict, const TimingResult &epoch,
                const TimingResult &strand)
{
    std::ostringstream detail;
    detail << label << ": strict " << strict.critical_path << ", epoch "
           << epoch.critical_path << ", strand " << strand.critical_path;
    checks.expect(strict.critical_path >= epoch.critical_path &&
                      epoch.critical_path >= strand.critical_path,
                  "critical_path_order", detail.str());
    std::ostringstream persists;
    persists << label << ": strict " << strict.persists << ", epoch "
             << epoch.persists << ", strand " << strand.persists;
    checks.expect(strict.persists == epoch.persists &&
                      epoch.persists == strand.persists,
                  "sc_persist_counts", persists.str());
}

void
replayAndCheck(Batch &batch, const InMemoryTrace &trace,
               const std::string &label, std::size_t reference)
{
    const std::vector<ModelConfig> &models = replayModels();
    // Default options apart from jobs, as the bench front ends pass.
    bench::BenchOptions options;
    options.jobs = batch.pool.workerCount();
    std::vector<TimingResult> results;
    results.reserve(models.size());
    for (const ModelConfig &model : models) {
        const bool px86 = model.kind == ModelKind::Px86;
        Span span(batch.tracer, std::string(px86 ? "persistency:px86/"
                                                 : "persistency:sc/") +
                                    "replay");
        results.push_back(bench::replayForOptions(
            trace, bench::levels(model), options, batch.pool));
    }
    for (const TimingResult &result : results) {
        mixTiming(batch.digest, result);
        batch.counters.add("persistency.events",
                           static_cast<double>(result.events));
        batch.counters.add("persistency.persists",
                           static_cast<double>(result.persists));
        batch.counters.add("persistency.coalesced",
                           static_cast<double>(result.coalesced));
    }
    batch.counters.add("persistency.analyses",
                       static_cast<double>(models.size()));
    if (batch.checks == nullptr)
        return;

    checkModelOrder(*batch.checks, label, results[0], results[1],
                    results[2]);
    const std::size_t ref = reference % models.size();
    PersistTimingEngine engine(bench::levels(models[ref]));
    trace.replay(engine);
    const std::string diff = diffTiming(results[ref], engine.result());
    batch.checks->expect(diff.empty(), "replay_matches_reference",
                         label + " under " + models[ref].name() + ":" +
                             diff);
}

bool
isKnownTxnDefect(std::string_view verdict)
{
    return verdict.starts_with("committed txn ") &&
           verdict.find(" partially applied: key ") != std::string::npos;
}

RecoveryInvariant
countKnownDefects(RecoveryInvariant invariant, const DefectTally &tally)
{
    return [invariant = std::move(invariant),
            tally](const MemoryImage &image) {
        std::string verdict = invariant(image);
        if (isKnownTxnDefect(verdict))
            tally->fetch_add(1, std::memory_order_relaxed);
        return verdict;
    };
}

void
countHardened(Batch &batch, const InjectionResult &result,
              const std::string &label, std::uint64_t known_defects)
{
    batch.attempted += result.samples;
    batch.failed += result.violations;
    batch.counters.add("recovery.crash_states",
                       static_cast<double>(result.samples));
    batch.counters.add("recovery.violations",
                       static_cast<double>(result.violations));
    batch.digest.mix(result.samples);
    batch.digest.mix(result.violations);
    if (batch.checks == nullptr || result.violations == 0)
        return;

    // Name an unknown violation when the recorded ones hold one.
    const ViolationRecord *first = nullptr;
    for (const ViolationRecord &violation : result.violation_list)
        if (first == nullptr || (isKnownTxnDefect(first->verdict) &&
                                 !isKnownTxnDefect(violation.verdict)))
            first = &violation;
    const std::string repro =
        first == nullptr ? result.first_violation : violationRepro(*first);
    const std::uint64_t unknown = result.violations - known_defects;
    batch.checks->expect(unknown == 0, "hardened_audit_clean",
                         label + ": " + std::to_string(unknown) +
                             " violations not of the known defect, "
                             "first: " +
                             repro);
    if (known_defects == 0)
        return;
    batch.checks->expect(2 * known_defects <= result.samples,
                         "known_defect_bounded",
                         label + ": known defect in " +
                             std::to_string(known_defects) + " of " +
                             std::to_string(result.samples) +
                             " crash states, above half");
    batch.checks->note("known defect, counted as failed: " + label + ": " +
                       std::to_string(known_defects) +
                       " violations, first: " + repro);
}

void
countSimEvents(Batch &batch, std::uint64_t events, std::uint32_t threads)
{
    batch.counters.add(threads > 1 ? "sim.mt_events" : "sim.st_events",
                       static_cast<double>(events));
}

} // namespace perfbench
