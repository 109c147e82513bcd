/**
 * @file
 * Shared machinery of the persim benchmark driver: layer spans, the
 * per-batch counters, the output checks and the checked-output
 * digest, plus the four-model replay every workload runs on each
 * trace it produces.
 *
 * Spans are recorded only in traced batches, around each call the
 * driver makes into a persim layer. A span's name is
 * "<layer>:<kind>/<detail>"; the layer is the part before the colon
 * and the kind lets one layer split its busy time (sim:st/... vs
 * sim:mt/..., persistency:sc/... vs persistency:px86/...).
 */

#ifndef PERSIM_PERFBENCH_HARNESS_HH
#define PERSIM_PERFBENCH_HARNESS_HH

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hh"
#include "common/checksum.hh"
#include "common/task_pool.hh"
#include "memtrace/sink.hh"
#include "persistency/timing_engine.hh"
#include "recovery/recovery.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One recorded span; times are seconds since the tracer's origin. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int32_t parent = -1; //!< Index into the same batch, or -1.
};

/**
 * In-memory span recorder. Disabled tracers record nothing and hand
 * out id -1; begin/end are thread-safe so pool workers can record
 * their own spans under an explicit parent.
 */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Open a span; returns its id (-1 when disabled). */
    std::int32_t begin(std::string name, std::int32_t parent);

    /** Close span @p id (no-op for -1). */
    void end(std::int32_t id);

    /** Move out the spans recorded since the last take(). */
    std::vector<SpanRecord> take();

    /** Seconds since the tracer was built. */
    double now() const;

  private:
    bool enabled_ = false;
    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span. Without an explicit parent it nests under the calling
 * thread's innermost open span.
 */
class Span
{
  public:
    Span(Tracer &tracer, std::string name);
    Span(Tracer &tracer, std::string name, std::int32_t parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int32_t id_;
    std::int32_t saved_;
};

/**
 * Pins the calling thread, and every thread it starts, to the CPU it
 * runs on, until the guard ends. The simulator runs one simulated
 * thread at a time (token handoff), so an engine's threads lose no
 * parallelism on one CPU; spread over CPUs, each handoff waits for a
 * wake-up on another CPU, whose latency a shared host scatters
 * (README.md, "Steadiness").
 */
class OneCpu
{
  public:
    OneCpu();
    ~OneCpu();

    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

/** Named per-batch counters; add() is thread-safe. */
class Counters
{
  public:
    void add(const std::string &name, double value);
    std::map<std::string, double> snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> values_;
};

/** Output-check recorder: every failure names workload and check. */
class Checks
{
  public:
    explicit Checks(std::string workload) : workload_(std::move(workload))
    {}

    /** Record a failure of @p check unless @p ok. */
    void expect(bool ok, const std::string &check,
                const std::string &detail);

    /** Record a finding that is reported but fails no check. */
    void note(const std::string &text) { notes_.push_back(text); }

    const std::vector<std::string> &failures() const
    {
        return failures_;
    }
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    std::string workload_;
    std::vector<std::string> failures_;
    std::vector<std::string> notes_;
};

/** Order-sensitive FNV-1a digest of checked simulated outputs. */
class Digest
{
  public:
    void mix(std::uint64_t value);
    void mix(double value);
    void mix(std::string_view text);
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = persim::fnv1a64_seed;
};

/** Workload sizes: the benchmark size or a seconds-long self-test. */
enum class Size { Full, Tiny };

/** What a workload sees of the batch it runs in. */
struct Batch
{
    Tracer &tracer;
    Counters &counters;
    Digest &digest;
    persim::TaskPool &pool;

    /** Set in the checked warm-up batch only: run the output checks
        (reference replays, golden compares) inline there. */
    Checks *checks = nullptr;

    /** Operations attempted and failed (see README.md). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Units of the workload's headline work (KV ops, analyses or
        crash states), for work_per_s. */
    double work = 0.0;
};

/** One benchmark workload: built by its setup, run once per batch. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run one closed batch from first layer call to verdict. */
    virtual void run(Batch &batch) = 0;
};

/** Inputs every workload's setup takes. */
struct WorkloadParams
{
    std::uint64_t seed = 1;
    Size size = Size::Full;
    std::uint32_t jobs = 4;

    /** Expected conformance report (crash_check). */
    std::string golden_path;
};

std::unique_ptr<Workload> makeKvService(const WorkloadParams &params);
std::unique_ptr<Workload> makeFigSweep(const WorkloadParams &params);
std::unique_ptr<Workload> makeCrashCheck(const WorkloadParams &params);

/** The four models every trace is replayed under, in check order. */
const std::vector<persim::ModelConfig> &replayModels();

/**
 * Replay @p trace under strict/epoch/strand/px86 through
 * replayForOptions and record spans, counters and digest. In the
 * checked batch, also check strict >= epoch >= strand critical path,
 * equal persist counts across the three SC models, and a bit-identical
 * serial PersistTimingEngine replay for model @p reference.
 */
void replayAndCheck(Batch &batch, const persim::InMemoryTrace &trace,
                    const std::string &label, std::size_t reference);

/** Shared checks on one trace's four model results (strict, epoch,
    strand, px86 order). */
void checkModelOrder(Checks &checks, const std::string &label,
                     const persim::TimingResult &strict,
                     const persim::TimingResult &epoch,
                     const persim::TimingResult &strand);

/** Bit-exact TimingResult comparison; empty when equal. */
std::string diffTiming(const persim::TimingResult &got,
                       const persim::TimingResult &want);

/** Mix every field of @p result into @p digest. */
void mixTiming(Digest &digest, const persim::TimingResult &result);

/**
 * Known defect of TxnResolve recovery on router groups that migrate
 * partitions (README.md, "Known defect"): a committed transaction
 * recovers partially applied. True when @p verdict is of that kind.
 */
bool isKnownTxnDefect(std::string_view verdict);

/** Count, per campaign, of verdicts isKnownTxnDefect accepts. */
using DefectTally = std::shared_ptr<std::atomic<std::uint64_t>>;

/** @p invariant, counting its known-defect verdicts into @p tally. */
persim::RecoveryInvariant
countKnownDefects(persim::RecoveryInvariant invariant,
                  const DefectTally &tally);

/**
 * Account one campaign over a hardened surface: its crash states are
 * attempted operations and its violations failed ones. In the checked
 * batch, any violation fails hardened_audit_clean, except the
 * @p known_defects verdicts counted on a cell that has the known
 * defect: those are reported with their repro line, and fail
 * known_defect_bounded only above half the cell's crash states.
 */
void countHardened(Batch &batch, const persim::InjectionResult &result,
                   const std::string &label,
                   std::uint64_t known_defects = 0);

/** Record a sim-layer run of @p events events on @p threads threads. */
void countSimEvents(Batch &batch, std::uint64_t events,
                    std::uint32_t threads);

/** Span name prefix for a sim call on @p threads threads. */
inline std::string
simSpan(std::uint32_t threads, const std::string &detail)
{
    return std::string(threads > 1 ? "sim:mt/" : "sim:st/") + detail;
}

} // namespace perfbench

#endif // PERSIM_PERFBENCH_HARNESS_HH
