/**
 * @file
 * crash_check: thousands of tiny executions. A single-shard
 * Explorer::run over the 2-thread CWL and 2LC queue programs, the full
 * 32-program conformance suite, and device-fault campaigns over the
 * queue, log, KV and KV-txn surfaces plus their barrier-elided
 * mutants (the surfaces of bench/fault_campaign.cc, seeded from the
 * benchmark seed).
 */

#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>

#include "bench_util/kv_workload.hh"
#include "common/error.hh"
#include "conformance/litmus.hh"
#include "explore/explore.hh"
#include "explore/programs.hh"
#include "harness.hh"
#include "kvstore/recovery.hh"
#include "kvstore/router.hh"
#include "nvram/faults.hh"
#include "pstruct/log.hh"
#include "queue/payload.hh"
#include "recovery/fault_campaign.hh"

namespace perfbench {

using namespace persim;

namespace {

/** Simulated threads of every campaign surface. */
constexpr std::uint32_t surface_threads = 2;

/** A named device-fault mix. */
struct FaultMix
{
    const char *name;
    FaultConfig faults;
};

std::vector<FaultMix>
faultMixes()
{
    FaultConfig torn;
    torn.tear_persists = true;
    torn.atomic_write_unit = 4;
    FaultConfig media;
    media.media_error_per_write = 2e-4;
    FaultConfig drops;
    drops.drop_drain_p = 0.5;
    drops.drain_latency = 0.5;
    FaultConfig all = torn;
    all.media_error_per_write = media.media_error_per_write;
    all.drop_drain_p = drops.drop_drain_p;
    all.drain_latency = drops.drain_latency;
    return {{"none", {}}, {"torn", torn}, {"media", media},
            {"drops", drops}, {"all", all}};
}

/** One generated trace plus the invariant its campaigns check. */
struct Surface
{
    InMemoryTrace trace;
    RecoveryInvariant invariant;
    std::shared_ptr<KvInvariantStats> stats;
    std::shared_ptr<KvRouterInvariantStats> router_stats;

    /** Set where the surface has the known defect: counts its
        known-defect verdicts, per campaign. */
    DefectTally known_defects;
};

/** How to build a surface, fixed at setup. */
struct SurfaceSpec
{
    std::string name;
    ModelConfig model;

    /** Mutants must be detected; hardened surfaces must stay clean. */
    bool mutant = false;

    /**
     * Mixes swept. The checksummed queue and the log hold only under
     * none/torn: a media error or a dropped drain loses data they
     * keep no second copy of, so they are swept only where the code
     * promises 0 violations.
     */
    std::size_t mixes = 5;

    std::function<Surface()> generate;
};

Surface
queueSurface(std::uint64_t seed, bool mutant)
{
    QueueWorkloadConfig config;
    config.kind = QueueKind::CopyWhileLocked;
    config.variant = AnnotationVariant::Conservative;
    config.threads = surface_threads;
    config.inserts_per_thread = 24;
    config.entry_bytes = 24;
    config.seed = seed;
    config.wrap_slots = 0; // Frontier scans need a non-wrapping run.
    config.checksummed_head = true;

    Surface surface;
    if (!mutant) {
        const auto result = runQueueWorkload(config, {&surface.trace});
        surface.invariant =
            makeDetectAndDiscardInvariant(result.layout, result.golden);
        return surface;
    }

    // The workload driver has no mutant knob; run the queue directly.
    EngineConfig engine_config;
    engine_config.seed = config.seed;
    engine_config.quantum = config.quantum;
    ExecutionEngine engine(engine_config, &surface.trace);
    QueueOptions options = config.queueOptions();
    options.omit_data_head_barrier = true;
    std::unique_ptr<PersistentQueue> queue;
    engine.runSetup([&](ThreadCtx &ctx) {
        queue = createQueue(ctx, config.kind, options, config.threads);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (std::uint32_t t = 0; t < config.threads; ++t) {
        workers.push_back([&queue, t, &config](ThreadCtx &ctx) {
            for (std::uint64_t i = 0; i < config.inserts_per_thread;
                 ++i) {
                const std::uint64_t op_id =
                    t * config.inserts_per_thread + i + 1;
                const auto payload =
                    makePayload(op_id, config.entry_bytes);
                queue->insert(ctx, t, payload.data(),
                              config.entry_bytes, op_id);
            }
        });
    }
    engine.run(workers);
    surface.invariant =
        makeDetectAndDiscardInvariant(queue->layout(), queue->golden());
    return surface;
}

Surface
logSurface(std::uint64_t seed, bool mutant)
{
    LogOptions options;
    options.capacity = 1 << 16;
    options.use_strands = true;
    options.omit_order_annotations = mutant;

    Surface surface;
    EngineConfig engine_config;
    engine_config.seed = seed;
    engine_config.quantum = 4;
    ExecutionEngine engine(engine_config, &surface.trace);
    auto log = std::make_shared<PersistentLog>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *log = PersistentLog::create(ctx, options, surface_threads);
    });
    std::vector<ExecutionEngine::WorkerFn> workers;
    for (std::uint64_t t = 0; t < surface_threads; ++t) {
        workers.push_back([log, t](ThreadCtx &ctx) {
            for (std::uint64_t i = 1; i <= 16; ++i) {
                std::vector<std::uint8_t> payload(20);
                for (std::size_t b = 0; b < payload.size(); ++b)
                    payload[b] =
                        static_cast<std::uint8_t>((t * 100 + i) * 131 + b);
                log->append(ctx, t, payload.data(), payload.size());
            }
        });
    }
    engine.run(workers);
    surface.invariant =
        makeLogRecoveryInvariant(log->layout(), log->goldenRecords());
    return surface;
}

Surface
kvSurface(const KvWorkloadConfig &config)
{
    const bool mutant = config.store.omit_publish_barrier;
    Surface surface;
    surface.stats = std::make_shared<KvInvariantStats>();
    KvWorkloadResult result = runKvWorkload(config);
    surface.trace = std::move(result.trace);
    KvRecoveryOptions options;
    // The mutant runs under Strict so its mid-publish crash states
    // surface as violations.
    options.mode = mutant ? KvRecoveryMode::Strict
                          : KvRecoveryMode::Repair;
    if (!mutant)
        options.journal = result.journal;
    surface.invariant = makeKvRecoveryInvariant(
        result.layout, result.golden, options, surface.stats);
    return surface;
}

/**
 * A router group surface. Hardened groups that migrate partitions
 * have the known TxnResolve defect (README.md, "Known defect"): their
 * verdicts of that kind are tallied, not checked.
 */
Surface
routerSurface(const KvRouterWorkloadConfig &config)
{
    const bool mutant = config.router.omit_commit_barrier;
    Surface surface;
    surface.router_stats = std::make_shared<KvRouterInvariantStats>();
    KvRouterWorkloadResult result = runKvRouterWorkload(config);
    surface.trace = std::move(result.trace);
    KvGroupRecoveryOptions options;
    // The mutant runs under Repair (no uncommitted scrub) so partially
    // visible transactions surface as violations.
    options.mode = mutant ? KvRecoveryMode::Repair
                          : KvRecoveryMode::TxnResolve;
    surface.invariant =
        makeKvRouterInvariant(result.layout, result.golden,
                              result.txn_golden, options,
                              surface.router_stats);
    if (!mutant && config.migrate_every > 0) {
        surface.known_defects =
            std::make_shared<std::atomic<std::uint64_t>>(0);
        surface.invariant =
            countKnownDefects(std::move(surface.invariant),
                              surface.known_defects);
    }
    return surface;
}

KvWorkloadConfig
kvConfig(KvUpdateStrategy strategy, bool mutant, std::uint64_t seed)
{
    KvWorkloadConfig config;
    config.store.buckets = 128;
    config.store.heap_bytes = 1 << 15;
    config.store.log_capacity = 1 << 17;
    config.store.strategy = strategy;
    config.store.omit_publish_barrier = mutant;
    config.store.use_strands = !mutant;
    config.threads = surface_threads;
    config.ops_per_thread = 48;
    config.key_space = 32;
    config.put_ratio = 0.6;
    config.get_ratio = 0.2;
    config.seed = seed;
    return config;
}

KvRouterWorkloadConfig
routerConfig(KvUpdateStrategy strategy, bool migrate, bool mutant,
             std::uint64_t seed)
{
    KvRouterWorkloadConfig config;
    config.router.shards = 2;
    config.router.partitions = 8;
    config.router.max_txns = 512;
    config.router.group_log_capacity = 1 << 16;
    config.router.store.buckets = 128;
    config.router.store.heap_bytes = 1 << 15;
    config.router.store.max_value_bytes = 64;
    config.router.store.log_capacity = 1 << 17;
    config.router.store.strategy = strategy;
    config.router.omit_commit_barrier = mutant;
    config.router.store.omit_publish_barrier = mutant;
    config.threads = surface_threads;
    config.ops_per_thread = 48;
    config.key_space = 32;
    config.txn_ratio = 0.35;
    config.snapshot_ratio = 0.05;
    config.put_ratio = 0.35;
    config.get_ratio = 0.15;
    config.migrate_every = migrate ? 10 : 0;
    config.max_value_bytes = 48;
    config.seed = seed;
    return config;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    PERSIM_REQUIRE(in.good(), "cannot read golden report " + path);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

class CrashCheck final : public Workload
{
  public:
    explicit CrashCheck(const WorkloadParams &params)
        : golden_(readFile(params.golden_path)),
          litmus_(allLitmusTests())
    {
        explore_.model = queueExploreModel();
        explore_.shards = 1;
        explore_.seed = params.seed;
        if (params.size == Size::Tiny)
            explore_.max_executions = 128;
        for (const QueueKind kind :
             {QueueKind::CopyWhileLocked, QueueKind::TwoLockConcurrent}) {
            QueueExploreOptions options;
            options.kind = kind;
            programs_.emplace_back(queueKindName(kind),
                                   queueProgram(options));
        }
        conformance_.jobs = params.jobs;

        campaign_.injection.realizations = 6;
        campaign_.injection.crashes_per_realization = 48;
        campaign_.injection.seed = mixSeed(params.seed, 17);
        campaign_.injection.jobs = params.jobs;
        campaign_.injection.max_recorded_violations = 4;

        const std::uint64_t seed = params.seed;
        const auto add = [this](std::string name, ModelConfig model,
                                bool mutant, std::size_t mixes,
                                std::function<Surface()> generate) {
            surfaces_.push_back({std::move(name), model, mutant, mixes,
                                 std::move(generate)});
        };
        for (const bool mutant : {false, true}) {
            add(mutant ? "queue-nobar" : "cwl-queue", ModelConfig::epoch(),
                mutant, mutant ? 5 : 2, [seed, mutant] {
                    return queueSurface(mixSeed(seed, 3), mutant);
                });
            add(mutant ? "log-unordered" : "log", ModelConfig::strand(),
                mutant, mutant ? 5 : 2, [seed, mutant] {
                    return logSurface(mixSeed(seed, 11), mutant);
                });
        }
        const std::pair<const char *, KvUpdateStrategy> kinds[] = {
            {"inplace", KvUpdateStrategy::InPlace},
            {"cow", KvUpdateStrategy::Cow},
            {"log", KvUpdateStrategy::LogStructured},
        };
        // Each KV surface draws its own op sequence: a group's trace
        // length moves by a third with its seed, and one sequence shared
        // by every surface would move the whole batch with it.
        const std::uint64_t kv_seed = mixSeed(seed, 27);
        const auto next_seed = [this, kv_seed] {
            return mixSeed(kv_seed, surfaces_.size());
        };
        for (const auto &[name, kind] : kinds) {
            const KvWorkloadConfig config =
                kvConfig(kind, false, next_seed());
            add(std::string("kv-") + name, ModelConfig::epoch(), false, 5,
                [config] { return kvSurface(config); });
        }
        const KvWorkloadConfig nobar =
            kvConfig(KvUpdateStrategy::Cow, true, next_seed());
        add("kv-nobar", ModelConfig::epoch(), true, 5,
            [nobar] { return kvSurface(nobar); });
        // Strand: the widest model, so the commit protocol's barriers
        // are all that holds the group together.
        for (const bool migrate : {false, true}) {
            for (const auto &[name, kind] : kinds) {
                const KvRouterWorkloadConfig config =
                    routerConfig(kind, migrate, false, next_seed());
                add(std::string(migrate ? "kv-migrate-" : "kv-txn-") +
                        name,
                    ModelConfig::strand(), false, 5,
                    [config] { return routerSurface(config); });
            }
        }
        const KvRouterWorkloadConfig txn_nobar =
            routerConfig(KvUpdateStrategy::Cow, false, true, next_seed());
        add("kv-txn-nobar", ModelConfig::strand(), true, 5,
            [txn_nobar] { return routerSurface(txn_nobar); });
    }

    void
    run(Batch &batch) override
    {
        explore(batch);
        conformance(batch);
        for (std::size_t i = 0; i < surfaces_.size(); ++i)
            campaigns(batch, surfaces_[i], i);
    }

  private:
    void
    explore(Batch &batch)
    {
        for (const auto &[name, factory] : programs_) {
            ExploreResult result;
            {
                Span span(batch.tracer,
                          std::string("explore:queue/") + name);
                OneCpu pin;
                result = Explorer(factory, explore_).run();
            }
            const std::uint64_t executions =
                result.executions + result.sampled_executions;
            batch.counters.add("explore.executions",
                               static_cast<double>(executions));
            batch.counters.add("explore.distinct",
                               static_cast<double>(
                                   result.distinct_executions));
            batch.counters.add("explore.crash_states",
                               static_cast<double>(result.cuts_checked));
            batch.counters.add("recovery.violations",
                               static_cast<double>(result.violations));
            batch.attempted += executions + result.cuts_checked;
            batch.failed += result.truncated_executions + result.violations;
            batch.work += static_cast<double>(result.cuts_checked);
            for (const std::uint64_t value :
                 {result.executions, result.sampled_executions,
                  result.distinct_executions, result.pruned_duplicates,
                  result.truncated_executions, result.branch_points,
                  result.cuts_checked, result.violations})
                batch.digest.mix(value);
            if (batch.checks == nullptr)
                continue;
            batch.checks->expect(result.violations == 0 &&
                                     !result.counterexample,
                                 "explore_clean",
                                 name + ": " + result.summary());
            batch.checks->expect(result.truncated_executions == 0,
                                 "explore_not_truncated",
                                 name + ": " + result.summary());
        }
    }

    void
    conformance(Batch &batch)
    {
        std::string report;
        std::vector<LitmusResult> results;
        {
            Span span(batch.tracer, "conformance:suite/all");
            results = runConformanceSuite(litmus_, conformance_);
            report = formatDivergenceReport(results);
        }
        std::uint64_t schedules = 0, states = 0;
        for (const LitmusResult &result : results) {
            schedules += result.schedules;
            for (const ModelStates &model : result.models)
                states += model.states.size();
        }
        batch.counters.add("conformance.schedules",
                           static_cast<double>(schedules));
        batch.counters.add("conformance.states",
                           static_cast<double>(states));
        batch.attempted += states;
        batch.work += static_cast<double>(states);
        batch.digest.mix(report);
        if (batch.checks != nullptr)
            batch.checks->expect(report == golden_, "conformance_golden",
                                 "report (" +
                                     std::to_string(report.size()) +
                                     " bytes) differs from the golden "
                                     "report (" +
                                     std::to_string(golden_.size()) +
                                     " bytes)");
    }

    void
    campaigns(Batch &batch, const SurfaceSpec &spec, std::size_t index)
    {
        Surface surface;
        {
            Span span(batch.tracer, simSpan(surface_threads, spec.name));
            OneCpu pin;
            surface = spec.generate();
        }
        countSimEvents(batch, surface.trace.size(), surface_threads);
        replayAndCheck(batch, surface.trace, spec.name, index);

        const std::vector<FaultMix> mixes = faultMixes();
        std::uint64_t violations = 0;
        for (std::size_t m = 0; m < spec.mixes; ++m) {
            FaultCampaignConfig config = campaign_;
            config.injection.model = spec.model;
            config.faults = mixes[m].faults;
            if (surface.known_defects)
                surface.known_defects->store(0);
            InjectionResult result;
            {
                Span span(batch.tracer,
                          std::string("recovery:") +
                              (spec.mutant ? "mutant" : "hardened") +
                              "/campaign");
                result = runFaultCampaign(surface.trace, config,
                                          surface.invariant);
            }
            violations += result.violations;
            batch.work += static_cast<double>(result.samples);
            const std::string label = spec.name + "/" + mixes[m].name;
            if (!spec.mutant) {
                countHardened(batch, result, label,
                              surface.known_defects
                                  ? surface.known_defects->load()
                                  : 0);
                continue;
            }
            // Mutant violations are expected detections, not failures.
            batch.attempted += result.samples;
            batch.counters.add("recovery.crash_states",
                               static_cast<double>(result.samples));
            batch.counters.add("recovery.detected",
                               static_cast<double>(result.violations));
            batch.digest.mix(result.samples);
            batch.digest.mix(result.violations);
        }

        const KvInvariantStats *stats =
            surface.stats ? surface.stats.get()
            : surface.router_stats ? &surface.router_stats->shard
                                   : nullptr;
        if (stats != nullptr) {
            batch.counters.add("recovery.quarantined",
                               static_cast<double>(
                                   stats->quarantined.load()));
            batch.counters.add("recovery.repaired",
                               static_cast<double>(stats->repaired.load()));
            batch.digest.mix(
                static_cast<std::uint64_t>(stats->quarantined.load()));
            batch.digest.mix(
                static_cast<std::uint64_t>(stats->repaired.load()));
        }
        if (surface.router_stats) {
            const std::uint64_t in_doubt =
                surface.router_stats->in_doubt.load();
            batch.counters.add("recovery.in_doubt",
                               static_cast<double>(in_doubt));
            batch.digest.mix(in_doubt);
        }
        if (batch.checks != nullptr && spec.mutant)
            batch.checks->expect(violations > 0, "mutant_detected",
                                 spec.name +
                                     ": no violation in any fault mix");
    }

    std::string golden_;
    std::vector<LitmusTest> litmus_;
    ConformanceOptions conformance_;
    ExploreConfig explore_;
    std::vector<std::pair<std::string, ProgramFactory>> programs_;
    FaultCampaignConfig campaign_;
    std::vector<SurfaceSpec> surfaces_;
};

} // namespace

std::unique_ptr<Workload>
makeCrashCheck(const WorkloadParams &params)
{
    return std::make_unique<CrashCheck>(params);
}

} // namespace perfbench
