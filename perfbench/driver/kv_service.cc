/**
 * @file
 * kv_service: the kvstore_perf shape, scaled down. Per update
 * strategy: four hash-disjoint single-writer shards generated in
 * parallel on the pool, one 4-shard KvRouter group (4 simulated
 * threads) under txns, snapshots and migrations, every trace
 * replayed under strict/epoch/strand/px86, then a Repair-tier and a
 * TxnResolve-tier fault campaign per model over golden-enabled
 * miniatures.
 */

#include <algorithm>
#include <array>
#include <memory>

#include "bench_util/kv_workload.hh"
#include "harness.hh"
#include "kvstore/recovery.hh"
#include "kvstore/router.hh"
#include "nvram/faults.hh"
#include "recovery/fault_campaign.hh"

namespace perfbench {

using namespace persim;

namespace {

constexpr std::uint32_t shards = 4;

struct Sizes
{
    std::uint64_t shard_ops;     //!< Client ops and key space per shard.
    std::uint64_t router_ops;    //!< Router ops per simulated thread.
    std::uint64_t audit_ops;     //!< Audit ops per simulated thread.
    std::uint64_t realizations;  //!< Campaign timing realizations.
    std::uint64_t crashes;       //!< Crash samples per realization.
};

constexpr Sizes full_sizes{1ULL << 12, 512, 96, 6, 32};
constexpr Sizes tiny_sizes{1ULL << 9, 64, 48, 3, 16};

std::uint64_t
nextPow2(std::uint64_t n)
{
    std::uint64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** One single-writer shard of the heavy phase (kvstore_perf sizing:
    no backpressure at these op mixes). The key space equals the op
    count: the store starts empty, so a shard's working set is the
    keys its zipfian draws reach (about 1,200 of 4,096 at full size),
    whatever the key space. */
KvWorkloadConfig
shardConfig(const Sizes &sizes, KvUpdateStrategy strategy,
            std::uint64_t seed, std::uint32_t shard)
{
    KvWorkloadConfig config;
    const std::uint64_t shard_keys = sizes.shard_ops;
    config.store.buckets =
        std::max<std::uint64_t>(1024, nextPow2(2 * shard_keys));
    const std::uint64_t puts = sizes.shard_ops / 2 + 1024;
    config.store.max_value_bytes = 64;
    config.store.heap_bytes =
        (puts + (puts >> 2)) * (config.store.max_value_bytes + 8);
    config.store.log_capacity =
        strategy == KvUpdateStrategy::LogStructured
            ? (puts + (puts >> 1)) * 112 + (1 << 12)
            : 1 << 12;
    config.store.strategy = strategy;
    config.store.record_golden = false;
    config.threads = 1;
    config.ops_per_thread = sizes.shard_ops;
    config.key_space = shard_keys;
    config.zipf_theta = 0.99;
    config.put_ratio = 0.5;
    config.get_ratio = 0.4;
    config.seed = mixSeed(seed, shard + 1);
    return config;
}

/** The router group: all four shards behind one front end, one
    simulated client thread per shard. */
KvRouterWorkloadConfig
routerConfig(const Sizes &sizes, KvUpdateStrategy strategy,
             std::uint64_t seed)
{
    KvRouterWorkloadConfig config;
    config.router.shards = shards;
    config.router.partitions = 4 * shards;
    config.threads = shards;
    config.ops_per_thread = sizes.router_ops;
    const std::uint64_t total_ops = shards * sizes.router_ops;
    config.key_space = std::max<std::uint64_t>(256, total_ops / 8);
    config.zipf_theta = 0.99;
    config.txn_ratio = 0.2;
    config.snapshot_ratio = 0.1;
    config.put_ratio = 0.35;
    config.get_ratio = 0.2;
    config.migrate_every = 64;
    config.max_value_bytes = 48;
    config.seed = mixSeed(seed, 0x7472);

    // Direct puts plus staged txn puts (~3 keys/txn, 80% puts).
    const std::uint64_t puts = static_cast<std::uint64_t>(
        static_cast<double>(total_ops) * (0.35 + 0.2 * 3 * 0.8));
    const std::uint64_t shard_puts = puts / shards + 1024;
    config.router.store.strategy = strategy;
    config.router.store.max_value_bytes = 48;
    config.router.store.buckets = std::max<std::uint64_t>(
        1024, nextPow2(2 * (config.key_space / shards + 1)));
    config.router.store.heap_bytes =
        (shard_puts + (shard_puts >> 2)) *
        (config.router.store.max_value_bytes + 8);
    const std::uint64_t journal_records =
        strategy == KvUpdateStrategy::LogStructured
            ? shard_puts + (shard_puts >> 1)
            : shard_puts;
    config.router.store.log_capacity = journal_records * 112 + (1 << 12);
    config.router.store.record_golden = false;
    const std::uint64_t txns = total_ops / 5;
    config.router.max_txns =
        std::max<std::uint64_t>(512, nextPow2(2 * txns));
    config.router.group_log_capacity = std::max<std::uint64_t>(
        1 << 14, nextPow2(txns * 192 + (1 << 12)));
    return config;
}

/** Golden-enabled two-thread store audited at the Repair tier. */
KvWorkloadConfig
auditConfig(const Sizes &sizes, KvUpdateStrategy strategy,
            std::uint64_t seed)
{
    KvWorkloadConfig config = shardConfig(sizes, strategy, seed, 0);
    config.store.record_golden = true;
    config.store.buckets = 256;
    config.store.heap_bytes = 1 << 16;
    config.store.log_capacity = 1 << 18;
    config.threads = 2;
    config.ops_per_thread = sizes.audit_ops;
    config.key_space = 48;
    config.seed = mixSeed(seed, 0x61);
    return config;
}

/** Golden-enabled router miniature audited at the TxnResolve tier. */
KvRouterWorkloadConfig
txnAuditConfig(const Sizes &sizes, KvUpdateStrategy strategy,
               std::uint64_t seed)
{
    KvRouterWorkloadConfig config;
    config.router.shards = 2;
    config.router.partitions = 8;
    config.router.max_txns = 512;
    config.router.group_log_capacity = 1 << 16;
    config.router.store.buckets = 256;
    config.router.store.heap_bytes = 1 << 16;
    config.router.store.max_value_bytes = 64;
    config.router.store.log_capacity = 1 << 18;
    config.router.store.strategy = strategy;
    config.router.store.record_golden = true;
    config.threads = 2;
    config.ops_per_thread = sizes.audit_ops;
    config.key_space = 48;
    config.txn_ratio = 0.35;
    config.snapshot_ratio = 0.05;
    config.put_ratio = 0.35;
    config.get_ratio = 0.15;
    config.migrate_every = 12;
    config.max_value_bytes = 48;
    config.seed = mixSeed(seed, 0x7461);
    return config;
}

/** Every fault class at once (kvstore_perf's audit mix). */
FaultConfig
auditFaults()
{
    FaultConfig faults;
    faults.tear_persists = true;
    faults.atomic_write_unit = 4;
    faults.media_error_per_write = 2e-4;
    faults.drop_drain_p = 0.25;
    faults.drain_latency = 0.5;
    return faults;
}

struct Strategy
{
    const char *name;
    std::array<KvWorkloadConfig, shards> shard;
    KvRouterWorkloadConfig router;
    KvWorkloadConfig audit;
    KvRouterWorkloadConfig txn_audit;
    FaultCampaignConfig campaign;
};

std::uint64_t
sum(const auto &values)
{
    std::uint64_t total = 0;
    for (const std::uint64_t value : values)
        total += value;
    return total;
}

class KvService final : public Workload
{
  public:
    explicit KvService(const WorkloadParams &params)
    {
        const Sizes &sizes =
            params.size == Size::Tiny ? tiny_sizes : full_sizes;
        const std::pair<const char *, KvUpdateStrategy> kinds[] = {
            {"in_place", KvUpdateStrategy::InPlace},
            {"cow", KvUpdateStrategy::Cow},
            {"log_structured", KvUpdateStrategy::LogStructured},
        };
        for (const auto &[name, kind] : kinds) {
            Strategy strategy;
            strategy.name = name;
            for (std::uint32_t s = 0; s < shards; ++s)
                strategy.shard[s] =
                    shardConfig(sizes, kind, params.seed, s);
            strategy.router = routerConfig(sizes, kind, params.seed);
            strategy.audit = auditConfig(sizes, kind, params.seed);
            strategy.txn_audit =
                txnAuditConfig(sizes, kind, params.seed);
            strategy.campaign.injection.realizations = sizes.realizations;
            strategy.campaign.injection.crashes_per_realization =
                sizes.crashes;
            strategy.campaign.injection.seed = mixSeed(params.seed, 77);
            strategy.campaign.injection.jobs = params.jobs;
            strategy.campaign.faults = auditFaults();
            strategies_.push_back(strategy);
        }
    }

    void
    run(Batch &batch) override
    {
        for (const Strategy &strategy : strategies_) {
            Span phase(batch.tracer,
                       std::string("bench:kv/") + strategy.name);
            generateShards(batch, strategy, phase.id());
            generateRouter(batch, strategy);
            audit(batch, strategy);
        }
    }

  private:
    /** Count a run's client ops and backpressure. */
    static void
    countOps(Batch &batch, std::uint64_t ops, std::uint64_t rejected)
    {
        batch.counters.add("kvstore.ops", static_cast<double>(ops));
        batch.counters.add("kvstore.rejected",
                           static_cast<double>(rejected));
        batch.attempted += ops;
        batch.failed += rejected;
        batch.work += static_cast<double>(ops);
        batch.digest.mix(ops);
        batch.digest.mix(rejected);
    }

    static void
    countRouter(Batch &batch, const KvRouterWorkloadConfig &config,
                const KvRouterWorkloadResult &result)
    {
        countSimEvents(batch, result.trace.size(), config.threads);
        // A snapshot that ran out of retries is not backpressure; it
        // is counted, not failed.
        countOps(batch, config.threads * config.ops_per_thread,
                 sum(result.rejected) + sum(result.txn_rejected) +
                     result.migrations_rejected);
        batch.counters.add("kvstore.snapshots_failed",
                           static_cast<double>(result.snapshots_failed));
        batch.counters.add("kvstore.txns",
                           static_cast<double>(result.txns));
        batch.counters.add("kvstore.txns_committed",
                           static_cast<double>(result.txns_committed));
        batch.counters.add("kvstore.migrations",
                           static_cast<double>(result.migrations));
        batch.counters.add("kvstore.snapshots",
                           static_cast<double>(result.snapshots));
        for (const std::uint64_t value :
             {result.txns, result.txns_committed, result.migrations,
              result.snapshots, result.snapshots_failed, result.hits})
            batch.digest.mix(value);
    }

    /** Four single-writer shards in parallel on the pool. */
    void
    generateShards(Batch &batch, const Strategy &strategy,
                   std::int32_t phase)
    {
        std::array<KvWorkloadResult, shards> results;
        std::array<double, shards> busy{};
        const Clock::time_point start = Clock::now();
        batch.pool.parallelFor(shards, [&](std::size_t s) {
            const Clock::time_point shard_start = Clock::now();
            Span span(batch.tracer, simSpan(1, "kv_shard"), phase);
            results[s] = runKvWorkload(strategy.shard[s]);
            busy[s] = std::chrono::duration<double>(Clock::now() -
                                                    shard_start)
                          .count();
        });
        const double wall =
            std::chrono::duration<double>(Clock::now() - start).count();
        double busy_total = 0.0;
        for (const double b : busy)
            busy_total += b;
        batch.counters.add("pool.busy_s", busy_total);
        batch.counters.add("pool.capacity_s",
                           wall * batch.pool.workerCount());

        for (std::uint32_t s = 0; s < shards; ++s) {
            const KvWorkloadResult &result = results[s];
            countSimEvents(batch, result.trace.size(), 1);
            countOps(batch, strategy.shard[s].ops_per_thread,
                     result.rejectedTotal());
            batch.digest.mix(result.hits);
            batch.digest.mix(result.live_entries);
            replayAndCheck(batch, result.trace,
                           std::string(strategy.name) + "/shard" +
                               std::to_string(s),
                           s);
        }
    }

    /** The 4-thread router group under txns/snapshots/migrations. */
    void
    generateRouter(Batch &batch, const Strategy &strategy)
    {
        KvRouterWorkloadResult result;
        {
            Span span(batch.tracer, simSpan(strategy.router.threads,
                                            "kv_router"));
            OneCpu pin;
            result = runKvRouterWorkload(strategy.router);
        }
        countRouter(batch, strategy.router, result);
        replayAndCheck(batch, result.trace,
                       std::string(strategy.name) + "/router", 3);
    }

    /** Repair-tier and TxnResolve-tier campaigns, every model. */
    void
    audit(Batch &batch, const Strategy &strategy)
    {
        KvWorkloadResult store;
        {
            Span span(batch.tracer,
                      simSpan(strategy.audit.threads, "kv_audit"));
            OneCpu pin;
            store = runKvWorkload(strategy.audit);
        }
        countSimEvents(batch, store.trace.size(), strategy.audit.threads);
        countOps(batch,
                 strategy.audit.threads * strategy.audit.ops_per_thread,
                 store.rejectedTotal());
        replayAndCheck(batch, store.trace,
                       std::string(strategy.name) + "/audit", 1);

        KvRouterWorkloadResult group;
        {
            Span span(batch.tracer, simSpan(strategy.txn_audit.threads,
                                            "kv_router_audit"));
            OneCpu pin;
            group = runKvRouterWorkload(strategy.txn_audit);
        }
        countRouter(batch, strategy.txn_audit, group);
        replayAndCheck(batch, group.trace,
                       std::string(strategy.name) + "/txn_audit", 2);

        KvRecoveryOptions repair;
        repair.mode = KvRecoveryMode::Repair;
        repair.journal = store.journal;
        KvGroupRecoveryOptions resolve;
        resolve.mode = KvRecoveryMode::TxnResolve;
        for (const ModelConfig &model : replayModels()) {
            FaultCampaignConfig campaign = strategy.campaign;
            campaign.injection.model = model;
            const std::string label = std::string(strategy.name) + "/" +
                                      model.name();

            auto stats = std::make_shared<KvInvariantStats>();
            InjectionResult result;
            {
                Span span(batch.tracer, "recovery:repair/campaign");
                result = runFaultCampaign(
                    store.trace, campaign,
                    makeKvRecoveryInvariant(store.layout, store.golden,
                                            repair, stats));
            }
            countCampaign(batch, result, *stats, 0, label + "/repair", 0);

            // The group migrates partitions, so it has the known
            // TxnResolve defect (README.md, "Known defect").
            auto group_stats = std::make_shared<KvRouterInvariantStats>();
            auto known = std::make_shared<std::atomic<std::uint64_t>>(0);
            {
                Span span(batch.tracer, "recovery:txn_resolve/campaign");
                result = runFaultCampaign(
                    group.trace, campaign,
                    countKnownDefects(
                        makeKvRouterInvariant(group.layout, group.golden,
                                              group.txn_golden, resolve,
                                              group_stats),
                        known));
            }
            countCampaign(batch, result, group_stats->shard,
                          group_stats->in_doubt.load(),
                          label + "/txn_resolve", known->load());
        }
    }

    /** Hardened campaign accounting (see countHardened). */
    static void
    countCampaign(Batch &batch, const InjectionResult &result,
                  const KvInvariantStats &stats, std::uint64_t in_doubt,
                  const std::string &label, std::uint64_t known_defects)
    {
        countHardened(batch, result, label, known_defects);
        batch.counters.add("recovery.quarantined",
                           static_cast<double>(stats.quarantined.load()));
        batch.counters.add("recovery.repaired",
                           static_cast<double>(stats.repaired.load()));
        batch.counters.add("recovery.in_doubt",
                           static_cast<double>(in_doubt));
        for (const std::uint64_t value :
             {static_cast<std::uint64_t>(stats.quarantined.load()),
              static_cast<std::uint64_t>(stats.repaired.load()),
              static_cast<std::uint64_t>(stats.discarded.load()),
              in_doubt})
            batch.digest.mix(value);
    }

    std::vector<Strategy> strategies_;
};

} // namespace

std::unique_ptr<Workload>
makeKvService(const WorkloadParams &params)
{
    return std::make_unique<KvService>(params);
}

} // namespace perfbench
