/**
 * @file
 * Functional tests for the KvRouter service layer: cross-shard
 * transaction commit and backpressure, consistent multi-shard
 * snapshots, crash-consistent migration, the TxnResolve recovery
 * tier on clean images, txn-record codec negatives, and the
 * host-visible publication counter (a TSan regression test: the
 * counter is polled from an ordinary OS thread while the engine's
 * simulated threads mutate).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "bench_util/kv_workload.hh"
#include "kvstore/router.hh"
#include "recovery/recovery.hh"

namespace persim {
namespace {

KvRouterOptions
smallRouter(KvUpdateStrategy strategy, std::uint32_t shards = 2)
{
    KvRouterOptions options;
    options.shards = shards;
    options.partitions = 16;
    options.store.buckets = 128;
    options.store.heap_bytes = 1 << 15;
    options.store.log_capacity = 1 << 17;
    options.store.strategy = strategy;
    return options;
}

/** Final (crash-free) image of a router workload run. */
MemoryImage
finalImage(const KvRouterWorkloadResult &workload)
{
    const PersistLog log = stochasticLog(
        workload.trace, ModelConfig::strand(), /*seed=*/3);
    return reconstructImage(log, 1e30);
}

/** Highest-seq golden version of @p key (merged histories are
    concatenated per shard, so back() is not the latest). */
const KvGoldenVersion *
latestGolden(const KvGoldenHistory &golden, std::uint64_t key)
{
    auto history = golden.find(key);
    if (history == golden.end())
        return nullptr;
    const KvGoldenVersion *latest = nullptr;
    for (const KvGoldenVersion &version : history->second) {
        if (latest == nullptr || version.seq > latest->seq)
            latest = &version;
    }
    return latest;
}

KvRouterWorkloadConfig
routerWorkload(KvUpdateStrategy strategy)
{
    KvRouterWorkloadConfig config;
    config.router = smallRouter(strategy, 3);
    config.threads = 3;
    config.ops_per_thread = 80;
    config.key_space = 60;
    config.migrate_every = 16;
    config.seed = 23;
    return config;
}

class KvTxnStrategies
    : public ::testing::TestWithParam<KvUpdateStrategy>
{
};

TEST_P(KvTxnStrategies, CommitAppliesAcrossShards)
{
    ExecutionEngine engine(EngineConfig{});
    auto router = std::make_shared<KvRouter>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *router =
            KvRouter::create(ctx, smallRouter(GetParam()), 1);
    });

    engine.run({[&](ThreadCtx &ctx) {
        // Seed one key so the txn exercises update + insert + erase.
        const std::uint8_t old_val[4] = {9, 9, 9, 9};
        ASSERT_EQ(router->put(ctx, 0, 7, old_val, sizeof(old_val)),
                  KvStatus::Ok);
        ASSERT_EQ(router->put(ctx, 0, 8, old_val, sizeof(old_val)),
                  KvStatus::Ok);

        KvTxn txn;
        const std::uint8_t a[3] = {1, 2, 3};
        const std::uint8_t b[5] = {4, 5, 6, 7, 8};
        txn.put(7, a, sizeof(a));  // Update.
        txn.put(100, b, sizeof(b)); // Insert (different partition).
        txn.erase(8);               // Erase.
        std::uint64_t txn_id = 0;
        ASSERT_EQ(router->commit(ctx, 0, txn, &txn_id),
                  KvTxnStatus::Committed);
        EXPECT_NE(txn_id, 0u);

        std::vector<std::uint8_t> value;
        ASSERT_TRUE(router->get(ctx, 7, value));
        EXPECT_EQ(value, std::vector<std::uint8_t>(a, a + sizeof(a)));
        ASSERT_TRUE(router->get(ctx, 100, value));
        EXPECT_EQ(value, std::vector<std::uint8_t>(b, b + sizeof(b)));
        EXPECT_FALSE(router->get(ctx, 8, value));
    }});

    // The transaction is on the host-side golden list with all ops.
    const auto txns = router->txnGolden();
    ASSERT_EQ(txns->size(), 1u);
    EXPECT_EQ(txns->front().ops.size(), 3u);
    EXPECT_GE(router->publishedSeq(), 3u);
}

TEST_P(KvTxnStrategies, TxnResolveRecoversCleanImageExactly)
{
    const KvRouterWorkloadResult workload =
        runKvRouterWorkload(routerWorkload(GetParam()));
    ASSERT_GT(workload.txns_committed, 0u);
    ASSERT_GT(workload.migrations, 0u);

    const MemoryImage image = finalImage(workload);
    KvGroupRecoveryOptions options;
    options.mode = KvRecoveryMode::TxnResolve;
    const KvGroupRecovery rec =
        recoverKvRouter(image, workload.layout, options);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.in_doubt, 0u);
    EXPECT_EQ(rec.txn_lost, 0u);
    EXPECT_EQ(rec.owner_faults, 0u);
    EXPECT_EQ(rec.status_faults, 0u);
    EXPECT_EQ(rec.txn_partial, 0u);
    // Every committed-by-execution txn resolved committed.
    for (const KvTxnGolden &txn : *workload.txn_golden)
        EXPECT_EQ(rec.committed.count(txn.txn), 1u) << txn.txn;

    // Served state == golden final state, across migrations.
    std::map<std::uint64_t, std::vector<std::uint8_t>> expect;
    for (const auto &[key, versions] : *workload.golden) {
        const KvGoldenVersion *latest =
            latestGolden(*workload.golden, key);
        if (latest != nullptr && !latest->erased)
            expect[key] = latest->value;
    }
    ASSERT_EQ(rec.entries.size(), expect.size());
    for (const auto &[key, value] : expect) {
        auto it = rec.entries.find(key);
        ASSERT_NE(it, rec.entries.end()) << key;
        EXPECT_EQ(it->second.value, value) << key;
    }

    // And the campaign invariant agrees on the clean image.
    const auto invariant = makeKvRouterInvariant(
        workload.layout, workload.golden, workload.txn_golden,
        options);
    EXPECT_EQ(invariant(image), "");
}

TEST_P(KvTxnStrategies, MigrationRoundTripDoesNotResurrectErasedKeys)
{
    // A key written on its home shard, moved away, erased there, and
    // its partition moved back empty: the home shard's journal still
    // holds the old staged record, which recovery must not replay.
    ExecutionEngine engine(EngineConfig{});
    auto router = std::make_shared<KvRouter>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *router = KvRouter::create(ctx, smallRouter(GetParam()), 1);
    });
    const std::uint64_t key = 21;
    const auto partition = static_cast<std::uint32_t>(
        KvRouterLayout::partitionOf(key, router->layout().partitions));
    engine.run({[&](ThreadCtx &ctx) {
        const std::uint32_t home = router->shardOf(ctx, key);
        const std::uint8_t v[4] = {1, 2, 3, 4};
        KvTxn txn;
        txn.put(key, v, sizeof(v));
        ASSERT_EQ(router->commit(ctx, 0, txn), KvTxnStatus::Committed);
        ASSERT_EQ(router->migrate(ctx, 0, partition, 1 - home),
                  KvMigrateStatus::Ok);
        ASSERT_EQ(router->erase(ctx, 0, key), KvStatus::Ok);
        ASSERT_EQ(router->migrate(ctx, 0, partition, home),
                  KvMigrateStatus::Ok);
        std::vector<std::uint8_t> value;
        EXPECT_FALSE(router->get(ctx, key, value));
    }});

    for (const KvRecoveryMode mode :
         {KvRecoveryMode::Repair, KvRecoveryMode::TxnResolve}) {
        KvGroupRecoveryOptions options;
        options.mode = mode;
        const KvGroupRecovery rec =
            recoverKvRouter(engine.memory(), router->layout(), options);
        EXPECT_EQ(rec.entries.count(key), 0u)
            << "erased key resurrected at seq "
            << rec.entries.at(key).seq;
        EXPECT_EQ(rec.owner_faults, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, KvTxnStrategies,
    ::testing::Values(KvUpdateStrategy::InPlace, KvUpdateStrategy::Cow,
                      KvUpdateStrategy::LogStructured),
    [](const ::testing::TestParamInfo<KvUpdateStrategy> &info) {
        return std::string(kvUpdateStrategyName(info.param));
    });

TEST(KvTxn, CommitBackpressureLeavesNoTrace)
{
    ExecutionEngine engine(EngineConfig{});
    auto router = std::make_shared<KvRouter>();
    KvRouterOptions options = smallRouter(KvUpdateStrategy::InPlace);
    options.max_txns = 3; // Ids 1 and 2 usable.
    engine.runSetup([&](ThreadCtx &ctx) {
        *router = KvRouter::create(ctx, options, 1);
    });

    engine.run({[&](ThreadCtx &ctx) {
        KvTxn empty;
        EXPECT_EQ(router->commit(ctx, 0, empty), KvTxnStatus::Empty);

        KvTxn huge;
        std::vector<std::uint8_t> big(
            router->layout().max_value_bytes + 1, 1);
        huge.put(5, big.data(), big.size());
        EXPECT_EQ(router->commit(ctx, 0, huge),
                  KvTxnStatus::ValueTooLarge);

        KvTxn ok;
        const std::uint8_t v[2] = {1, 2};
        ok.put(5, v, sizeof(v));
        ok.put(6, v, sizeof(v));
        EXPECT_EQ(router->commit(ctx, 0, ok),
                  KvTxnStatus::Committed);
        EXPECT_EQ(router->commit(ctx, 0, ok),
                  KvTxnStatus::Committed);
        // Id space exhausted: pure backpressure, values unchanged.
        EXPECT_EQ(router->commit(ctx, 0, ok),
                  KvTxnStatus::TooManyTxns);
        std::vector<std::uint8_t> value;
        ASSERT_TRUE(router->get(ctx, 5, value));
        EXPECT_EQ(value, std::vector<std::uint8_t>(v, v + sizeof(v)));
    }});
    EXPECT_EQ(router->txnGolden()->size(), 2u);
}

TEST(KvTxn, SnapshotPinsTheGlobalSeq)
{
    ExecutionEngine engine(EngineConfig{});
    auto router = std::make_shared<KvRouter>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *router = KvRouter::create(
            ctx, smallRouter(KvUpdateStrategy::Cow), 1);
    });

    engine.run({[&](ThreadCtx &ctx) {
        const std::uint8_t v1[2] = {1, 1};
        const std::uint8_t v2[2] = {2, 2};
        ASSERT_EQ(router->put(ctx, 0, 3, v1, sizeof(v1)),
                  KvStatus::Ok);
        ASSERT_EQ(router->put(ctx, 0, 4, v1, sizeof(v1)),
                  KvStatus::Ok);

        std::map<std::uint64_t, std::vector<std::uint8_t>> out;
        std::uint64_t seq_a = 0, seq_b = 0;
        ASSERT_TRUE(router->multiGet(ctx, {3, 4, 99}, out, seq_a));
        EXPECT_EQ(out.size(), 2u);
        EXPECT_EQ(out[3],
                  std::vector<std::uint8_t>(v1, v1 + sizeof(v1)));

        // A later mutation advances the pinned seq.
        ASSERT_EQ(router->put(ctx, 0, 3, v2, sizeof(v2)),
                  KvStatus::Ok);
        ASSERT_TRUE(router->multiGet(ctx, {3, 4}, out, seq_b));
        EXPECT_GT(seq_b, seq_a);
        EXPECT_EQ(out[3],
                  std::vector<std::uint8_t>(v2, v2 + sizeof(v2)));
    }});
}

TEST(KvTxn, MigrationMovesOwnershipAndKeys)
{
    ExecutionEngine engine(EngineConfig{});
    auto router = std::make_shared<KvRouter>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *router = KvRouter::create(
            ctx, smallRouter(KvUpdateStrategy::LogStructured), 1);
    });

    engine.run({[&](ThreadCtx &ctx) {
        // Fill a handful of keys, then move every partition that
        // hosts one of them to shard 1 and check nothing is lost.
        std::vector<std::uint64_t> keys = {11, 12, 13, 14, 15};
        for (std::uint64_t key : keys) {
            const std::uint8_t v[3] = {
                static_cast<std::uint8_t>(key), 0, 1};
            ASSERT_EQ(router->put(ctx, 0, key, v, sizeof(v)),
                      KvStatus::Ok);
        }
        for (std::uint64_t key : keys) {
            const std::uint32_t partition =
                static_cast<std::uint32_t>(KvRouterLayout::partitionOf(
                    key, router->layout().partitions));
            const KvMigrateStatus status =
                router->migrate(ctx, 0, partition, 1);
            EXPECT_TRUE(status == KvMigrateStatus::Ok ||
                        status == KvMigrateStatus::NoOp)
                << kvMigrateStatusName(status);
            EXPECT_EQ(router->shardOf(ctx, key), 1u);
            // Migrating to the current owner is a no-op.
            EXPECT_EQ(router->migrate(ctx, 0, partition, 1),
                      KvMigrateStatus::NoOp);
        }
        std::vector<std::uint8_t> value;
        for (std::uint64_t key : keys) {
            ASSERT_TRUE(router->get(ctx, key, value)) << key;
            EXPECT_EQ(value[0], static_cast<std::uint8_t>(key));
        }
        // Mutations keep working on the new owner.
        const std::uint8_t v2[2] = {7, 7};
        ASSERT_EQ(router->put(ctx, 0, 11, v2, sizeof(v2)),
                  KvStatus::Ok);
        ASSERT_EQ(router->erase(ctx, 0, 12), KvStatus::Ok);
        ASSERT_TRUE(router->get(ctx, 11, value));
        EXPECT_EQ(value,
                  std::vector<std::uint8_t>(v2, v2 + sizeof(v2)));
        EXPECT_FALSE(router->get(ctx, 12, value));
    }});
}

TEST(KvTxn, OwnerFlipWithoutItsEndRecordIsDetected)
{
    // Device faults can drop the migration's end record while the
    // owner flip that follows it lands: a checksum-valid owner entry
    // the group journal does not explain is damage, not authority.
    ExecutionEngine engine(EngineConfig{});
    auto router = std::make_shared<KvRouter>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *router = KvRouter::create(
            ctx, smallRouter(KvUpdateStrategy::InPlace), 1);
    });
    const std::uint64_t key = 21;
    const auto partition = static_cast<std::uint32_t>(
        KvRouterLayout::partitionOf(key, router->layout().partitions));
    std::uint32_t home = 0;
    engine.run({[&](ThreadCtx &ctx) {
        home = router->shardOf(ctx, key);
        const std::uint8_t v[4] = {1, 2, 3, 4};
        KvTxn txn;
        txn.put(key, v, sizeof(v));
        ASSERT_EQ(router->commit(ctx, 0, txn), KvTxnStatus::Committed);
        ASSERT_EQ(router->migrate(ctx, 0, partition, 1 - home),
                  KvMigrateStatus::Ok);
    }});

    // Break the header of the last group-journal record (the end
    // record): the scan truncates there.
    const KvRouterLayout &layout = router->layout();
    MemoryImage image = engine.memory().clone();
    const LogRecovery group =
        PersistentLog::recover(image, layout.group_journal);
    ASSERT_FALSE(group.records.empty());
    const Addr end_record =
        layout.group_journal.base + group.records.back().offset;
    image.store(end_record, 8, ~image.load(end_record, 8));

    KvGroupRecoveryOptions options;
    options.mode = KvRecoveryMode::TxnResolve;
    const KvGroupRecovery rec = recoverKvRouter(image, layout, options);
    EXPECT_EQ(rec.owner_faults, 1u);
    EXPECT_EQ(rec.owners[partition], home);
    EXPECT_TRUE(rec.anyTxnFaults());
}

TEST(KvTxn, PublishedSeqIsSafeToPollFromAnotherThread)
{
    // Regression test for the global seq counter being read
    // non-atomically by snapshot readers: publishedSeq() must be an
    // acquire load pairing with the writers' release increments, so
    // an ordinary OS thread can poll it while the engine's simulated
    // threads (fibers on this test's thread) mutate.
    // Run this under TSan to make the check real.
    ExecutionEngine engine(EngineConfig{});
    auto router = std::make_shared<KvRouter>();
    engine.runSetup([&](ThreadCtx &ctx) {
        *router = KvRouter::create(
            ctx, smallRouter(KvUpdateStrategy::InPlace), 2);
    });

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> observed{0};
    std::thread poller([&] {
        std::uint64_t last = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t seq = router->publishedSeq();
            EXPECT_GE(seq, last); // Monotone from one observer.
            last = seq;
            std::this_thread::yield();
        }
        observed.store(last);
    });

    std::vector<ExecutionEngine::WorkerFn> workers;
    for (std::uint32_t t = 0; t < 2; ++t) {
        workers.push_back([&router, t](ThreadCtx &ctx) {
            std::vector<std::uint8_t> value(8, 0);
            for (std::uint64_t i = 0; i < 200; ++i) {
                value[0] = static_cast<std::uint8_t>(i);
                const std::uint64_t key = 1 + (i * 2 + t) % 64;
                (void)router->put(ctx, t, key, value.data(),
                                  value.size());
                if (i % 8 == 0) {
                    KvTxn txn;
                    txn.put(key, value.data(), value.size());
                    txn.put(key + 64, value.data(), value.size());
                    (void)router->commit(ctx, t, txn);
                }
            }
        });
    }
    engine.run(workers);
    stop.store(true);
    poller.join();
    EXPECT_GT(router->publishedSeq(), 0u);
    EXPECT_LE(observed.load(), router->publishedSeq());
}

TEST(KvTxn, RecordCodecRejectsMalformedPayloads)
{
    KvTxnRecord record;
    record.kind = KvTxnRecord::kind_commit;
    record.txn = 9;
    record.seq = 40;
    record.participants = {{0, 0}, {1, 128}};
    const std::vector<std::uint8_t> payload = record.encode();
    KvTxnRecord decoded;
    ASSERT_TRUE(KvTxnRecord::decode(payload, decoded));
    EXPECT_EQ(decoded.txn, 9u);
    EXPECT_EQ(decoded.seq, 40u);
    ASSERT_EQ(decoded.participants.size(), 2u);
    EXPECT_EQ(decoded.participants[1].lsn, 128u);

    // Truncated, wrong count, zero txn, zero seq: all rejected.
    std::vector<std::uint8_t> bad(payload.begin(), payload.end() - 1);
    EXPECT_FALSE(KvTxnRecord::decode(bad, decoded));
    bad = payload;
    bad[24] = 7; // Count no longer matches the size.
    EXPECT_FALSE(KvTxnRecord::decode(bad, decoded));
    bad = payload;
    bad[8] = 0;
    EXPECT_FALSE(KvTxnRecord::decode(bad, decoded));
    bad = payload;
    bad[16] = 0;
    EXPECT_FALSE(KvTxnRecord::decode(bad, decoded));

    KvTxnRecord migrate;
    migrate.kind = KvTxnRecord::kind_migrate_end;
    migrate.txn = 4;
    migrate.partition = 3;
    migrate.from_shard = 0;
    migrate.to_shard = 2;
    migrate.moved_keys = 5;
    migrate.seq = 31;
    const std::vector<std::uint8_t> mig_payload = migrate.encode();
    ASSERT_TRUE(KvTxnRecord::decode(mig_payload, decoded));
    EXPECT_EQ(decoded.to_shard, 2u);
    EXPECT_EQ(decoded.moved_keys, 5u);
    EXPECT_EQ(decoded.seq, 31u);
    bad = mig_payload;
    bad[0] = 77; // Unknown kind.
    EXPECT_FALSE(KvTxnRecord::decode(bad, decoded));
    bad = mig_payload;
    bad[24] = 2; // from == to.
    EXPECT_FALSE(KvTxnRecord::decode(bad, decoded));
    bad = mig_payload;
    bad.push_back(0); // Migrate records are exactly 56 bytes.
    EXPECT_FALSE(KvTxnRecord::decode(bad, decoded));
}

TEST(KvTxn, RecordAtValidatesSingleJournalRecords)
{
    // recordAt() is the group recovery's point probe: it must accept
    // exactly the records the prefix scan yields and reject torn or
    // overwritten bytes at the same offset.
    const KvRouterWorkloadResult workload = runKvRouterWorkload(
        routerWorkload(KvUpdateStrategy::InPlace));
    const MemoryImage image = finalImage(workload);
    const LogLayout &journal = workload.layout.shard_journals[0];
    const LogRecovery scan = PersistentLog::recover(image, journal);
    ASSERT_GT(scan.records.size(), 0u);
    for (const RecoveredRecord &record : scan.records) {
        RecoveredRecord probe;
        ASSERT_TRUE(PersistentLog::recordAt(image, journal,
                                            record.offset, probe));
        EXPECT_EQ(probe.payload, record.payload);
        EXPECT_EQ(probe.seq, record.seq);
    }
    // Corrupt one payload byte: the point probe rejects it.
    MemoryImage rotted = image.clone();
    const std::uint64_t offset = scan.records.front().offset;
    const std::uint64_t byte =
        rotted.load(journal.base + offset + 16, 1);
    rotted.store(journal.base + offset + 16, 1, byte ^ 0xff);
    RecoveredRecord probe;
    EXPECT_FALSE(
        PersistentLog::recordAt(rotted, journal, offset, probe));
}

} // namespace
} // namespace persim
