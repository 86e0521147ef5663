/**
 * @file
 * Coverage for smaller surfaces: multi-range differential logging
 * (correctness, crash safety, checkpoint cadence), block-device
 * tracing, Env power-failure wiring, and DbFile paging.
 */

#include <gtest/gtest.h>

#include <map>

#include "db/database.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

EnvConfig
smallEnv()
{
    EnvConfig c;
    c.cost = CostModel::tuna(500);
    c.nvramBytes = 16 << 20;
    c.flashBlocks = 4096;
    return c;
}

DbConfig
multiRangeConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.nvwal.diffGranularity = DiffGranularity::MultiRange;
    return config;
}

TEST(MultiRangeDiff, OracleEquivalence)
{
    Env env(smallEnv());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, multiRangeConfig(), &db));

    Rng rng(17);
    std::map<RowId, ByteBuffer> model;
    for (int step = 0; step < 800; ++step) {
        const RowId key = static_cast<RowId>(rng.nextBelow(250));
        const ByteBuffer v =
            testutil::makeValue(1 + rng.nextBelow(300), rng.next());
        if (model.count(key)) {
            if (rng.nextBool(0.5)) {
                NVWAL_CHECK_OK(db->update(key, testutil::spanOf(v)));
                model[key] = v;
            } else {
                NVWAL_CHECK_OK(db->remove(key));
                model.erase(key);
            }
        } else {
            NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(v)));
            model[key] = v;
        }
    }
    // Reopen: reconstruction from multi-range frames.
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, multiRangeConfig(), &db));
    NVWAL_CHECK_OK(db->verifyIntegrity());
    std::map<RowId, ByteBuffer> content;
    NVWAL_CHECK_OK(db->scan(INT64_MIN, INT64_MAX,
                            [&](RowId k, ConstByteSpan v) {
                                content[k] = ByteBuffer(v.begin(), v.end());
                                return true;
                            }));
    EXPECT_EQ(content, model);
}

TEST(MultiRangeDiff, LogsFewerBytesThanSingleRange)
{
    auto bytesFor = [](DiffGranularity granularity) {
        Env env(smallEnv());
        DbConfig config;
        config.walMode = WalMode::Nvwal;
        config.nvwal.diffGranularity = granularity;
        config.autoCheckpoint = false;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        for (RowId k = 0; k < 200; ++k) {
            NVWAL_CHECK_OK(db->insert(
                k, testutil::spanOf(testutil::makeValue(100, k))));
        }
        return env.stats.get(stats::kNvramBytesLogged);
    };
    const std::uint64_t single = bytesFor(DiffGranularity::SingleRange);
    const std::uint64_t multi = bytesFor(DiffGranularity::MultiRange);
    EXPECT_LT(multi, single / 2);
}

TEST(MultiRangeDiff, CrashSweepStaysAtomic)
{
    faultsim::SweepConfig config;
    config.env = smallEnv();
    config.db = multiRangeConfig();
    for (RowId k = 0; k < 6; ++k) {
        config.warmup.insert(
            k, faultsim::Workload::valueFor(
                   100, static_cast<std::uint64_t>(k)));
    }
    config.workload.phase("victim txn")
        .begin()
        .update(3, faultsim::Workload::valueFor(100, 333))
        .insert(100, faultsim::Workload::valueFor(100, 100))
        .commit();
    config.policies.push_back(faultsim::PolicyRun{});  // pessimistic
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1}, 0.5});
    config.maxPoints = 30;

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.crashes, 0u);
}

TEST(MultiRangeDiff, CheckpointCadenceIgnoresDiffFormat)
{
    // The auto-checkpoint trigger counts page writes (one per page per
    // committed transaction), not frames: multi-range frames split a
    // page into several frames, and that split must not change when
    // checkpoints run or how much the flash device writes.
    struct Run
    {
        std::uint64_t checkpoints = 0;
        std::uint64_t blocksWritten = 0;
        std::uint64_t frames = 0;
        std::uint64_t pageWrites = 0;
    };
    auto runFor = [](DiffGranularity granularity) {
        Env env(smallEnv());
        DbConfig config;
        config.walMode = WalMode::Nvwal;
        config.nvwal.diffGranularity = granularity;
        config.checkpointThreshold = 40;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        Rng rng(23);
        for (int txn = 0; txn < 150; ++txn) {
            NVWAL_CHECK_OK(db->begin());
            for (int op = 0; op < 3; ++op) {
                const RowId key = static_cast<RowId>(rng.nextBelow(400));
                const ByteBuffer v =
                    testutil::makeValue(20 + rng.nextBelow(200), rng.next());
                if (db->update(key, testutil::spanOf(v)).isNotFound())
                    NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(v)));
            }
            NVWAL_CHECK_OK(db->commit());
        }
        Run run;
        run.checkpoints = env.stats.get(stats::kCheckpoints);
        run.blocksWritten = env.stats.get(stats::kBlocksWritten);
        run.frames = db->wal().framesSinceCheckpoint();
        run.pageWrites = db->wal().pageWritesSinceCheckpoint();
        EXPECT_GT(run.pageWrites, 0u);

        // Every commit was Sync, so a power failure loses nothing: the
        // recovered log must report the same frames and page writes.
        env.powerFail(FailurePolicy::Pessimistic);
        NVWAL_CHECK_OK(Database::recoverAfterCrash(env, config, &db));
        EXPECT_EQ(db->wal().framesSinceCheckpoint(), run.frames);
        EXPECT_EQ(db->wal().pageWritesSinceCheckpoint(), run.pageWrites);
        return run;
    };
    const Run single = runFor(DiffGranularity::SingleRange);
    const Run multi = runFor(DiffGranularity::MultiRange);
    EXPECT_GT(single.checkpoints, 2u);
    EXPECT_EQ(multi.checkpoints, single.checkpoints);
    EXPECT_EQ(multi.blocksWritten, single.blocksWritten);
    EXPECT_EQ(multi.pageWrites, single.pageWrites);
    // The two formats really did split pages differently.
    EXPECT_GT(multi.frames, single.frames);
    EXPECT_EQ(single.frames, single.pageWrites);
}

TEST(BlockDeviceTrace, RecordsTaggedWrites)
{
    SimClock clock;
    MetricsRegistry stats;
    const CostModel cost = CostModel::nexus5();
    BlockDevice dev(256, 4096, clock, cost, stats);
    ByteBuffer block(4096, 0x11);

    dev.writeBlock(5, ConstByteSpan(block.data(), 4096), IoTag::DbFile);
    EXPECT_TRUE(dev.trace().empty());  // tracing off by default

    dev.setTracing(true);
    dev.writeBlock(6, ConstByteSpan(block.data(), 4096), IoTag::Journal);
    dev.writeBlock(7, ConstByteSpan(block.data(), 4096), IoTag::WalFile);
    ASSERT_EQ(dev.trace().size(), 2u);
    EXPECT_EQ(dev.trace()[0].block, 6u);
    EXPECT_EQ(dev.trace()[0].tag, IoTag::Journal);
    EXPECT_LT(dev.trace()[0].timeNs, dev.trace()[1].timeNs);
    EXPECT_EQ(dev.bytesWritten(IoTag::Journal), 4096u);
    EXPECT_EQ(dev.bytesWritten(IoTag::DbFile), 4096u);

    ByteBuffer out(4096);
    dev.readBlock(6, ByteSpan(out.data(), 4096));
    EXPECT_EQ(out, block);
    dev.clearTrace();
    EXPECT_TRUE(dev.trace().empty());
    EXPECT_STREQ(ioTagName(IoTag::Journal), "ext4-journal");
}

TEST(EnvWiring, PowerFailClearsEverythingVolatile)
{
    Env env(smallEnv());
    // NVRAM dirty line + unsynced file data.
    ByteBuffer data(64, 0x22);
    env.nvramDevice.write(1 << 20, ConstByteSpan(data.data(), 64));
    NVWAL_CHECK_OK(env.fs.pwrite("f", 0, ConstByteSpan(data.data(), 64)));
    env.powerFail(FailurePolicy::Pessimistic);
    EXPECT_EQ(env.nvramDevice.dirtyLineCount(), 0u);
    EXPECT_FALSE(env.fs.exists("f"));
    // The heap is re-attached and usable.
    NvOffset off;
    NVWAL_CHECK_OK(env.heap.nvMalloc(4096, &off));
}

TEST(DbFilePaging, PagesAreOneBasedAndSized)
{
    Env env(smallEnv());
    DbFile file(env.fs, "pages.db", 4096);
    NVWAL_CHECK_OK(file.open());
    EXPECT_EQ(file.pageCount(), 0u);
    const ByteBuffer p1 = testutil::makeValue(4096, 1);
    const ByteBuffer p3 = testutil::makeValue(4096, 3);
    NVWAL_CHECK_OK(file.writePage(1, testutil::spanOf(p1)));
    NVWAL_CHECK_OK(file.writePage(3, testutil::spanOf(p3)));  // hole at 2
    NVWAL_CHECK_OK(file.sync());
    EXPECT_EQ(file.pageCount(), 3u);
    ByteBuffer out(4096);
    NVWAL_CHECK_OK(file.readPage(1, ByteSpan(out.data(), 4096)));
    EXPECT_EQ(out, p1);
    NVWAL_CHECK_OK(file.readPage(3, ByteSpan(out.data(), 4096)));
    EXPECT_EQ(out, p3);
}

} // namespace
} // namespace nvwal
