/**
 * @file
 * Unit tests for the file-based WAL (stock and optimized): frame
 * round-trips, commit semantics, checkpointing, torn-tail recovery
 * and the I/O-volume differences the paper measures in section 5.4.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "db/env.hpp"
#include "wal/file_wal.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 4096;

class FileWalTest : public ::testing::TestWithParam<bool>
{
  protected:
    FileWalTest()
        : env(makeEnvConfig()),
          dbFile(env.fs, "t.db", kPageSize)
    {
        NVWAL_CHECK_OK(dbFile.open());
        config.optimized = GetParam();
        reserved = config.optimized ? 24 : 0;
        wal = std::make_unique<FileWal>(env.fs, "t.db-wal", dbFile,
                                        kPageSize, reserved, config,
                                        env.stats);
    }

    static EnvConfig
    makeEnvConfig()
    {
        EnvConfig c;
        c.cost = CostModel::nexus5();
        return c;
    }

    /** Build a recognizable page image. */
    ByteBuffer
    makePage(std::uint64_t seed) const
    {
        ByteBuffer page = testutil::makeValue(kPageSize, seed);
        // Reserved tail bytes are never used by the B-tree.
        std::memset(page.data() + kPageSize - reserved, 0, reserved);
        return page;
    }

    Status
    commitPage(PageNo no, const ByteBuffer &page, std::uint32_t db_size)
    {
        DirtyRanges ranges;
        ranges.mark(0, kPageSize - reserved);
        std::vector<FrameWrite> frames{
            FrameWrite{no, testutil::spanOf(page), &ranges}};
        return wal->writeFrameGroup({{frames, db_size}});
    }

    Env env;
    DbFile dbFile;
    FileWalConfig config;
    std::uint32_t reserved = 0;
    std::unique_ptr<FileWal> wal;
};

TEST_P(FileWalTest, EmptyLogReadsNothing)
{
    ByteBuffer out(kPageSize);
    EXPECT_TRUE(wal->readPage(3, ByteSpan(out.data(), out.size())).isNotFound());
    EXPECT_EQ(wal->framesSinceCheckpoint(), 0u);
}

TEST_P(FileWalTest, WriteThenReadBack)
{
    const ByteBuffer page = makePage(1);
    NVWAL_CHECK_OK(commitPage(3, page, 3));
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(wal->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, page);
    EXPECT_EQ(wal->framesSinceCheckpoint(), 1u);
}

TEST_P(FileWalTest, LatestCommittedVersionWins)
{
    const ByteBuffer v1 = makePage(1);
    const ByteBuffer v2 = makePage(2);
    NVWAL_CHECK_OK(commitPage(3, v1, 3));
    NVWAL_CHECK_OK(commitPage(3, v2, 3));
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(wal->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, v2);
}

TEST_P(FileWalTest, RecoverRebuildsIndex)
{
    const ByteBuffer p3 = makePage(3);
    const ByteBuffer p4 = makePage(4);
    NVWAL_CHECK_OK(commitPage(3, p3, 4));
    NVWAL_CHECK_OK(commitPage(4, p4, 4));

    FileWal fresh(env.fs, "t.db-wal", dbFile, kPageSize, reserved, config,
                  env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(fresh.recover(&db_size));
    EXPECT_EQ(db_size, 4u);
    EXPECT_EQ(fresh.framesSinceCheckpoint(), 2u);
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(fresh.readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p3);
    ASSERT_TRUE(fresh.readPage(4, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p4);
}

TEST_P(FileWalTest, RecoverAfterCrashDropsUnsyncedTail)
{
    const ByteBuffer p3 = makePage(6);
    NVWAL_CHECK_OK(commitPage(3, p3, 3));  // fsynced

    // A second commit whose fsync never happened: append a
    // well-formed commit frame for page 4, chained onto the first
    // frame's checksum, without fsync.
    const std::uint64_t header_region =
        config.optimized ? kPageSize : FileWal::kFileHeaderSize;
    const std::uint32_t content = kPageSize - reserved;
    const std::uint64_t frame_size = FileWal::kFrameHeaderSize + content;
    ByteBuffer frame(frame_size);
    NVWAL_CHECK_OK(env.fs.pread("t.db-wal", header_region,
                                ByteSpan(frame.data(), frame.size())));
    CumulativeChecksum chain(loadU64(frame.data() + 16));
    const ByteBuffer p4 = makePage(7);
    std::memset(frame.data(), 0, FileWal::kFrameHeaderSize);
    storeU32(frame.data(), 4);      // page number
    storeU32(frame.data() + 4, 4);  // db size: a commit frame
    std::memcpy(frame.data() + FileWal::kFrameHeaderSize, p4.data(),
                content);
    chain.update(ConstByteSpan(frame.data(), 16));
    chain.update(ConstByteSpan(frame.data() + FileWal::kFrameHeaderSize,
                               content));
    storeU64(frame.data() + 16, chain.value());
    NVWAL_CHECK_OK(env.fs.pwrite("t.db-wal", header_region + frame_size,
                                 ConstByteSpan(frame.data(), frame.size())));

    // The frame is well formed: recovery before the crash takes it.
    std::uint32_t db_size = 0;
    {
        FileWal before_crash(env.fs, "t.db-wal", dbFile, kPageSize,
                             reserved, config, env.stats);
        NVWAL_CHECK_OK(before_crash.recover(&db_size));
        EXPECT_EQ(db_size, 4u);
    }
    env.fs.crash();

    FileWal fresh(env.fs, "t.db-wal", dbFile, kPageSize, reserved, config,
                  env.stats);
    NVWAL_CHECK_OK(fresh.recover(&db_size));
    EXPECT_EQ(db_size, 3u);
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(fresh.readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p3);
    EXPECT_TRUE(fresh.readPage(4, ByteSpan(out.data(), out.size())).isNotFound());
}

TEST_P(FileWalTest, RecoverRejectsCorruptedFrame)
{
    const ByteBuffer p3 = makePage(8);
    const ByteBuffer p4 = makePage(9);
    NVWAL_CHECK_OK(commitPage(3, p3, 3));
    NVWAL_CHECK_OK(commitPage(4, p4, 4));

    // Flip a byte inside the second frame's payload.
    const std::uint64_t header_region =
        config.optimized ? kPageSize : FileWal::kFileHeaderSize;
    const std::uint64_t frame_size =
        FileWal::kFrameHeaderSize + (kPageSize - reserved) +
        (config.optimized ? 0 : reserved);
    const std::uint64_t off = header_region + frame_size +
                              FileWal::kFrameHeaderSize + 100;
    ByteBuffer byte(1);
    NVWAL_CHECK_OK(env.fs.pread("t.db-wal", off, ByteSpan(byte.data(), 1)));
    byte[0] ^= 0xFF;
    NVWAL_CHECK_OK(
        env.fs.pwrite("t.db-wal", off, ConstByteSpan(byte.data(), 1)));
    NVWAL_CHECK_OK(env.fs.fsync("t.db-wal"));

    FileWal fresh(env.fs, "t.db-wal", dbFile, kPageSize, reserved, config,
                  env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(fresh.recover(&db_size));
    // Only the first commit survives the checksum chain.
    EXPECT_EQ(db_size, 3u);
    ByteBuffer out(kPageSize);
    EXPECT_TRUE(fresh.readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_TRUE(fresh.readPage(4, ByteSpan(out.data(), out.size())).isNotFound());
}

TEST_P(FileWalTest, CheckpointWritesBackAndTruncates)
{
    const ByteBuffer p3 = makePage(10);
    const ByteBuffer p4 = makePage(11);
    NVWAL_CHECK_OK(commitPage(3, p3, 4));
    NVWAL_CHECK_OK(commitPage(4, p4, 4));
    NVWAL_CHECK_OK(wal->checkpoint());

    EXPECT_EQ(wal->framesSinceCheckpoint(), 0u);
    ByteBuffer out(kPageSize);
    EXPECT_TRUE(wal->readPage(3, ByteSpan(out.data(), out.size())).isNotFound());
    // The pages are now in the .db file.
    NVWAL_CHECK_OK(dbFile.readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, p3);
    NVWAL_CHECK_OK(dbFile.readPage(4, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, p4);
    // Log keeps working after the checkpoint.
    const ByteBuffer p5 = makePage(12);
    NVWAL_CHECK_OK(commitPage(5, p5, 5));
    ASSERT_TRUE(wal->readPage(5, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p5);
}

INSTANTIATE_TEST_SUITE_P(StockAndOptimized, FileWalTest,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "Optimized" : "Stock";
                         });

TEST(FileWalIoVolume, OptimizedModeWritesFewerJournalBlocks)
{
    // Regenerates the mechanism behind Figure 8: per-commit journal
    // traffic drops with aligned frames + pre-allocation.
    auto run = [](bool optimized) {
        EnvConfig env_config;
        env_config.cost = CostModel::nexus5();
        Env env(env_config);
        DbFile db_file(env.fs, "t.db", kPageSize);
        NVWAL_CHECK_OK(db_file.open());
        FileWalConfig config;
        config.optimized = optimized;
        const std::uint32_t reserved = optimized ? 24 : 0;
        FileWal wal(env.fs, "t.db-wal", db_file, kPageSize, reserved,
                    config, env.stats);
        ByteBuffer page = testutil::makeValue(kPageSize, 1);
        std::memset(page.data() + kPageSize - reserved, 0, reserved);
        DirtyRanges ranges;
        ranges.mark(0, kPageSize - reserved);
        for (int i = 0; i < 10; ++i) {
            std::vector<FrameWrite> frames{FrameWrite{
                3, testutil::spanOf(page), &ranges}};
            NVWAL_CHECK_OK(wal.writeFrameGroup({{frames, 3}}));
        }
        return env.stats.get(stats::kJournalBlocksWritten);
    };
    const std::uint64_t stock = run(false);
    const std::uint64_t optimized = run(true);
    EXPECT_LT(optimized, stock);
    // The paper reports ~40% fewer journal accesses (172 vs 284 KB).
    EXPECT_LT(static_cast<double>(optimized),
              0.75 * static_cast<double>(stock));
}

TEST(FileWalIoVolume, StockFramesAreMisaligned)
{
    // A stock frame is pageSize + 24 bytes: ten commits write more
    // data blocks than ten optimized commits.
    auto dataBlocks = [](bool optimized) {
        EnvConfig env_config;
        env_config.cost = CostModel::nexus5();
        Env env(env_config);
        DbFile db_file(env.fs, "t.db", kPageSize);
        NVWAL_CHECK_OK(db_file.open());
        FileWalConfig config;
        config.optimized = optimized;
        const std::uint32_t reserved = optimized ? 24 : 0;
        FileWal wal(env.fs, "t.db-wal", db_file, kPageSize, reserved,
                    config, env.stats);
        ByteBuffer page = testutil::makeValue(kPageSize, 2);
        std::memset(page.data() + kPageSize - reserved, 0, reserved);
        DirtyRanges ranges;
        ranges.mark(0, kPageSize - reserved);
        for (int i = 0; i < 10; ++i) {
            std::vector<FrameWrite> frames{FrameWrite{
                3, testutil::spanOf(page), &ranges}};
            NVWAL_CHECK_OK(wal.writeFrameGroup({{frames, 3}}));
        }
        return env.flash.bytesWritten(IoTag::WalFile);
    };
    EXPECT_GT(dataBlocks(false), dataBlocks(true));
}

} // namespace
} // namespace nvwal
