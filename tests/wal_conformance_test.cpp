/**
 * @file
 * Interface-conformance suite: every WriteAheadLog implementation
 * (rollback journal, stock WAL, optimized WAL, and all NVWAL
 * variants) must satisfy the same behavioural contract the Database
 * layer depends on:
 *
 *  - writeFrameGroup() makes each transaction's frames readable
 *    (readPage) or directly durable in the .db file;
 *  - the latest committed version of a page wins;
 *  - recover() on a fresh object reproduces the committed state and
 *    reports the last committed database size;
 *  - checkpoint() moves everything into the .db file, after which
 *    readPage returns false and the db file alone suffices;
 *  - framesSinceCheckpoint() is zero after a checkpoint.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "db/env.hpp"
#include "core/nvwal_log.hpp"
#include "wal/file_wal.hpp"
#include "wal/rollback_journal.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 4096;

struct Fixture
{
    std::unique_ptr<Env> env;
    std::unique_ptr<DbFile> dbFile;
    std::unique_ptr<WriteAheadLog> wal;
};

using Factory = std::function<std::unique_ptr<WriteAheadLog>(
    Env &, DbFile &, std::uint32_t reserved)>;

struct Impl
{
    const char *label;
    std::uint32_t reserved;
    Factory make;
};

Impl
implFor(const std::string &which)
{
    if (which == "Journal") {
        return Impl{"Journal", 0,
                    [](Env &env, DbFile &db_file, std::uint32_t) {
                        return std::unique_ptr<WriteAheadLog>(
                            new RollbackJournal(env.fs, "t.db-journal",
                                                db_file, kPageSize,
                                                env.stats));
                    }};
    }
    if (which == "StockWal" || which == "OptimizedWal") {
        const bool optimized = which == "OptimizedWal";
        return Impl{
            optimized ? "OptimizedWal" : "StockWal",
            optimized ? 24u : 0u,
            [optimized](Env &env, DbFile &db_file,
                        std::uint32_t reserved) {
                FileWalConfig config;
                config.optimized = optimized;
                return std::unique_ptr<WriteAheadLog>(
                    new FileWal(env.fs, "t.db-wal", db_file, kPageSize,
                                reserved, config, env.stats));
            }};
    }
    // NVWAL variants: "Nvwal_<E|LS|CS>_<diff01>_<uh01>"
    NvwalConfig config;
    config.syncMode = which.find("_E_") != std::string::npos
                          ? SyncMode::Eager
                      : which.find("_CS_") != std::string::npos
                          ? SyncMode::ChecksumAsync
                          : SyncMode::Lazy;
    config.diffLogging = which.find("diff1") != std::string::npos;
    config.userHeap = which.find("uh1") != std::string::npos;
    return Impl{"Nvwal", 24,
                [config](Env &env, DbFile &db_file,
                         std::uint32_t reserved) {
                    return std::unique_ptr<WriteAheadLog>(
                        new NvwalLog(env.heap, env.pmem, db_file,
                                     kPageSize, reserved, config,
                                     env.stats));
                }};
}

class WalConformance : public ::testing::TestWithParam<std::string>
{
  protected:
    WalConformance() : impl(implFor(GetParam()))
    {
        EnvConfig env_config;
        env_config.cost = CostModel::nexus5();
        env_config.nvramBytes = 32 << 20;
        env_config.flashBlocks = 8192;
        env = std::make_unique<Env>(env_config);
        dbFile = std::make_unique<DbFile>(env->fs, "t.db", kPageSize);
        NVWAL_CHECK_OK(dbFile->open());
        // Seed the file with two pages like Pager::open does.
        ByteBuffer zero(kPageSize, 0);
        NVWAL_CHECK_OK(
            dbFile->writePage(1, ConstByteSpan(zero.data(), kPageSize)));
        NVWAL_CHECK_OK(
            dbFile->writePage(2, ConstByteSpan(zero.data(), kPageSize)));
        NVWAL_CHECK_OK(dbFile->sync());
        wal = impl.make(*env, *dbFile, impl.reserved);
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(wal->recover(&db_size));
    }

    ByteBuffer
    makePage(std::uint64_t seed) const
    {
        ByteBuffer page = testutil::makeValue(kPageSize, seed);
        std::memset(page.data() + kPageSize - impl.reserved, 0,
                    impl.reserved);
        return page;
    }

    Status
    commitPages(const std::vector<std::pair<PageNo, const ByteBuffer *>>
                    &pages,
                std::uint32_t db_size)
    {
        std::vector<DirtyRanges> ranges(pages.size());
        std::vector<FrameWrite> frames;
        for (std::size_t i = 0; i < pages.size(); ++i) {
            ranges[i].mark(0, kPageSize - impl.reserved);
            frames.push_back(FrameWrite{
                pages[i].first,
                ConstByteSpan(pages[i].second->data(), kPageSize),
                &ranges[i]});
        }
        return wal->writeFrameGroup({{frames, db_size}});
    }

    /** Latest committed page content via log-then-file. */
    ByteBuffer
    currentPage(PageNo no)
    {
        ByteBuffer out(kPageSize, 0);
        if ((wal->readPage(no, ByteSpan(out.data(), kPageSize))).isNotFound())
            NVWAL_CHECK_OK(dbFile->readPage(no, ByteSpan(out.data(),
                                                         kPageSize)));
        return out;
    }

    Impl impl;
    std::unique_ptr<Env> env;
    std::unique_ptr<DbFile> dbFile;
    std::unique_ptr<WriteAheadLog> wal;
};

TEST_P(WalConformance, CommittedFramesAreVisible)
{
    const ByteBuffer p2 = makePage(1);
    NVWAL_CHECK_OK(commitPages({{2, &p2}}, 2));
    EXPECT_EQ(currentPage(2), p2);
}

TEST_P(WalConformance, LatestCommitWins)
{
    const ByteBuffer v1 = makePage(2);
    const ByteBuffer v2 = makePage(3);
    NVWAL_CHECK_OK(commitPages({{2, &v1}}, 2));
    NVWAL_CHECK_OK(commitPages({{2, &v2}}, 2));
    EXPECT_EQ(currentPage(2), v2);
}

TEST_P(WalConformance, RecoverReproducesCommittedState)
{
    const ByteBuffer p2 = makePage(4);
    const ByteBuffer p3 = makePage(5);
    NVWAL_CHECK_OK(commitPages({{2, &p2}, {3, &p3}}, 3));

    auto fresh = impl.make(*env, *dbFile, impl.reserved);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(fresh->recover(&db_size));
    // In-place implementations report 0 (the file itself is truth).
    if (db_size != 0) {
        EXPECT_EQ(db_size, 3u);
    }
    ByteBuffer out(kPageSize, 0);
    if ((fresh->readPage(2, ByteSpan(out.data(), kPageSize))).isNotFound())
        NVWAL_CHECK_OK(dbFile->readPage(2, ByteSpan(out.data(),
                                                    kPageSize)));
    EXPECT_EQ(out, p2);
}

TEST_P(WalConformance, CheckpointMovesEverythingToTheFile)
{
    const ByteBuffer p2 = makePage(6);
    const ByteBuffer p3 = makePage(7);
    NVWAL_CHECK_OK(commitPages({{2, &p2}, {3, &p3}}, 3));
    NVWAL_CHECK_OK(wal->checkpoint());
    EXPECT_EQ(wal->framesSinceCheckpoint(), 0u);

    ByteBuffer out(kPageSize);
    EXPECT_TRUE(wal->readPage(2, ByteSpan(out.data(), kPageSize)).isNotFound());
    NVWAL_CHECK_OK(dbFile->readPage(2, ByteSpan(out.data(), kPageSize)));
    EXPECT_EQ(out, p2);
    NVWAL_CHECK_OK(dbFile->readPage(3, ByteSpan(out.data(), kPageSize)));
    EXPECT_EQ(out, p3);
}

TEST_P(WalConformance, ManyCommitsThenRecoverThenContinue)
{
    ByteBuffer page = makePage(8);
    for (int i = 0; i < 30; ++i) {
        page[100] = static_cast<std::uint8_t>(i);
        NVWAL_CHECK_OK(commitPages({{2, &page}}, 2));
    }
    auto fresh = impl.make(*env, *dbFile, impl.reserved);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(fresh->recover(&db_size));
    ByteBuffer out(kPageSize, 0);
    if ((fresh->readPage(2, ByteSpan(out.data(), kPageSize))).isNotFound())
        NVWAL_CHECK_OK(dbFile->readPage(2, ByteSpan(out.data(),
                                                    kPageSize)));
    EXPECT_EQ(out[100], 29);

    // The recovered object accepts further commits.
    wal = std::move(fresh);
    page[100] = 99;
    NVWAL_CHECK_OK(commitPages({{2, &page}}, 2));
    EXPECT_EQ(currentPage(2)[100], 99);
}

INSTANTIATE_TEST_SUITE_P(
    Impls, WalConformance,
    ::testing::Values("Journal", "StockWal", "OptimizedWal",
                      "Nvwal_LS_diff0_uh0", "Nvwal_LS_diff1_uh1",
                      "Nvwal_CS_diff1_uh1", "Nvwal_E_diff1_uh1"),
    [](const auto &info) {
        std::string name = info.param;
        return name;
    });

} // namespace
} // namespace nvwal
