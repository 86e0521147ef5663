/**
 * @file
 * Crash consistency across platform geometries: the flush-coverage
 * logic must be correct for any cache line size (flush ranges are
 * line-aligned; commit marks share lines with frame headers), any
 * NVWAL block size (frames straddle node boundaries differently) and
 * any page size. Each combination runs a small injected-crash sweep.
 */

#include <gtest/gtest.h>

#include "db/database.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

struct GeometryParam
{
    std::uint32_t cacheLine;
    std::uint32_t nvBlockSize;
    std::uint32_t pageSize;
};

class GeometryCrash : public ::testing::TestWithParam<GeometryParam>
{
};

TEST_P(GeometryCrash, InjectedCrashSweepStaysAtomic)
{
    const GeometryParam geo = GetParam();

    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(700);
    config.env.cost.cacheLineSize = geo.cacheLine;
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 4096;
    config.env.seed = 0xfeed;
    config.db.walMode = WalMode::Nvwal;
    config.db.pageSize = geo.pageSize;
    config.db.nvwal.nvBlockSize = geo.nvBlockSize;
    for (RowId k = 0; k < 8; ++k) {
        config.warmup.insert(
            k, faultsim::Workload::valueFor(
                   120, static_cast<std::uint64_t>(k)));
    }
    config.workload.phase("victim txn").begin();
    for (RowId k = 100; k < 103; ++k) {
        config.workload.insert(
            k, faultsim::Workload::valueFor(
                   120, static_cast<std::uint64_t>(k)));
    }
    config.workload.commit();
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Pessimistic, {0}, 0.5});
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1}, 0.5});
    config.maxPoints = 25;

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok())
        << "line=" << geo.cacheLine << " block=" << geo.nvBlockSize
        << " page=" << geo.pageSize << "\n" << report.summary();
    EXPECT_GT(report.crashes, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometryCrash,
    ::testing::Values(GeometryParam{32, 8192, 4096},
                      GeometryParam{64, 8192, 4096},
                      GeometryParam{128, 8192, 4096},
                      GeometryParam{256, 16384, 4096},
                      GeometryParam{64, 4096, 2048},
                      GeometryParam{32, 4096, 1024},
                      GeometryParam{64, 32768, 8192}),
    [](const auto &info) {
        return "line" + std::to_string(info.param.cacheLine) + "_blk" +
               std::to_string(info.param.nvBlockSize) + "_pg" +
               std::to_string(info.param.pageSize);
    });

/**
 * Frame placement at exact node-capacity boundaries: craft payload
 * sizes so a frame ends exactly at the node's last byte, one byte
 * short, and one byte over, and verify recovery in each case.
 */
TEST(NodeBoundary, ExactFitFramesRecover)
{
    for (int delta = -9; delta <= 9; delta += 3) {
        EnvConfig env_config;
        env_config.cost = CostModel::tuna(500);
        env_config.nvramBytes = 8 << 20;
        env_config.flashBlocks = 2048;
        Env env(env_config);
        DbFile db_file(env.fs, "t.db", 4096);
        NVWAL_CHECK_OK(db_file.open());
        NvwalConfig config;
        config.nvBlockSize = 4096;
        NvwalLog log(env.heap, env.pmem, db_file, 4096, 24, config,
                     env.stats);
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(log.recover(&db_size));

        // First frame sized to leave exactly (32 + 256 + delta)
        // bytes of node space; the second frame needs 32 + 256.
        const std::uint32_t capacity = 4096;  // one heap block
        const std::uint32_t first_payload =
            capacity - 8 /*node hdr*/ - 32 /*frame hdr*/ -
            (32 + 256 + static_cast<std::uint32_t>(delta + 9));
        ByteBuffer page = testutil::makeValue(4096, 1);
        DirtyRanges r1;
        r1.mark(0, first_payload);
        DirtyRanges r2;
        r2.mark(100, 356);
        std::vector<FrameWrite> frames{
            FrameWrite{2, testutil::spanOf(page), &r1},
            FrameWrite{3, testutil::spanOf(page), &r2}};
        NVWAL_CHECK_OK(log.writeFrameGroup({{frames, 3}}));

        env.powerFail(FailurePolicy::Pessimistic);
        NvwalLog fresh(env.heap, env.pmem, db_file, 4096, 24, config,
                       env.stats);
        NVWAL_CHECK_OK(fresh.recover(&db_size));
        EXPECT_EQ(db_size, 3u) << "delta " << delta;
        EXPECT_EQ(fresh.framesSinceCheckpoint(), 2u) << "delta " << delta;
        ByteBuffer out(4096);
        EXPECT_TRUE(fresh.readPage(3, ByteSpan(out.data(), 4096)).isOk());
    }
}

} // namespace
} // namespace nvwal
