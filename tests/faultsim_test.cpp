/**
 * @file
 * Tests for the crash-point sweep harness itself: coverage accounting
 * (every device op swept when stride is 1, bounded sampling with
 * stride/maxPoints), and the adversarial multi-seed sweep over the
 * checksum-async configuration (section 4.2's weakest consistency
 * mode, where torn lines are most likely to slip through).
 */

#include <gtest/gtest.h>

#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

faultsim::SweepConfig
baseConfig()
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db.walMode = WalMode::Nvwal;
    config.db.nvwal.nvBlockSize = 4096;
    return config;
}

TEST(FaultSim, ExhaustiveSweepCoversEveryDeviceOp)
{
    faultsim::SweepConfig config = baseConfig();
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::standardTxns(1, 2);
    config.policies.push_back(faultsim::PolicyRun{});  // pessimistic

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    // stride 1, no cap: every persistence-relevant device op of the
    // workload is a crash point, and every replay actually crashed.
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_GT(report.totalOps, 0u);
    EXPECT_EQ(report.replays, report.crashes);
    EXPECT_EQ(report.commitEvents, 2u);  // two committed transactions
    ASSERT_EQ(report.phases.size(), 2u);
    EXPECT_EQ(report.phases[0].first, "txn 1");
    EXPECT_EQ(report.phases[1].first, "txn 2");
    std::uint64_t phase_points = 0;
    for (const auto &[label, cov] : report.phases)
        phase_points += cov.points;
    EXPECT_EQ(phase_points, report.pointsSwept);
}

TEST(FaultSim, StrideAndMaxPointsBoundTheSweep)
{
    faultsim::SweepConfig config = baseConfig();
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::standardTxns(1, 2);
    config.policies.push_back(faultsim::PolicyRun{});
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2}, 0.5});
    config.stride = 7;
    config.maxPoints = 10;

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GE(report.pointsSwept, 1u);
    EXPECT_LE(report.pointsSwept, 10u);
    // 1 pessimistic + 2 adversarial seeds per point.
    EXPECT_EQ(report.replays, report.pointsSwept * 3u);
    EXPECT_EQ(report.crashes, report.replays);
}

/**
 * Satellite: adversarial sweep with four RNG seeds over the
 * checksum-async configuration. Random line survival across the
 * in-flight log tail must never produce anything but a committed
 * prefix of the transaction sequence.
 */
TEST(FaultSim, ChecksumAsyncAdversarialSweepFourSeeds)
{
    faultsim::SweepConfig config = baseConfig();
    config.db.nvwal.syncMode = SyncMode::ChecksumAsync;
    config.db.nvwal.userHeap = true;
    config.db.nvwal.diffLogging = true;
    config.warmup = faultsim::Workload::standardTxns(0, 2);
    config.workload = faultsim::Workload::standardTxns(2, 4);
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2, 3, 4},
                            0.5});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_EQ(report.replays, report.pointsSwept * 4u);
    EXPECT_EQ(report.crashes, report.replays);
}

/**
 * A checkpoint round whose write-out spans commits, under
 * ChecksumAsync: its commits flush no frame, so unless a step hardens
 * the log before writing back, a crash leaves the .db file holding
 * pages (a grown root) of a transaction recovery then discards.
 */
TEST(FaultSim, ChecksumAsyncWriteOutNeverOutrunsTheDurableLog)
{
    faultsim::SweepConfig config = baseConfig();
    config.db.nvwal.syncMode = SyncMode::ChecksumAsync;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload.writeOutRound(1000000);
    config.policies.push_back(faultsim::PolicyRun{});  // pessimistic
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1}, 0.5});
    config.stride = 5;

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.crashes, report.replays);
    std::uint64_t step_points = 0;
    for (const auto &[label, cov] : report.phases)
        if (label.rfind("write-out step", 0) == 0)
            step_points += cov.points;
    EXPECT_GT(step_points, 0u);
}

} // namespace
} // namespace nvwal
