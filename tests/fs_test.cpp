/**
 * @file
 * Unit tests for the block device and the EXT4-ordered-mode
 * journaling file system model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fs/journaling_fs.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

class FsTest : public ::testing::Test
{
  protected:
    FsTest()
        : cost(CostModel::nexus5()),
          device(1 << 14, cost.blockSize, clock, cost, stats),
          fs(device, clock, cost, stats, 64)
    {}

    SimClock clock;
    MetricsRegistry stats;
    CostModel cost;
    BlockDevice device;
    JournalingFs fs;
};

TEST_F(FsTest, CreateExistsRemove)
{
    EXPECT_FALSE(fs.exists("a.db"));
    NVWAL_CHECK_OK(fs.create("a.db"));
    EXPECT_TRUE(fs.exists("a.db"));
    EXPECT_FALSE(fs.create("a.db").isOk());
    NVWAL_CHECK_OK(fs.remove("a.db"));
    EXPECT_FALSE(fs.exists("a.db"));
}

TEST_F(FsTest, ReadMissWaitsBehindWriteOut)
{
    // Four .db pages written out queue 4 programs on the device
    // without advancing the clock; a read of a fifth, clean page
    // issued right behind them completes only after all four.
    const std::uint32_t bs = cost.blockSize;
    const ByteBuffer data = testutil::makeValue(5 * bs, 3);
    NVWAL_CHECK_OK(fs.pwrite("a.db", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.fsync("a.db"));
    NVWAL_CHECK_OK(fs.pwrite(
        "a.db", 0, ConstByteSpan(data.data() + bs, 4 * bs)));

    const SimTime begin = clock.now();
    NVWAL_CHECK_OK(fs.startWriteOut("a.db"));
    EXPECT_EQ(clock.now(), begin);
    EXPECT_TRUE(fs.writeOutBusy());
    EXPECT_EQ(stats.get(stats::kFsBlocksWrittenOut), 4u);

    ByteBuffer out(bs);
    NVWAL_CHECK_OK(fs.pread("a.db", 4 * static_cast<std::uint64_t>(bs),
                            ByteSpan(out.data(), bs)));
    EXPECT_EQ(clock.now() - begin,
              4 * cost.blockProgramNs + cost.blockReadNs);
    EXPECT_EQ(stats.get(stats::kBlockdevWaitNs), 4 * cost.blockProgramNs);
    EXPECT_FALSE(fs.writeOutBusy());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 4 * bs));
}

TEST_F(FsTest, FsyncWaitsOnlyForProgramsStillInFlight)
{
    const std::uint32_t bs = cost.blockSize;
    const ByteBuffer data = testutil::makeValue(4 * bs, 5);
    NVWAL_CHECK_OK(fs.pwrite("a.db", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.fsync("a.db"));
    NVWAL_CHECK_OK(fs.pwrite("a.db", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.startWriteOut("a.db"));
    // Half the programs drain while the caller does other work.
    clock.advance(2 * cost.blockProgramNs);
    const SimTime begin = clock.now();
    const std::uint64_t blocks = stats.get(stats::kBlocksWritten);
    NVWAL_CHECK_OK(fs.fsync("a.db"));
    // The two programs left, then the journal (descriptor, inode,
    // commit) and the device flush; no data block is programmed twice.
    EXPECT_EQ(clock.now() - begin,
              2 * cost.blockProgramNs + 3 * cost.blockProgramNs +
                  cost.fsyncBaseNs);
    EXPECT_EQ(stats.get(stats::kBlocksWritten) - blocks, 3u);
}

TEST_F(FsTest, PowerFailSettlesBlocksStillInFlight)
{
    // Blocks whose program completed are on media; the ones still in
    // flight land whole under AllSurvive, never under Pessimistic,
    // and as the RNG draws under Adversarial. The durable inode is
    // unchanged, so the file reads back through the settled media.
    const std::uint32_t bs = cost.blockSize;
    const ByteBuffer old_data = testutil::makeValue(4 * bs, 7);
    const ByteBuffer new_data = testutil::makeValue(4 * bs, 8);
    const auto run = [&](FailurePolicy policy, std::uint64_t seed) {
        SimClock c;
        MetricsRegistry st;
        BlockDevice dev(1 << 10, bs, c, cost, st);
        JournalingFs jfs(dev, c, cost, st, 16);
        NVWAL_CHECK_OK(jfs.pwrite("a.db", 0, testutil::spanOf(old_data)));
        NVWAL_CHECK_OK(jfs.fsync("a.db"));
        NVWAL_CHECK_OK(jfs.pwrite("a.db", 0, testutil::spanOf(new_data)));
        NVWAL_CHECK_OK(jfs.startWriteOut("a.db"));
        c.advance(cost.blockProgramNs);  // block 0 has completed
        Rng rng(seed);
        dev.powerFail(policy, 0.5, rng);
        jfs.crash();
        EXPECT_FALSE(jfs.writeOutBusy());
        std::vector<bool> landed;
        for (std::uint32_t b = 0; b < 4; ++b) {
            ByteBuffer out(bs);
            NVWAL_CHECK_OK(jfs.pread("a.db",
                                     static_cast<std::uint64_t>(b) * bs,
                                     ByteSpan(out.data(), bs)));
            const bool is_new = std::equal(out.begin(), out.end(),
                                           new_data.begin() + b * bs);
            EXPECT_TRUE(is_new || std::equal(out.begin(), out.end(),
                                             old_data.begin() + b * bs));
            landed.push_back(is_new);
        }
        return landed;
    };
    EXPECT_EQ(run(FailurePolicy::Pessimistic, 1),
              (std::vector<bool>{true, false, false, false}));
    EXPECT_EQ(run(FailurePolicy::AllSurvive, 1),
              (std::vector<bool>{true, true, true, true}));
    // The same seed draws the same survivors; some seed draws a mix.
    EXPECT_EQ(run(FailurePolicy::Adversarial, 5),
              run(FailurePolicy::Adversarial, 5));
    bool mixed = false;
    for (std::uint64_t seed = 1; seed < 16 && !mixed; ++seed) {
        const std::vector<bool> l = run(FailurePolicy::Adversarial, seed);
        EXPECT_TRUE(l[0]);
        mixed = std::count(l.begin() + 1, l.end(), true) == 1 ||
                std::count(l.begin() + 1, l.end(), true) == 2;
    }
    EXPECT_TRUE(mixed);
}

TEST_F(FsTest, SnapshotKeepsTheQueueAsRemainingDeviceTime)
{
    // A restored snapshot replays the queue relative to the restoring
    // run's clock: the device is busy for exactly the time it had
    // left at the capture.
    const std::uint32_t bs = cost.blockSize;
    const ByteBuffer data = testutil::makeValue(3 * bs, 9);
    NVWAL_CHECK_OK(fs.pwrite("a.db", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.startWriteOut("a.db"));
    clock.advance(cost.blockProgramNs / 2);
    const BlockDevice::Snapshot snap = device.snapshot();
    EXPECT_EQ(snap.inFlight.size(), 3u);

    clock.advance(10 * cost.blockProgramNs);  // drained meanwhile
    EXPECT_FALSE(device.busy());
    device.restore(snap);
    EXPECT_TRUE(device.busy());
    const SimTime begin = clock.now();
    device.drain();
    EXPECT_EQ(clock.now() - begin,
              3 * cost.blockProgramNs - cost.blockProgramNs / 2);
}

TEST_F(FsTest, StartSyncIsDurableOnlyAtCompletion)
{
    // startSync() queues the rest of the data, the journal transaction
    // and the cache flush, and moves no clock. The durable inode takes
    // the synced size, blocks and truncated blocks only once the clock
    // reaches the flush's completion: a power failure one ns earlier
    // keeps the old inode and its truncated blocks even if every
    // queued block landed, and one at the completion keeps the new.
    const std::uint32_t bs = cost.blockSize;
    const ByteBuffer old_data = testutil::makeValue(8 * bs, 21);
    const ByteBuffer new_data = testutil::makeValue(4 * bs, 22);
    const ByteBuffer other = testutil::makeValue(8 * bs, 23);
    struct Outcome
    {
        std::uint64_t size = 0;
        bool headIsNew = false;
        bool tailKept = false;
    };
    const auto run = [&](SimTime early_ns, FailurePolicy policy,
                         bool via_snapshot) {
        SimClock c;
        MetricsRegistry st;
        BlockDevice dev(1 << 10, bs, c, cost, st);
        JournalingFs jfs(dev, c, cost, st, 16);
        NVWAL_CHECK_OK(jfs.pwrite("a.db", 0, testutil::spanOf(old_data)));
        NVWAL_CHECK_OK(jfs.fsync("a.db"));
        NVWAL_CHECK_OK(jfs.truncate("a.db", 4 * bs));
        NVWAL_CHECK_OK(jfs.pwrite("a.db", 0, testutil::spanOf(new_data)));
        const SimTime begin = c.now();
        SimTime done = 0;
        NVWAL_CHECK_OK(jfs.startSync("a.db", &done));
        EXPECT_EQ(c.now(), begin);
        EXPECT_TRUE(jfs.writeOutBusy());
        // Four data blocks, a five-block journal transaction (the
        // truncate freed blocks), then the flush.
        EXPECT_EQ(done - begin, 9 * cost.blockProgramNs + cost.fsyncBaseNs);
        EXPECT_EQ(st.get(stats::kFsSyncsStarted), 1u);
        EXPECT_EQ(st.get(stats::kFsyncs), 1u);  // a's first fsync alone
        c.advanceTo(done - early_ns);
        if (via_snapshot) {
            // A restore carries the sync as the device time it has
            // left, relative to the restoring run's clock.
            const BlockDevice::Snapshot dev_snap = dev.snapshot();
            const JournalingFs::Snapshot fs_snap = jfs.snapshot();
            c.advance(10 * cost.fsyncBaseNs);
            dev.restore(dev_snap);
            jfs.restore(fs_snap);
            EXPECT_EQ(jfs.writeOutBusy(), early_ns != 0);
        }
        Rng rng(3);
        dev.powerFail(policy, 0.5, rng);
        jfs.crash();
        EXPECT_EQ(st.get(stats::kFsSyncsApplied), early_ns == 0 ? 1u : 0u);
        // A file written now may take only blocks no durable inode owns.
        NVWAL_CHECK_OK(jfs.pwrite("b.db", 0, testutil::spanOf(other)));
        NVWAL_CHECK_OK(jfs.fsync("b.db"));
        Outcome out;
        out.size = jfs.fileSize("a.db");
        ByteBuffer head(4 * bs);
        NVWAL_CHECK_OK(jfs.pread("a.db", 0, ByteSpan(head.data(), 4 * bs)));
        // The data blocks completed long before the flush, so they are
        // on media in place whatever the inode says.
        out.headIsNew = head == new_data;
        if (out.size == old_data.size()) {
            ByteBuffer tail(4 * bs);
            const std::uint64_t tail_off = 4 * static_cast<std::uint64_t>(bs);
            NVWAL_CHECK_OK(jfs.pread("a.db", tail_off,
                                     ByteSpan(tail.data(), 4 * bs)));
            out.tailKept = std::equal(tail.begin(), tail.end(),
                                      old_data.begin() + 4 * bs);
        }
        return out;
    };
    for (const FailurePolicy policy :
         {FailurePolicy::Pessimistic, FailurePolicy::AllSurvive}) {
        for (const bool via_snapshot : {false, true}) {
            const Outcome early = run(1, policy, via_snapshot);
            EXPECT_EQ(early.size, old_data.size());
            EXPECT_TRUE(early.headIsNew);
            EXPECT_TRUE(early.tailKept);
            const Outcome at = run(0, policy, via_snapshot);
            EXPECT_EQ(at.size, new_data.size());
            EXPECT_TRUE(at.headIsNew);
        }
    }

    // Without a crash, the first call past the completion applies the
    // sync, counts its fsync and frees the truncated blocks: the next
    // file takes them.
    NVWAL_CHECK_OK(fs.pwrite("a.db", 0, testutil::spanOf(old_data)));
    NVWAL_CHECK_OK(fs.fsync("a.db"));
    NVWAL_CHECK_OK(fs.truncate("a.db", 4 * bs));
    SimTime done = 0;
    NVWAL_CHECK_OK(fs.startSync("a.db", &done));
    clock.advanceTo(done);
    device.setTracing(true);
    NVWAL_CHECK_OK(fs.pwrite("b.db", 0, testutil::spanOf(other)));
    NVWAL_CHECK_OK(fs.fsync("b.db"));
    EXPECT_EQ(stats.get(stats::kFsSyncsApplied), 1u);
    EXPECT_EQ(stats.get(stats::kFsyncs), 3u);
    std::vector<BlockNo> b_blocks;
    for (const TraceEntry &e : device.trace())
        if (e.tag == IoTag::DbFile)
            b_blocks.push_back(e.block);
    ASSERT_EQ(b_blocks.size(), 8u);
    // a took data blocks 64-71 first; b reuses its freed tail, 68-71.
    EXPECT_EQ(std::count_if(b_blocks.begin(), b_blocks.end(),
                            [](BlockNo b) { return b >= 68 && b < 72; }),
              4);
}

TEST_F(FsTest, WriteReadRoundTrip)
{
    const ByteBuffer data = testutil::makeValue(10000, 1);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    EXPECT_EQ(fs.fileSize("f"), 10000u);
    ByteBuffer out(10000);
    NVWAL_CHECK_OK(fs.pread("f", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, data);
}

TEST_F(FsTest, UnalignedOverwrite)
{
    ByteBuffer base(9000, 0x11);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(base)));
    const ByteBuffer patch = testutil::makeValue(100, 2);
    NVWAL_CHECK_OK(fs.pwrite("f", 4090, testutil::spanOf(patch)));

    ByteBuffer out(9000);
    NVWAL_CHECK_OK(fs.pread("f", 0, ByteSpan(out.data(), out.size())));
    for (std::size_t i = 0; i < 9000; ++i) {
        if (i >= 4090 && i < 4190)
            EXPECT_EQ(out[i], patch[i - 4090]) << i;
        else
            EXPECT_EQ(out[i], 0x11) << i;
    }
}

TEST_F(FsTest, ReadPastEndFails)
{
    ByteBuffer data(100, 0x2);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    ByteBuffer out(200);
    EXPECT_FALSE(fs.pread("f", 0, ByteSpan(out.data(), 200)).isOk());
    EXPECT_FALSE(fs.pread("missing", 0, ByteSpan(out.data(), 1)).isOk());
}

TEST_F(FsTest, UnsyncedDataIsLostOnCrash)
{
    const ByteBuffer data = testutil::makeValue(4096, 3);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    fs.crash();
    EXPECT_FALSE(fs.exists("f"));  // never fsynced: no durable inode
}

TEST_F(FsTest, SyncedDataSurvivesCrash)
{
    const ByteBuffer data = testutil::makeValue(8192, 4);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.fsync("f"));
    // More writes after the sync...
    const ByteBuffer extra = testutil::makeValue(4096, 5);
    NVWAL_CHECK_OK(fs.pwrite("f", 8192, testutil::spanOf(extra)));
    fs.crash();

    EXPECT_TRUE(fs.exists("f"));
    EXPECT_EQ(fs.fileSize("f"), 8192u);  // size as of the last fsync
    ByteBuffer out(8192);
    NVWAL_CHECK_OK(fs.pread("f", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, data);
}

TEST_F(FsTest, AppendingFsyncJournalsAllocation)
{
    // Ordered-mode journal: appending writes journals descriptor +
    // inode + bitmap + group descriptor + commit = 5 blocks.
    const ByteBuffer data = testutil::makeValue(4096, 6);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    const std::uint64_t before = stats.get(stats::kJournalBlocksWritten);
    NVWAL_CHECK_OK(fs.fsync("f"));
    EXPECT_EQ(stats.get(stats::kJournalBlocksWritten) - before, 5u);
}

TEST_F(FsTest, PreallocatedWriteJournalsLess)
{
    // The paper's pre-allocation optimization: writing into already
    // allocated blocks only journals the inode update (3 blocks).
    NVWAL_CHECK_OK(fs.create("f"));
    NVWAL_CHECK_OK(fs.fallocate("f", 16 * 4096));
    NVWAL_CHECK_OK(fs.fsync("f"));  // absorb the allocation journal

    const ByteBuffer data = testutil::makeValue(4096, 7);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    const std::uint64_t before = stats.get(stats::kJournalBlocksWritten);
    NVWAL_CHECK_OK(fs.fsync("f"));
    EXPECT_EQ(stats.get(stats::kJournalBlocksWritten) - before, 3u);
}

TEST_F(FsTest, FsyncChargesBarrierCost)
{
    ByteBuffer data(4096, 0xEE);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    const SimTime before = clock.now();
    NVWAL_CHECK_OK(fs.fsync("f"));
    // 1 data block + 5 journal blocks + barrier.
    EXPECT_GE(clock.now() - before,
              6 * cost.blockProgramNs + cost.fsyncBaseNs);
    EXPECT_EQ(stats.get(stats::kFsyncs), 1u);
}

TEST_F(FsTest, TruncateShrinksAndFreesBlocks)
{
    const ByteBuffer data = testutil::makeValue(16384, 8);
    NVWAL_CHECK_OK(fs.pwrite("f", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.fsync("f"));
    NVWAL_CHECK_OK(fs.truncate("f", 4096));
    EXPECT_EQ(fs.fileSize("f"), 4096u);
    EXPECT_EQ(fs.allocatedSize("f"), 4096u);
    // Freed blocks get reused by the next allocation.
    const ByteBuffer more = testutil::makeValue(8192, 9);
    NVWAL_CHECK_OK(fs.pwrite("g", 0, testutil::spanOf(more)));
    ByteBuffer out(8192);
    NVWAL_CHECK_OK(fs.pread("g", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, more);
}

TEST_F(FsTest, TruncateGrowReadsAsZeros)
{
    const std::uint32_t bs = cost.blockSize;
    NVWAL_CHECK_OK(fs.create("f"));
    NVWAL_CHECK_OK(fs.truncate("f", 3 * bs));
    EXPECT_EQ(fs.fileSize("f"), 3u * bs);
    ByteBuffer out(bs, 0xAB);
    NVWAL_CHECK_OK(fs.pread("f", bs, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, ByteBuffer(bs, 0));

    // Bytes a shrink cut off do not come back when the file grows
    // again, in the cache or after a crash.
    const ByteBuffer data = testutil::makeValue(bs, 3);
    NVWAL_CHECK_OK(fs.pwrite("g", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.fsync("g"));
    NVWAL_CHECK_OK(fs.truncate("g", 100));
    NVWAL_CHECK_OK(fs.truncate("g", 2 * bs));
    ByteBuffer expected(2 * bs, 0);
    std::memcpy(expected.data(), data.data(), 100);
    ByteBuffer grown(2 * bs);
    NVWAL_CHECK_OK(fs.pread("g", 0, ByteSpan(grown.data(), grown.size())));
    EXPECT_EQ(grown, expected);
    NVWAL_CHECK_OK(fs.fsync("g"));
    fs.crash();
    NVWAL_CHECK_OK(fs.pread("g", 0, ByteSpan(grown.data(), grown.size())));
    EXPECT_EQ(grown, expected);
}

TEST_F(FsTest, WritePastEndNeverExposesADeletedFile)
{
    // A deleted file's blocks go back to the allocator with its bytes
    // still on the device. A new file that takes them and writes 10
    // bytes one block and 100 bytes in must read zeros around them,
    // and the write must not read the device.
    const std::uint32_t bs = cost.blockSize;
    NVWAL_CHECK_OK(
        fs.pwrite("old", 0, testutil::spanOf(ByteBuffer(4 * bs, 0x5A))));
    NVWAL_CHECK_OK(fs.fsync("old"));
    NVWAL_CHECK_OK(fs.remove("old"));

    const ByteBuffer data = testutil::makeValue(10, 4);
    const std::uint64_t reads = stats.get(stats::kBlocksRead);
    NVWAL_CHECK_OK(fs.pwrite("new", bs + 100, testutil::spanOf(data)));
    EXPECT_EQ(stats.get(stats::kBlocksRead), reads);

    ByteBuffer expected(bs + 110, 0);
    std::memcpy(expected.data() + bs + 100, data.data(), data.size());
    ByteBuffer out(bs + 110);
    NVWAL_CHECK_OK(fs.pread("new", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, expected);
    NVWAL_CHECK_OK(fs.fsync("new"));
    fs.crash();
    NVWAL_CHECK_OK(fs.pread("new", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, expected);
}

TEST_F(FsTest, WriteTraceTagsStreams)
{
    device.setTracing(true);
    const ByteBuffer data = testutil::makeValue(4096, 10);
    NVWAL_CHECK_OK(fs.pwrite("app.db", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.fsync("app.db"));
    NVWAL_CHECK_OK(fs.pwrite("app.db-wal", 0, testutil::spanOf(data)));
    NVWAL_CHECK_OK(fs.fsync("app.db-wal"));

    bool saw_db = false;
    bool saw_wal = false;
    bool saw_journal = false;
    for (const TraceEntry &e : device.trace()) {
        saw_db = saw_db || e.tag == IoTag::DbFile;
        saw_wal = saw_wal || e.tag == IoTag::WalFile;
        saw_journal = saw_journal || e.tag == IoTag::Journal;
    }
    EXPECT_TRUE(saw_db);
    EXPECT_TRUE(saw_wal);
    EXPECT_TRUE(saw_journal);
}

TEST_F(FsTest, AllocatedSizeTracksFallocate)
{
    NVWAL_CHECK_OK(fs.create("f"));
    EXPECT_EQ(fs.allocatedSize("f"), 0u);
    NVWAL_CHECK_OK(fs.fallocate("f", 10000));
    EXPECT_EQ(fs.allocatedSize("f"), 3u * 4096u);
    EXPECT_EQ(fs.fileSize("f"), 0u);  // fallocate does not change size
}

TEST_F(FsTest, CrashReturnsBlocksAllocatedSinceFsync)
{
    // A small device: 64 journal blocks + 256 data blocks. Each pass
    // extends a file by 16 blocks that never reach an fsync and then
    // loses power; the blocks must come back, or the device fills up
    // long before the last pass.
    BlockDevice small(64 + 256, cost.blockSize, clock, cost, stats);
    JournalingFs sfs(small, clock, cost, stats, 64);
    const ByteBuffer durable = testutil::makeValue(4 * 4096, 11);
    NVWAL_CHECK_OK(sfs.pwrite("keep", 0, testutil::spanOf(durable)));
    NVWAL_CHECK_OK(sfs.fsync("keep"));
    const ByteBuffer chunk = testutil::makeValue(16 * 4096, 12);
    for (int pass = 0; pass < 100; ++pass) {
        NVWAL_CHECK_OK(sfs.pwrite("keep", durable.size(),
                                  testutil::spanOf(chunk)));
        NVWAL_CHECK_OK(sfs.pwrite("scratch", 0, testutil::spanOf(chunk)));
        sfs.crash();
        ASSERT_EQ(sfs.fileSize("keep"), durable.size());
        ASSERT_FALSE(sfs.exists("scratch"));
    }
    ByteBuffer out(durable.size());
    NVWAL_CHECK_OK(sfs.pread("keep", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, durable);
    // Every block but keep's four is free again: one more file can
    // take all of them.
    const ByteBuffer rest = testutil::makeValue(252 * 4096, 16);
    NVWAL_CHECK_OK(sfs.pwrite("rest", 0, testutil::spanOf(rest)));
    NVWAL_CHECK_OK(sfs.fsync("rest"));
}

TEST_F(FsTest, UnsyncedTruncateKeepsDurableBlocksOwned)
{
    // The truncate below is not durable until "a" is fsynced, so the
    // blocks it gives up still hold a's durable contents: no other
    // file may get them before that fsync.
    const ByteBuffer a = testutil::makeValue(8 * 4096, 13);
    NVWAL_CHECK_OK(fs.pwrite("a", 0, testutil::spanOf(a)));
    NVWAL_CHECK_OK(fs.fsync("a"));
    NVWAL_CHECK_OK(fs.truncate("a", 0));
    const ByteBuffer b = testutil::makeValue(8 * 4096, 14);
    NVWAL_CHECK_OK(fs.pwrite("b", 0, testutil::spanOf(b)));
    NVWAL_CHECK_OK(fs.fsync("b"));
    fs.crash();

    ASSERT_EQ(fs.fileSize("a"), a.size());
    ByteBuffer out(a.size());
    NVWAL_CHECK_OK(fs.pread("a", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, a);
    NVWAL_CHECK_OK(fs.pread("b", 0, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, b);
}

/**
 * Seeded model check of the flat page cache (DESIGN.md §20): random
 * pwrite()s (whole-block, partial and unaligned), pread()s,
 * shrinking truncates, fsyncs, crashes and snapshot/restore pairs,
 * with every file compared against a model of volatile and durable
 * contents after each op. Writes never start past the end of a file,
 * so no hole is ever read.
 */
TEST(FsDirtyStore, RandomOpsMatchMapModel)
{
    SimClock clock;
    MetricsRegistry stats;
    const CostModel cost = CostModel::nexus5();
    const std::uint32_t bs = cost.blockSize;
    BlockDevice device(64 + 2048, bs, clock, cost, stats);
    JournalingFs fs(device, clock, cost, stats, 64);

    using Files = std::map<std::string, ByteBuffer>;
    struct Model
    {
        Files live;     //!< what pread() must return
        Files durable;  //!< what survives crash()
    };
    Model model;
    std::optional<Model> saved_model;
    std::optional<JournalingFs::Snapshot> saved_fs;
    std::optional<BlockDevice::Snapshot> saved_dev;
    const std::vector<std::string> names = {"a.db", "b.db-wal", "c"};

    const auto check = [&](int step) {
        for (const std::string &name : names) {
            const auto it = model.live.find(name);
            ASSERT_EQ(fs.exists(name), it != model.live.end())
                << name << " at step " << step;
            if (it == model.live.end())
                continue;
            ASSERT_EQ(fs.fileSize(name), it->second.size())
                << name << " at step " << step;
            ByteBuffer out(it->second.size());
            NVWAL_CHECK_OK(
                fs.pread(name, 0, ByteSpan(out.data(), out.size())));
            ASSERT_EQ(out, it->second) << name << " at step " << step;
        }
    };

    Rng rng(2024);
    for (int step = 0; step < 4000; ++step) {
        const std::string &name = names[rng.nextBelow(names.size())];
        const std::uint64_t op = rng.nextBelow(100);
        if (op >= 50 && op < 85 && model.live.count(name) == 0)
            continue;  // reads, truncates and fsyncs need the file
        if (op >= 85) {
            if (op < 92) {
                fs.crash();
                model.live = model.durable;
            } else if (op < 96) {
                saved_fs = fs.snapshot();
                saved_dev = device.snapshot();
                saved_model = model;
            } else if (saved_fs) {
                fs.restore(*saved_fs);
                device.restore(*saved_dev);
                model = *saved_model;
            }
            check(step);
            if (::testing::Test::HasFatalFailure())
                return;
            continue;
        }
        ByteBuffer &file = model.live[name];
        if (op < 50) {
            // pwrite: whole aligned blocks, or any unaligned span.
            std::uint64_t off;
            std::uint64_t len;
            if (rng.nextBelow(2) == 0) {
                off = (file.size() / bs == 0
                           ? 0
                           : rng.nextBelow(file.size() / bs + 1)) *
                      bs;
                off = std::min<std::uint64_t>(off, file.size() / bs * bs);
                len = (1 + rng.nextBelow(3)) * bs;
            } else {
                off = rng.nextBelow(file.size() + 1);
                len = 1 + rng.nextBelow(3 * bs);
            }
            const ByteBuffer data = testutil::makeValue(len, rng.next());
            NVWAL_CHECK_OK(fs.pwrite(name, off, testutil::spanOf(data)));
            if (file.size() < off + len)
                file.resize(off + len);
            std::memcpy(file.data() + off, data.data(), len);
        } else if (op < 60) {
            // A random range read (the full-file check follows).
            const std::uint64_t off = rng.nextBelow(file.size() + 1);
            const std::uint64_t len = rng.nextBelow(file.size() - off + 1);
            ByteBuffer out(len);
            NVWAL_CHECK_OK(fs.pread(name, off, ByteSpan(out.data(), len)));
            ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                   file.begin() + off))
                << "range read at step " << step;
        } else if (op < 70) {
            // Shrink, or grow by up to two blocks of zeros.
            const std::uint64_t size =
                rng.nextBelow(file.size() + 2 * bs + 1);
            NVWAL_CHECK_OK(fs.truncate(name, size));
            file.resize(size);
        } else {
            NVWAL_CHECK_OK(fs.fsync(name));
            model.durable[name] = file;
        }
        check(step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace nvwal
