/**
 * @file
 * Unit tests for the per-page radix frame index (DESIGN.md §14):
 * floor lookup at arbitrary horizons, the O(1) full-frame anchor,
 * height growth as sequences climb, pruning (leaves, interior
 * nodes, the tail shortcut and the lastFull reset), node accounting
 * through the node pool (checked against an unpooled twin, DESIGN.md
 * §20), and ascending range iteration.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/frame_index.hpp"

namespace nvwal
{
namespace
{

FrameIndex::Slot
slot(NvOffset off)
{
    return FrameIndex::Slot{off, 0, 64};
}

/** Collect the sequences forRange visits. */
std::vector<CommitSeq>
seqsInRange(const FrameIndex &index, CommitSeq lo, CommitSeq hi)
{
    std::vector<CommitSeq> seqs;
    index.forRange(lo, hi,
                   [&](const FrameIndex::Leaf &leaf) {
                       seqs.push_back(leaf.seq);
                   });
    return seqs;
}

TEST(FrameIndex, EmptyIndexFindsNothing)
{
    FrameIndex index;
    EXPECT_TRUE(index.empty());
    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(1, &steps), nullptr);
    EXPECT_EQ(index.findVisible(kNoPin, &steps), nullptr);
    EXPECT_EQ(index.newestSeq(), 0u);
    EXPECT_EQ(index.frameCount(), 0u);
}

TEST(FrameIndex, FindVisibleIsFloorSearch)
{
    FrameIndex index;
    index.insert(2, slot(100), false);
    index.insert(5, slot(200), false);
    index.insert(9, slot(300), false);

    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(1, &steps), nullptr);
    ASSERT_NE(index.findVisible(2, &steps), nullptr);
    EXPECT_EQ(index.findVisible(2, &steps)->seq, 2u);
    EXPECT_EQ(index.findVisible(4, &steps)->seq, 2u);
    EXPECT_EQ(index.findVisible(5, &steps)->seq, 5u);
    EXPECT_EQ(index.findVisible(8, &steps)->seq, 5u);
    EXPECT_EQ(index.findVisible(9, &steps)->seq, 9u);
    // Horizons past the tail take the O(1) fast path.
    EXPECT_EQ(index.findVisible(1000, &steps)->seq, 9u);
    EXPECT_EQ(index.findVisible(kNoPin, &steps)->seq, 9u);
    EXPECT_GT(steps, 0u);
}

TEST(FrameIndex, MultipleSlotsShareOneLeafPerSeq)
{
    FrameIndex index;
    index.insert(3, slot(100), false);
    index.insert(3, slot(200), false);
    index.insert(3, slot(300), false);
    EXPECT_EQ(index.frameCount(), 3u);
    EXPECT_EQ(index.leafCount(), 1u);

    std::uint64_t steps = 0;
    const FrameIndex::Leaf *leaf = index.findVisible(3, &steps);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->slots.size(), 3u);
    EXPECT_EQ(leaf->slots[1].off, 200u);
}

TEST(FrameIndex, AnchorTracksNewestFullFrame)
{
    FrameIndex index;
    index.insert(1, slot(10), true);    // full
    index.insert(2, slot(20), false);
    index.insert(3, slot(30), false);
    index.insert(4, slot(40), true);    // full again
    index.insert(5, slot(50), false);

    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(3, &steps)->anchorSeq, 1u);
    EXPECT_EQ(index.findVisible(5, &steps)->anchorSeq, 4u);
    const FrameIndex::Leaf *anchor = index.findVisible(4, &steps);
    EXPECT_EQ(anchor->anchorSeq, 4u);
    EXPECT_EQ(anchor->lastFull, 0);
}

TEST(FrameIndex, AnchorIndexPointsAtNewestFullSlotInLeaf)
{
    FrameIndex index;
    index.insert(7, slot(10), false);
    index.insert(7, slot(20), true);
    index.insert(7, slot(30), false);
    std::uint64_t steps = 0;
    const FrameIndex::Leaf *leaf = index.findVisible(7, &steps);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->lastFull, 1);
    EXPECT_EQ(leaf->anchorSeq, 7u);
}

TEST(FrameIndex, HeightGrowsWithSequenceRange)
{
    FrameIndex index;
    index.insert(1, slot(10), false);
    const std::uint64_t nodes_small = index.nodeCount();
    // Sequence far outside the initial coverage forces root growth;
    // the old subtree stays reachable (coverage starts at 0).
    index.insert(100000, slot(20), false);
    EXPECT_GT(index.nodeCount(), nodes_small);

    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(1, &steps)->seq, 1u);
    EXPECT_EQ(index.findVisible(99999, &steps)->seq, 1u);
    EXPECT_EQ(index.findVisible(100000, &steps)->seq, 100000u);
    EXPECT_EQ(seqsInRange(index, 0, kNoPin),
              (std::vector<CommitSeq>{1, 100000}));
}

TEST(FrameIndex, FirstSeqPastOneLevelBuildsNoEmptyInteriorNode)
{
    // An empty index whose first sequence needs two levels used to
    // grow its empty one-level root upward, stranding an empty
    // interior node at child 0; a floor lookup below the first leaf
    // then asserted inside maxIn ("interior radix node with no
    // children").
    FrameIndex index;
    index.insert(40, slot(400), false);
    // Root (two levels) + one level-1 node + the leaf.
    EXPECT_EQ(index.nodeCount(), 3u);
    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(5, &steps), nullptr);
    EXPECT_EQ(index.findVisible(20, &steps), nullptr);
    EXPECT_EQ(index.findVisible(39, &steps), nullptr);
    ASSERT_NE(index.findVisible(40, &steps), nullptr);
    EXPECT_EQ(index.findVisible(40, &steps)->seq, 40u);

    // The same after a prune empties the index and it regrows.
    FrameIndex regrown;
    for (CommitSeq s = 1; s <= 10; ++s)
        regrown.insert(s, slot(s * 10), false);
    regrown.pruneThrough(10);
    ASSERT_TRUE(regrown.empty());
    regrown.insert(300, slot(3000), false);
    EXPECT_EQ(regrown.nodeCount(), 4u);
    EXPECT_EQ(regrown.findVisible(5, &steps), nullptr);
    EXPECT_EQ(regrown.findVisible(20, &steps), nullptr);
    EXPECT_EQ(regrown.findVisible(299, &steps), nullptr);
    EXPECT_EQ(regrown.findVisible(300, &steps)->seq, 300u);
}

TEST(FrameIndex, ForRangeVisitsAscendingWithinBounds)
{
    FrameIndex index;
    for (CommitSeq s : {2u, 17u, 18u, 40u, 300u})
        index.insert(s, slot(s * 10), false);
    EXPECT_EQ(seqsInRange(index, 0, kNoPin),
              (std::vector<CommitSeq>{2, 17, 18, 40, 300}));
    EXPECT_EQ(seqsInRange(index, 17, 40),
              (std::vector<CommitSeq>{17, 18, 40}));
    EXPECT_EQ(seqsInRange(index, 18, 18),
              (std::vector<CommitSeq>{18}));
    EXPECT_TRUE(seqsInRange(index, 41, 299).empty());
}

TEST(FrameIndex, PruneThroughDropsLeavesAndResetsTail)
{
    FrameIndex index;
    for (CommitSeq s = 1; s <= 20; ++s)
        index.insert(s, slot(s * 10), false);
    EXPECT_EQ(index.frameCount(), 20u);

    EXPECT_EQ(index.pruneThrough(15), 15u);
    EXPECT_EQ(index.frameCount(), 5u);
    EXPECT_EQ(index.prunedThrough(), 15u);
    EXPECT_EQ(seqsInRange(index, 0, kNoPin),
              (std::vector<CommitSeq>{16, 17, 18, 19, 20}));
    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(15, &steps), nullptr);
    EXPECT_EQ(index.findVisible(16, &steps)->seq, 16u);
    EXPECT_EQ(index.newestSeq(), 20u);

    // Pruning everything must also drop the tail shortcut (it would
    // otherwise dangle into freed leaves) and then accept appends
    // above the pruned horizon again.
    EXPECT_EQ(index.pruneThrough(20), 5u);
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.newestSeq(), 0u);
    EXPECT_EQ(index.findVisible(kNoPin, &steps), nullptr);
    index.insert(21, slot(210), false);
    EXPECT_EQ(index.findVisible(kNoPin, &steps)->seq, 21u);
}

TEST(FrameIndex, PruneResetsStaleFullFrameAnchor)
{
    FrameIndex index;
    index.insert(1, slot(10), true);
    index.insert(2, slot(20), false);
    index.pruneThrough(1);
    // The newest full frame is gone; later inserts must not anchor
    // at the pruned sequence 1.
    index.insert(3, slot(30), false);
    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(3, &steps)->anchorSeq, 0u);
    // Surviving leaf 2 still carries its frozen (now stale) anchor;
    // readers cross-check it against prunedThrough().
    EXPECT_EQ(index.findVisible(2, &steps)->anchorSeq, 1u);
    EXPECT_GE(index.prunedThrough(), 1u);
}

TEST(FrameIndex, NodeGaugeFollowsAllocationAndFree)
{
    // The pool's live count is what the log publishes as the
    // wal.frame_index_nodes gauge.
    FrameIndex::Pool pool;
    FrameIndex index;
    index.bindPool(&pool);
    for (CommitSeq s = 1; s <= 64; ++s)
        index.insert(s, slot(s), false);
    EXPECT_EQ(pool.liveCount(), index.nodeCount());
    EXPECT_GT(pool.liveCount(), 0u);

    index.pruneThrough(32);
    EXPECT_EQ(pool.liveCount(), index.nodeCount());

    index.clear();
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(index.nodeCount(), 0u);
}

TEST(FrameIndex, ClearResetsEverythingForReuse)
{
    FrameIndex index;
    index.insert(5, slot(50), true);
    index.pruneThrough(3);
    index.clear();
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.prunedThrough(), 0u);
    // After clear the index accepts sequences below the old pruned
    // horizon (full-page supersede reuses the index this way).
    index.insert(1, slot(10), false);
    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(1, &steps)->seq, 1u);
    EXPECT_EQ(index.findVisible(1, &steps)->anchorSeq, 0u);
}

TEST(FrameIndex, DeepChainStaysLogarithmic)
{
    FrameIndex index;
    for (CommitSeq s = 1; s <= 10000; ++s)
        index.insert(s, slot(s), s == 1);

    // A floor search near the bottom of a 10k-deep chain touches at
    // most the tree height (+1 leaf), never O(chain).
    std::uint64_t steps = 0;
    const FrameIndex::Leaf *leaf = index.findVisible(1, &steps);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->seq, 1u);
    EXPECT_LE(steps, FrameIndex::kMaxHeight + 1);
}

/** Everything a reader can observe of @p index, in one value. */
std::vector<std::uint64_t>
observe(const FrameIndex &index, Rng &rng)
{
    std::vector<std::uint64_t> seen = {
        index.frameCount(), index.leafCount(), index.nodeCount(),
        index.newestSeq(), index.prunedThrough()};
    const CommitSeq newest = index.newestSeq();
    for (int probe = 0; probe < 4; ++probe) {
        const CommitSeq horizon = rng.nextBelow(newest + 2);
        std::uint64_t steps = 0;
        const FrameIndex::Leaf *leaf = index.findVisible(horizon, &steps);
        seen.push_back(steps);
        if (leaf == nullptr) {
            seen.push_back(0);
            continue;
        }
        seen.insert(seen.end(),
                    {leaf->seq, leaf->anchorSeq,
                     static_cast<std::uint64_t>(leaf->lastFull + 1),
                     leaf->slots.size()});
        for (const FrameIndex::Slot &s : leaf->slots)
            seen.push_back(s.off);
    }
    for (const CommitSeq seq : seqsInRange(index, 0, newest))
        seen.push_back(seq);
    return seen;
}

/**
 * Seeded model check of the node pool (DESIGN.md §20): pooled indexes
 * sharing one pool must behave exactly like unpooled twins under
 * inserts, prunes, clears and truncations (forget + releaseAll on the
 * pooled side, clear on the twin), and the pool must count live nodes
 * only, never pooled ones.
 */
TEST(FrameIndex, PooledIndexMatchesUnpooledTwin)
{
    constexpr int kPages = 4;
    FrameIndex::Pool pool;
    std::vector<FrameIndex> pooled(kPages);
    std::vector<FrameIndex> plain(kPages);
    for (FrameIndex &index : pooled)
        index.bindPool(&pool);

    Rng rng(99);
    CommitSeq seq = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::size_t page = rng.nextBelow(kPages);
        const std::uint64_t op = rng.nextBelow(100);
        if (op < 70) {
            // One commit touching 1-3 pages with 1-3 frames each.
            ++seq;
            for (std::size_t p = 0; p < kPages; ++p) {
                if (p != page && rng.nextBelow(3) != 0)
                    continue;
                const std::uint64_t frames = 1 + rng.nextBelow(3);
                for (std::uint64_t f = 0; f < frames; ++f) {
                    const bool full = rng.nextBelow(10) == 0;
                    const FrameIndex::Slot slot{rng.next(), 0, 64};
                    pooled[p].insert(seq, slot, full);
                    plain[p].insert(seq, slot, full);
                }
            }
        } else if (op < 90) {
            const CommitSeq through = rng.nextBelow(seq + 1);
            ASSERT_EQ(pooled[page].pruneThrough(through),
                      plain[page].pruneThrough(through));
        } else if (op < 97) {
            // Full-page supersede: one index empties while the rest
            // keep their nodes. Sequences stay monotonic per index.
            pooled[page].clear();
            plain[page].clear();
        } else {
            // Truncation: the pool takes every node back at once.
            for (int p = 0; p < kPages; ++p) {
                pooled[p].forget();
                plain[p].clear();
            }
            pool.releaseAll();
        }

        std::uint64_t live = 0;
        for (int p = 0; p < kPages; ++p) {
            Rng probe_a(step);
            Rng probe_b(step);
            ASSERT_EQ(observe(pooled[p], probe_a), observe(plain[p], probe_b))
                << "page " << p << " at step " << step;
            live += pooled[p].nodeCount();
        }
        ASSERT_EQ(pool.liveCount(), live) << "step " << step;
    }
}

} // namespace
} // namespace nvwal
