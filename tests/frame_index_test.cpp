/**
 * @file
 * Unit tests for the per-page radix frame index (DESIGN.md §14):
 * floor lookup at arbitrary horizons, the O(1) full-frame anchor,
 * height growth as sequences climb, pruning (leaves, interior
 * nodes, the tail shortcut and the lastFull reset), node accounting
 * through the bound gauge, and ascending range iteration.
 */

#include <gtest/gtest.h>

#include <vector>

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
    std::uint64_t gauge = 0;
    FrameIndex index;
    index.bindNodeGauge(&gauge);
    for (CommitSeq s = 1; s <= 64; ++s)
        index.insert(s, slot(s), false);
    EXPECT_EQ(gauge, index.nodeCount());
    EXPECT_GT(gauge, 0u);

    index.pruneThrough(32);
    EXPECT_EQ(gauge, index.nodeCount());

    index.clear();
    EXPECT_EQ(gauge, 0u);
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

} // namespace
} // namespace nvwal
