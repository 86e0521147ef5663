/**
 * @file
 * Unit tests for the per-page radix frame index (DESIGN.md §14):
 * floor lookup at arbitrary horizons, the O(1) full-frame anchor,
 * height growth as sequences climb, pruning (leaves, interior
 * nodes, the tail shortcut and the lastFull reset), node accounting
 * through the node pool (checked against a std::map model, DESIGN.md
 * §20), and ascending range iteration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
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

/** An index bound to @p pool, as NvwalLog binds every page's. */
FrameIndex
boundTo(FrameIndex::Pool &pool)
{
    FrameIndex index;
    index.bindPool(&pool);
    return index;
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
    EXPECT_TRUE(index.empty());
    std::uint64_t steps = 0;
    EXPECT_EQ(index.findVisible(1, &steps), nullptr);
    EXPECT_EQ(index.findVisible(kNoPin, &steps), nullptr);
    EXPECT_EQ(index.newestSeq(), 0u);
    EXPECT_EQ(index.frameCount(), 0u);
}

TEST(FrameIndex, FindVisibleIsFloorSearch)
{
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex regrown = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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
    FrameIndex::Pool pool;
    FrameIndex index = boundTo(pool);
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

/**
 * The reference the pooled indexes are checked against: one page's
 * frames in a std::map keyed by commit sequence, with the anchor,
 * prune horizon and radix height kept by their documented rules.
 */
struct IndexModel
{
    struct Leaf
    {
        std::vector<FrameIndex::Slot> slots;
        int lastFull = -1;
        CommitSeq anchorSeq = 0;
    };
    std::map<CommitSeq, Leaf> leaves;
    CommitSeq lastFullSeq = 0;
    CommitSeq prunedThrough = 0;
    std::uint32_t height = 0;   //!< radix levels; 0 while empty

    void
    insert(CommitSeq seq, const FrameIndex::Slot &slot, bool full)
    {
        // The tree grows until 16^height covers every sequence
        // inserted since it was last empty.
        std::uint32_t needed = 1;
        while (needed < FrameIndex::kMaxHeight &&
               (seq >> (FrameIndex::kBitsPerLevel * needed)) != 0)
            ++needed;
        height = std::max(height, needed);
        Leaf &leaf = leaves[seq];
        leaf.slots.push_back(slot);
        if (full) {
            leaf.lastFull = static_cast<int>(leaf.slots.size()) - 1;
            lastFullSeq = seq;
        }
        leaf.anchorSeq = lastFullSeq;
    }

    std::uint64_t
    pruneThrough(CommitSeq through)
    {
        prunedThrough = std::max(prunedThrough, through);
        if (lastFullSeq <= through)
            lastFullSeq = 0;
        std::uint64_t removed = 0;
        while (!leaves.empty() && leaves.begin()->first <= through) {
            removed += leaves.begin()->second.slots.size();
            leaves.erase(leaves.begin());
        }
        if (leaves.empty())
            height = 0;
        return removed;
    }

    void clear() { *this = IndexModel(); }

    /** Leaves plus one interior node per distinct prefix per level. */
    std::uint64_t
    nodeCount() const
    {
        std::uint64_t nodes = leaves.size();
        for (std::uint32_t level = 1; level <= height; ++level) {
            const std::uint32_t shift = FrameIndex::kBitsPerLevel * level;
            std::set<CommitSeq> prefixes;
            for (const auto &entry : leaves)
                prefixes.insert(shift < 64 ? entry.first >> shift : 0);
            nodes += prefixes.size();
        }
        return nodes;
    }
};

/** Append what a reader sees of one visible leaf (or its absence). */
void
observeLeaf(CommitSeq seq, CommitSeq anchor_seq, int last_full,
            const std::vector<FrameIndex::Slot> *slots,
            std::vector<std::uint64_t> *seen)
{
    if (slots == nullptr) {
        seen->push_back(0);
        return;
    }
    seen->insert(seen->end(),
                 {seq, anchor_seq, static_cast<std::uint64_t>(last_full + 1),
                  slots->size()});
    for (const FrameIndex::Slot &s : *slots)
        seen->push_back(s.off);
}

/**
 * Everything a reader can observe of @p index, in one value: counts,
 * horizons, the leaves visible at @p horizons and every sequence.
 */
std::vector<std::uint64_t>
observe(const FrameIndex &index, const std::vector<CommitSeq> &horizons)
{
    std::vector<std::uint64_t> seen = {
        index.frameCount(), index.leafCount(), index.nodeCount(),
        index.newestSeq(), index.prunedThrough()};
    for (const CommitSeq horizon : horizons) {
        std::uint64_t steps = 0;
        const FrameIndex::Leaf *leaf = index.findVisible(horizon, &steps);
        if (leaf == nullptr)
            observeLeaf(0, 0, -1, nullptr, &seen);
        else
            observeLeaf(leaf->seq, leaf->anchorSeq, leaf->lastFull,
                        &leaf->slots, &seen);
    }
    for (const CommitSeq seq : seqsInRange(index, 0, kNoPin))
        seen.push_back(seq);
    return seen;
}

/** The same observation of @p model. */
std::vector<std::uint64_t>
observe(const IndexModel &model, const std::vector<CommitSeq> &horizons)
{
    std::uint64_t frames = 0;
    for (const auto &entry : model.leaves)
        frames += entry.second.slots.size();
    const CommitSeq newest =
        model.leaves.empty() ? 0 : model.leaves.rbegin()->first;
    std::vector<std::uint64_t> seen = {frames, model.leaves.size(),
                                       model.nodeCount(), newest,
                                       model.prunedThrough};
    for (const CommitSeq horizon : horizons) {
        auto it = model.leaves.upper_bound(horizon);
        if (it == model.leaves.begin()) {
            observeLeaf(0, 0, -1, nullptr, &seen);
            continue;
        }
        --it;
        observeLeaf(it->first, it->second.anchorSeq, it->second.lastFull,
                    &it->second.slots, &seen);
    }
    for (const auto &entry : model.leaves)
        seen.push_back(entry.first);
    return seen;
}

/**
 * Seeded model check of the node pool (DESIGN.md §20): indexes
 * sharing one pool must match a std::map model under inserts,
 * prunes, clears and truncations (forget + releaseAll), and the pool
 * must count live nodes only, never pooled ones.
 */
TEST(FrameIndex, PooledIndexMatchesMapModel)
{
    constexpr int kPages = 4;
    FrameIndex::Pool pool;
    std::vector<FrameIndex> pooled(kPages);
    std::vector<IndexModel> model(kPages);
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
                    model[p].insert(seq, slot, full);
                }
            }
        } else if (op < 90) {
            const CommitSeq through = rng.nextBelow(seq + 1);
            ASSERT_EQ(pooled[page].pruneThrough(through),
                      model[page].pruneThrough(through));
        } else if (op < 97) {
            // Full-page supersede: one index empties while the rest
            // keep their nodes. Sequences stay monotonic per index.
            pooled[page].clear();
            model[page].clear();
        } else {
            // Truncation: the pool takes every node back at once.
            for (int p = 0; p < kPages; ++p) {
                pooled[p].forget();
                model[p].clear();
            }
            pool.releaseAll();
        }

        std::uint64_t live = 0;
        std::vector<CommitSeq> horizons;
        for (int probe = 0; probe < 4; ++probe)
            horizons.push_back(rng.nextBelow(seq + 2));
        for (int p = 0; p < kPages; ++p) {
            ASSERT_EQ(observe(pooled[p], horizons),
                      observe(model[p], horizons))
                << "page " << p << " at step " << step;
            live += pooled[p].nodeCount();
        }
        ASSERT_EQ(pool.liveCount(), live) << "step " << step;
    }
}

} // namespace
} // namespace nvwal
