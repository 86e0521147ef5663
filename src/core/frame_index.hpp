/**
 * @file
 * Per-page radix-tree index over committed WAL frames, keyed by
 * commit sequence (DESIGN.md §14).
 *
 * The read path's problem: under checkpoint lag a page accumulates an
 * unbounded frame chain, and the old per-page vector forced every
 * cold-miss materialization to scan it backward twice (horizon
 * boundary, then latest-full-frame shortcut) — O(frames committed
 * past the reader's horizon). This index stores one leaf per commit
 * sequence that touched the page (a multi-range transaction's frames
 * share the leaf), in a fanout-16 radix tree over the sequence space,
 * so:
 *
 *   - findVisible(horizon) — the newest leaf at or below a snapshot
 *     horizon — is an O(log16 seq-range) floor descent, and
 *   - every leaf carries anchorSeq, the newest sequence <= its own
 *     that contains a full-page frame, maintained O(1) at insert
 *     time; replay starts there instead of scanning for it.
 *
 * The O(1) anchor maintenance leans on an engine-wide invariant:
 * frames are always inserted in nondecreasing sequence order (live
 * commits take ++commitSeq under the writer lock, and recovery
 * replays the log in order),
 * so once a newer leaf exists, an older leaf is immutable and its
 * frozen anchorSeq stays correct forever. insert() asserts the
 * invariant.
 *
 * pruneThrough(seq) reclaims every leaf at or below a checkpointed
 * sequence and frees interior nodes that became empty — the memory
 * bound for fully-checkpointed pages. Retained leaves may still
 * carry an anchorSeq pointing below the prune horizon; callers must
 * ignore anchors <= prunedThrough() (the anchor's effects are in the
 * checkpointed base image anyway).
 *
 * Node storage (DESIGN.md §20): an index bound to a FrameIndex::Pool
 * takes its nodes and leaves from the pool and gives them back there,
 * so a steady-state insert or prune never reaches the allocator, and
 * a reused leaf keeps its slot vector's capacity. Pool::releaseAll()
 * takes back every node at once; each index that used the pool must
 * then forget() its tree instead of walking it.
 *
 * Not thread-safe: every caller already holds the database engine
 * mutex, like the rest of the NvwalLog volatile index.
 */

#ifndef NVWAL_CORE_FRAME_INDEX_HPP
#define NVWAL_CORE_FRAME_INDEX_HPP

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/types.hpp"
#include "wal/write_ahead_log.hpp"

namespace nvwal
{

/** Radix-tree index of one page's committed frames, by commit seq. */
class FrameIndex
{
  public:
    static constexpr std::uint32_t kBitsPerLevel = 4;
    static constexpr std::uint32_t kFanout = 1u << kBitsPerLevel;
    /** 16 levels of 4 bits cover the whole 64-bit sequence space. */
    static constexpr std::uint32_t kMaxHeight = 16;

    /** One committed frame (the page and seq are implied). */
    struct Slot
    {
        NvOffset off;             //!< frame header offset in NVRAM
        std::uint16_t pageOffset;
        std::uint16_t size;       //!< payload bytes
    };

    /** All frames one commit sequence contributed to the page. */
    struct Leaf
    {
        CommitSeq seq = 0;
        std::vector<Slot> slots;
        /** Index of the newest full-page slot in slots, or -1. */
        int lastFull = -1;
        /**
         * Newest sequence <= seq whose leaf holds a full-page frame
         * (possibly this leaf), frozen when the leaf was last
         * touched; 0 when no full frame exists at or below seq.
         */
        CommitSeq anchorSeq = 0;
    };

  private:
    /**
     * Interior node at level l >= 1: child i covers sequences
     * [base + i * 16^(l-1), base + (i+1) * 16^(l-1)). Children of a
     * level-1 node are Leafs.
     */
    struct Node
    {
        void *child[kFanout] = {nullptr};
    };

  public:
    /**
     * Node and leaf storage shared by many indexes (one per log):
     * fixed-size chunks that are never moved or freed before the
     * pool, a bump frontier over them and a free list. Counts only
     * the nodes and leaves handed out, never the pooled ones.
     */
    class Pool
    {
      public:
        Pool() = default;
        Pool(const Pool &) = delete;
        Pool &operator=(const Pool &) = delete;

        /** Nodes and leaves currently handed out to indexes. */
        std::uint64_t liveCount() const { return _live; }

        /**
         * Take back every node and leaf at once. Every index that
         * used the pool must forget() its tree.
         */
        void
        releaseAll()
        {
            _nodes.releaseAll();
            _leaves.releaseAll();
            _live = 0;
        }

      private:
        friend class FrameIndex;

        template <typename T>
        struct Arena
        {
            static constexpr std::size_t kChunk = 64;
            std::vector<std::unique_ptr<T[]>> chunks;
            std::size_t used = 0;   //!< bump frontier over the chunks
            std::vector<T *> free;

            T *
            take()
            {
                if (!free.empty()) {
                    T *t = free.back();
                    free.pop_back();
                    return t;
                }
                if (used == chunks.size() * kChunk)
                    chunks.push_back(std::make_unique<T[]>(kChunk));
                T *t = &chunks[used / kChunk][used % kChunk];
                ++used;
                return t;
            }

            void give(T *t) { free.push_back(t); }

            void
            releaseAll()
            {
                used = 0;
                free.clear();
            }
        };

        Arena<Node> _nodes;
        Arena<Leaf> _leaves;
        std::uint64_t _live = 0;
    };

    FrameIndex() = default;
    ~FrameIndex() { clear(); }

    FrameIndex(const FrameIndex &) = delete;
    FrameIndex &operator=(const FrameIndex &) = delete;

    FrameIndex(FrameIndex &&other) noexcept { *this = std::move(other); }

    FrameIndex &
    operator=(FrameIndex &&other) noexcept
    {
        if (this == &other)
            return *this;
        clear();
        _pool = other._pool;
        _root = other._root;
        _height = other._height;
        _tail = other._tail;
        _nodeCount = other._nodeCount;
        _frameCount = other._frameCount;
        _leafCount = other._leafCount;
        _lastFullSeq = other._lastFullSeq;
        _prunedThrough = other._prunedThrough;
        other._root = nullptr;
        other._height = 0;
        other._tail = nullptr;
        other._nodeCount = 0;
        other._frameCount = 0;
        other._leafCount = 0;
        other._lastFullSeq = 0;
        other._prunedThrough = 0;
        return *this;
    }

    /**
     * Take nodes and leaves from @p pool from now on. Must be bound
     * while the index is empty.
     */
    void
    bindPool(Pool *pool)
    {
        NVWAL_ASSERT(_root == nullptr, "pool bound to a non-empty index");
        _pool = pool;
    }

    /** Append one frame under @p seq (nondecreasing across calls). */
    void
    insert(CommitSeq seq, const Slot &slot, bool full_page)
    {
        NVWAL_ASSERT(seq != 0, "commit sequences start at 1");
        NVWAL_ASSERT(_tail == nullptr || seq >= _tail->seq,
                     "frame index inserts must be seq-nondecreasing");
        NVWAL_ASSERT(seq > _prunedThrough,
                     "insert at or below the pruned horizon");
        Leaf *leaf = (_tail != nullptr && _tail->seq == seq)
                         ? _tail
                         : attachLeaf(seq);
        leaf->slots.push_back(slot);
        if (full_page) {
            leaf->lastFull = static_cast<int>(leaf->slots.size()) - 1;
            _lastFullSeq = seq;
        }
        leaf->anchorSeq = _lastFullSeq;
        ++_frameCount;
    }

    /**
     * The newest leaf with seq <= @p horizon, or nullptr when no
     * retained frame is visible. Adds the descent cost (nodes
     * touched) to @p steps.
     */
    const Leaf *
    findVisible(CommitSeq horizon, std::uint64_t *steps) const
    {
        if (_tail == nullptr)
            return nullptr;
        if (horizon >= _tail->seq) {
            // The common unpinned read: the newest leaf is visible.
            *steps += 1;
            return _tail;
        }
        if (_root == nullptr)
            return nullptr;
        return floorIn(_root, _height, horizon, steps);
    }

    /**
     * Visit every retained leaf with lo <= seq <= hi in ascending
     * sequence order.
     */
    template <typename Fn>
    void
    forRange(CommitSeq lo, CommitSeq hi, Fn &&fn) const
    {
        if (_root == nullptr || hi < lo)
            return;
        rangeIn(_root, _height, 0, lo, hi, fn);
    }

    /**
     * Drop every leaf with seq <= @p through and free interior nodes
     * left empty. Returns the number of frames (slots) reclaimed.
     */
    std::uint64_t
    pruneThrough(CommitSeq through)
    {
        if (through > _prunedThrough)
            _prunedThrough = through;
        if (_lastFullSeq <= through)
            _lastFullSeq = 0;
        if (_root == nullptr || through == 0)
            return 0;
        // Drop the tail shortcut before freeing anything: pruneIn
        // may free the leaf it points at.
        if (_tail != nullptr && _tail->seq <= through)
            _tail = nullptr;
        std::uint64_t removed = 0;
        if (pruneIn(&_root, _height, 0, through, &removed))
            _height = 0;
        NVWAL_ASSERT(removed <= _frameCount);
        _frameCount -= removed;
        return removed;
    }

    /** Free everything; the index becomes empty and reusable. */
    void
    clear()
    {
        if (_root != nullptr) {
            std::uint64_t removed = 0;
            freeSubtree(_root, _height, &removed);
            _root = nullptr;
        }
        _height = 0;
        _tail = nullptr;
        _frameCount = 0;
        _leafCount = 0;
        _lastFullSeq = 0;
        _prunedThrough = 0;
    }

    /**
     * Drop the whole tree without freeing a node: its pool has taken
     * (or is about to take) every node back through releaseAll().
     * The index becomes empty and reusable, as after clear().
     */
    void
    forget()
    {
        _root = nullptr;
        _nodeCount = 0;
        _height = 0;
        _tail = nullptr;
        _frameCount = 0;
        _leafCount = 0;
        _lastFullSeq = 0;
        _prunedThrough = 0;
    }

    bool empty() const { return _leafCount == 0; }
    std::uint64_t frameCount() const { return _frameCount; }
    std::uint64_t leafCount() const { return _leafCount; }
    /** Live nodes (interior + leaf) owned by this index. */
    std::uint64_t nodeCount() const { return _nodeCount; }
    CommitSeq newestSeq() const
    { return _tail != nullptr ? _tail->seq : 0; }
    CommitSeq prunedThrough() const { return _prunedThrough; }

  private:
    static std::uint32_t
    childIndex(CommitSeq key, std::uint32_t level)
    {
        return static_cast<std::uint32_t>(
                   key >> (kBitsPerLevel * (level - 1))) &
               (kFanout - 1);
    }

    /** Sequences covered per child of a node at @p level. */
    static CommitSeq
    childSpan(std::uint32_t level)
    {
        return static_cast<CommitSeq>(1)
               << (kBitsPerLevel * (level - 1));
    }

    bool
    covers(CommitSeq key) const
    {
        return _height >= kMaxHeight ||
               key < (static_cast<CommitSeq>(1)
                      << (kBitsPerLevel * _height));
    }

    Node *
    allocNode()
    {
        NVWAL_ASSERT(_pool != nullptr, "frame index used unbound");
        ++_nodeCount;
        ++_pool->_live;
        Node *node = _pool->_nodes.take();
        *node = Node{};
        return node;
    }

    Leaf *
    allocLeaf(CommitSeq seq)
    {
        NVWAL_ASSERT(_pool != nullptr, "frame index used unbound");
        ++_nodeCount;
        ++_leafCount;
        ++_pool->_live;
        Leaf *leaf = _pool->_leaves.take();
        // A reused leaf keeps its slot vector's capacity.
        leaf->slots.clear();
        leaf->lastFull = -1;
        leaf->anchorSeq = 0;
        leaf->seq = seq;
        return leaf;
    }

    void
    freeNode(Node *node)
    {
        NVWAL_ASSERT(_nodeCount > 0);
        --_nodeCount;
        --_pool->_live;
        _pool->_nodes.give(node);
    }

    void
    freeLeaf(Leaf *leaf)
    {
        NVWAL_ASSERT(_nodeCount > 0 && _leafCount > 0);
        --_nodeCount;
        --_leafCount;
        --_pool->_live;
        _pool->_leaves.give(leaf);
    }

    /** Create (and link) the leaf for @p seq; grows the tree. */
    Leaf *
    attachLeaf(CommitSeq seq)
    {
        if (_root == nullptr) {
            // Size a fresh root to cover seq outright: growing an
            // empty root upward would leave an empty interior node
            // at child 0, which floor lookups must never descend to.
            _height = 1;
            while (!covers(seq))
                ++_height;
            _root = allocNode();
        }
        while (!covers(seq)) {
            // Grow upward: the old (non-empty) root becomes child 0
            // of a new root, since it always covers [0, 16^height).
            Node *root = allocNode();
            root->child[0] = _root;
            _root = root;
            ++_height;
        }
        Node *node = static_cast<Node *>(_root);
        for (std::uint32_t level = _height; level > 1; --level) {
            void *&slot = node->child[childIndex(seq, level)];
            if (slot == nullptr)
                slot = allocNode();
            node = static_cast<Node *>(slot);
        }
        void *&slot = node->child[childIndex(seq, 1)];
        NVWAL_ASSERT(slot == nullptr, "leaf already attached");
        Leaf *leaf = allocLeaf(seq);
        slot = leaf;
        _tail = leaf;
        return leaf;
    }

    const Leaf *
    floorIn(const void *node, std::uint32_t level, CommitSeq key,
            std::uint64_t *steps) const
    {
        *steps += 1;
        if (level == 0) {
            const Leaf *leaf = static_cast<const Leaf *>(node);
            return leaf->seq <= key ? leaf : nullptr;
        }
        const Node *n = static_cast<const Node *>(node);
        const std::uint32_t start = childIndex(key, level);
        for (std::uint32_t i = start + 1; i-- > 0;) {
            if (n->child[i] == nullptr)
                continue;
            const Leaf *found =
                i == start ? floorIn(n->child[i], level - 1, key, steps)
                           : maxIn(n->child[i], level - 1, steps);
            if (found != nullptr)
                return found;
        }
        return nullptr;
    }

    const Leaf *
    maxIn(const void *node, std::uint32_t level,
          std::uint64_t *steps) const
    {
        *steps += 1;
        if (level == 0)
            return static_cast<const Leaf *>(node);
        const Node *n = static_cast<const Node *>(node);
        for (std::uint32_t i = kFanout; i-- > 0;)
            if (n->child[i] != nullptr)
                return maxIn(n->child[i], level - 1, steps);
        NVWAL_ASSERT(false, "interior radix node with no children");
        return nullptr;
    }

    template <typename Fn>
    void
    rangeIn(const void *node, std::uint32_t level, CommitSeq base,
            CommitSeq lo, CommitSeq hi, Fn &&fn) const
    {
        if (level == 0) {
            const Leaf *leaf = static_cast<const Leaf *>(node);
            if (leaf->seq >= lo && leaf->seq <= hi)
                fn(*leaf);
            return;
        }
        const Node *n = static_cast<const Node *>(node);
        const CommitSeq span = childSpan(level);
        for (std::uint32_t i = 0; i < kFanout; ++i) {
            if (n->child[i] == nullptr)
                continue;
            const CommitSeq child_base = base + i * span;
            if (child_base > hi)
                break;
            if (child_base + (span - 1) < lo)
                continue;
            rangeIn(n->child[i], level - 1, child_base, lo, hi, fn);
        }
    }

    void
    freeSubtree(void *node, std::uint32_t level, std::uint64_t *removed)
    {
        if (level == 0) {
            Leaf *leaf = static_cast<Leaf *>(node);
            *removed += leaf->slots.size();
            freeLeaf(leaf);
            return;
        }
        Node *n = static_cast<Node *>(node);
        for (std::uint32_t i = 0; i < kFanout; ++i)
            if (n->child[i] != nullptr)
                freeSubtree(n->child[i], level - 1, removed);
        freeNode(n);
    }

    /** Returns true when the subtree at *slot emptied and was freed. */
    bool
    pruneIn(void **slot, std::uint32_t level, CommitSeq base,
            CommitSeq through, std::uint64_t *removed)
    {
        if (level == 0) {
            Leaf *leaf = static_cast<Leaf *>(*slot);
            if (leaf->seq > through)
                return false;
            *removed += leaf->slots.size();
            freeLeaf(leaf);
            *slot = nullptr;
            return true;
        }
        Node *n = static_cast<Node *>(*slot);
        const CommitSeq span = childSpan(level);
        bool any_left = false;
        for (std::uint32_t i = 0; i < kFanout; ++i) {
            if (n->child[i] == nullptr)
                continue;
            const CommitSeq child_base = base + i * span;
            if (child_base > through) {
                any_left = true;
                continue;
            }
            if (child_base + (span - 1) <= through) {
                // Whole subtree at or below the horizon.
                freeSubtree(n->child[i], level - 1, removed);
                n->child[i] = nullptr;
                continue;
            }
            if (!pruneIn(&n->child[i], level - 1, child_base, through,
                         removed))
                any_left = true;
        }
        if (any_left)
            return false;
        freeNode(n);
        *slot = nullptr;
        return true;
    }

    Pool *_pool = nullptr;       //!< node source (bindPool)
    void *_root = nullptr;       //!< Node* (level == _height)
    std::uint32_t _height = 0;   //!< interior levels; 0 == empty
    Leaf *_tail = nullptr;       //!< newest leaf (append fast path)
    std::uint64_t _nodeCount = 0;
    std::uint64_t _frameCount = 0;
    std::uint64_t _leafCount = 0;
    CommitSeq _lastFullSeq = 0;
    CommitSeq _prunedThrough = 0;
};

} // namespace nvwal

#endif // NVWAL_CORE_FRAME_INDEX_HPP
