/**
 * @file
 * Scripted database workloads for the crash-sweep harness.
 *
 * A Workload is a flat list of database operations (begin / commit /
 * record ops / table ops / checkpoint / incremental checkpoint steps /
 * snapshot reads over a Connection) the harness can replay
 * deterministically any number of times: once to count the NVRAM
 * persistence operations it issues, once to build the oracle states
 * at every commit boundary, and then once per injected crash point.
 *
 * Every operation carries a phase label (set by phase()), which the
 * sweep report uses to attribute crash points, e.g. "txn 3" or
 * "drop table". Labels are free-form and purely diagnostic.
 */

#ifndef NVWAL_FAULTSIM_WORKLOAD_HPP
#define NVWAL_FAULTSIM_WORKLOAD_HPP

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace nvwal::faultsim
{

/** Pages one CheckpointStep op writes back at most. */
inline constexpr std::uint32_t kCheckpointStepPages = 8;

/** One scripted database operation. */
struct WorkloadOp
{
    enum class Kind
    {
        Begin,
        Commit,
        Insert,
        Update,
        Remove,
        CreateTable,
        DropTable,
        Checkpoint,
        /** One incremental checkpointStep() of @c stepPages pages. */
        CheckpointStep,
        /** Open a read snapshot on the harness connection. */
        SnapshotOpen,
        /** Re-scan the snapshot; must still equal the pinned state. */
        SnapshotVerify,
        /** Close the snapshot and release its pin. */
        SnapshotClose,
        /** Commit with Durability::Async (ack before the barrier). */
        CommitAsync,
        /** Database::flushAsyncCommits(): harden every pending epoch. */
        FlushAsync,
        // ---- multi-writer ops (DbConfig::multiWriter sweeps) --------
        // Each addresses one of several numbered connections, so a
        // single replay thread drives interleaved optimistic
        // transactions of distinct connections deterministically.
        /** Connection::begin() on connection @c conn. */
        ConnBegin,
        /** Connection::commit() (Group, waits for the harden). */
        ConnCommit,
        /** commit({Async, waitForHarden=false}): logged, not yet
         *  hardened -- opens the async loss window. */
        ConnCommitNoWait,
        /** Insert on connection @c conn's open transaction. */
        ConnInsert,
        /** Update on connection @c conn's open transaction. */
        ConnUpdate,
        /** Remove on connection @c conn's open transaction. */
        ConnRemove,
        /** flushAsyncCommits(): one barrier hardens every log. */
        ConnHardenAll,
    };

    Kind kind = Kind::Begin;
    std::string table;      //!< empty = the default table
    RowId key = 0;
    ByteBuffer value;
    int conn = -1;          //!< connection index (multi-writer ops)
    /** Pages a CheckpointStep writes back at most. */
    std::uint32_t stepPages = kCheckpointStepPages;
};

/** Builder + container for a replayable operation script. */
class Workload
{
  public:
    /** Label subsequent operations; returns *this for chaining. */
    Workload &
    phase(std::string label)
    {
        _currentPhase = std::move(label);
        return *this;
    }

    Workload &begin() { return push(make(WorkloadOp::Kind::Begin)); }
    Workload &commit() { return push(make(WorkloadOp::Kind::Commit)); }

    Workload &
    commitAsync()
    {
        return push(make(WorkloadOp::Kind::CommitAsync));
    }

    Workload &
    flushAsync()
    {
        return push(make(WorkloadOp::Kind::FlushAsync));
    }

    Workload &
    checkpoint()
    {
        return push(make(WorkloadOp::Kind::Checkpoint));
    }

    Workload &
    checkpointStep(std::uint32_t pages = kCheckpointStepPages)
    {
        WorkloadOp op = make(WorkloadOp::Kind::CheckpointStep);
        op.stepPages = pages;
        return push(std::move(op));
    }

    Workload &
    snapshotOpen()
    {
        return push(make(WorkloadOp::Kind::SnapshotOpen));
    }

    Workload &
    snapshotVerify()
    {
        return push(make(WorkloadOp::Kind::SnapshotVerify));
    }

    Workload &
    snapshotClose()
    {
        return push(make(WorkloadOp::Kind::SnapshotClose));
    }

    Workload &
    insert(RowId key, ByteBuffer value, std::string table = "")
    {
        return push(make(WorkloadOp::Kind::Insert, std::move(table), key,
                         std::move(value)));
    }

    Workload &
    update(RowId key, ByteBuffer value, std::string table = "")
    {
        return push(make(WorkloadOp::Kind::Update, std::move(table), key,
                         std::move(value)));
    }

    Workload &
    remove(RowId key, std::string table = "")
    {
        return push(make(WorkloadOp::Kind::Remove, std::move(table), key));
    }

    Workload &
    connBegin(int conn)
    {
        return push(makeConn(WorkloadOp::Kind::ConnBegin, conn));
    }

    Workload &
    connCommit(int conn)
    {
        return push(makeConn(WorkloadOp::Kind::ConnCommit, conn));
    }

    Workload &
    connCommitNoWait(int conn)
    {
        return push(makeConn(WorkloadOp::Kind::ConnCommitNoWait, conn));
    }

    Workload &
    connInsert(int conn, RowId key, ByteBuffer value)
    {
        return push(makeConn(WorkloadOp::Kind::ConnInsert, conn, key,
                             std::move(value)));
    }

    Workload &
    connUpdate(int conn, RowId key, ByteBuffer value)
    {
        return push(makeConn(WorkloadOp::Kind::ConnUpdate, conn, key,
                             std::move(value)));
    }

    Workload &
    connRemove(int conn, RowId key)
    {
        return push(makeConn(WorkloadOp::Kind::ConnRemove, conn, key));
    }

    Workload &
    connHardenAll()
    {
        return push(make(WorkloadOp::Kind::ConnHardenAll));
    }

    Workload &
    createTable(std::string name)
    {
        return push(make(WorkloadOp::Kind::CreateTable, std::move(name)));
    }

    Workload &
    dropTable(std::string name)
    {
        return push(make(WorkloadOp::Kind::DropTable, std::move(name)));
    }

    // ---- factories -------------------------------------------------

    /** Deterministic pseudo-random payload (same recipe as tests). */
    static ByteBuffer
    valueFor(std::size_t size, std::uint64_t tag)
    {
        Rng rng(tag);
        ByteBuffer out(size);
        for (auto &b : out)
            b = static_cast<std::uint8_t>(rng.next());
        return out;
    }

    /**
     * The canonical crash-test workload: @p txns explicit
     * transactions of 3 inserts plus (from the second one on) one
     * update of an earlier key, numbered from @p first_txn so a
     * warm-up and a sweep workload can share the key space without
     * colliding. One phase label per transaction.
     */
    static Workload
    standardTxns(int first_txn, int txns, std::size_t value_bytes = 80)
    {
        Workload w;
        for (int txn = first_txn; txn < first_txn + txns; ++txn) {
            w.phase("txn " + std::to_string(txn));
            w.begin();
            for (int i = 0; i < 3; ++i) {
                const RowId key = txn * 10 + i;
                w.insert(key, valueFor(value_bytes,
                                       static_cast<std::uint64_t>(txn) *
                                               1000 +
                                           static_cast<std::uint64_t>(key)));
            }
            if (txn > first_txn) {
                const RowId prev = (txn - 1) * 10;
                w.update(prev,
                         valueFor(value_bytes,
                                  static_cast<std::uint64_t>(txn) * 1000 +
                                      static_cast<std::uint64_t>(prev)));
            }
            w.commit();
        }
        return w;
    }

    /**
     * The async-commit variant of standardTxns(): identical
     * transactions committed with Durability::Async, plus an explicit
     * flushAsyncCommits() after every @p flush_every transactions
     * (0 = never; the configured staleness window still bounds the
     * un-hardened backlog).
     */
    static Workload
    asyncTxns(int first_txn, int txns, int flush_every = 0,
              std::size_t value_bytes = 80)
    {
        Workload w;
        for (int txn = first_txn; txn < first_txn + txns; ++txn) {
            w.phase("txn " + std::to_string(txn));
            w.begin();
            for (int i = 0; i < 3; ++i) {
                const RowId key = txn * 10 + i;
                w.insert(key, valueFor(value_bytes,
                                       static_cast<std::uint64_t>(txn) *
                                               1000 +
                                           static_cast<std::uint64_t>(key)));
            }
            if (txn > first_txn) {
                const RowId prev = (txn - 1) * 10;
                w.update(prev,
                         valueFor(value_bytes,
                                  static_cast<std::uint64_t>(txn) * 1000 +
                                      static_cast<std::uint64_t>(prev)));
            }
            w.commitAsync();
            if (flush_every > 0 &&
                (txn - first_txn + 1) % flush_every == 0)
                w.flushAsync();
        }
        return w;
    }

    /**
     * The canonical multi-writer crash workload: @p writers
     * connections committing round-robin, each transaction two
     * inserts plus (after the first) an update of the key the
     * *previous* connection wrote -- a cross-connection same-page
     * chain recovery must keep in commit order. Transactions are
     * serial (no two open at once) so optimistic validation never
     * aborts during replay. Even-indexed transactions commit without
     * waiting for the harden, leaving logged-but-unhardened commits
     * of several connections at once (the async loss window); odd
     * ones harden everything logged; a final connHardenAll() per
     * round drains the rest.
     */
    static Workload
    multiWriterTxns(int writers, int rounds, std::size_t value_bytes = 64)
    {
        Workload w;
        int txn = 0;
        RowId prev_key = 0;
        bool has_prev = false;
        for (int r = 0; r < rounds; ++r) {
            for (int c = 0; c < writers; ++c, ++txn) {
                w.phase("mw txn " + std::to_string(txn) + " conn " +
                        std::to_string(c));
                const RowId key = 9000 + txn * 10;
                w.connBegin(c);
                w.connInsert(c, key,
                             valueFor(value_bytes,
                                      static_cast<std::uint64_t>(key) * 7 +
                                          1));
                w.connInsert(c, key + 1,
                             valueFor(value_bytes,
                                      static_cast<std::uint64_t>(key) * 7 +
                                          2));
                if (has_prev)
                    w.connUpdate(c, prev_key,
                                 valueFor(value_bytes,
                                          static_cast<std::uint64_t>(key) *
                                                  7 +
                                              3));
                if (txn % 2 == 0)
                    w.connCommitNoWait(c);
                else
                    w.connCommit(c);
                prev_key = key;
                has_prev = true;
            }
            w.phase("mw harden " + std::to_string(r));
            w.connHardenAll();
        }
        return w;
    }

    /**
     * Append a checkpoint round whose write-out stays in flight
     * across commits and whose log switches segments under it: one
     * transaction spreads 10 rows of @p value_bytes over about six
     * leaves, then three-page incremental steps (each leaves its
     * programs on the flash queue) alternate with one-row
     * transactions, the first of which starts the log's second
     * segment. A last step writes the rest of the round's frozen set,
     * fsyncs and retires the first segment; one more transaction
     * appends to the log that is left, and a full checkpoint fsyncs
     * and truncates. Crash points in the commits between the steps
     * land with blocks in flight, which the device settles under the
     * crash's policy; those in the last step and the final checkpoint
     * land between an fsync and the end of a retirement or a
     * truncation.
     */
    Workload &
    writeOutRound(RowId first_key, std::size_t value_bytes = 1500)
    {
        writeOutLoad(first_key, value_bytes);
        return writeOutSteps(first_key, value_bytes);
    }

    /** writeOutRound()'s loading transaction alone. */
    Workload &
    writeOutLoad(RowId first_key, std::size_t value_bytes = 1500)
    {
        phase("write-out load");
        begin();
        for (RowId key = first_key; key < first_key + 10; ++key)
            insert(key, writeOutValue(key, 0, value_bytes));
        return commit();
    }

    /** writeOutRound() after its loading transaction. */
    Workload &
    writeOutSteps(RowId first_key, std::size_t value_bytes = 1500)
    {
        const auto update_one = [&](RowId key, std::uint64_t version) {
            begin();
            update(key, writeOutValue(key, version, value_bytes));
            commit();
        };
        for (int step = 0; step < 2; ++step) {
            phase("write-out step " + std::to_string(step));
            checkpointStep(3);
            update_one(first_key + 5 * step,
                       1 + static_cast<std::uint64_t>(step));
        }
        phase("write-out fsync + retire");
        checkpointStep(64);
        phase("write-out second segment");
        update_one(first_key + 9, 3);
        phase("write-out fsync + truncate");
        checkpoint();
        return *this;
    }

    /** Version @p version of writeOutRound()'s row @p key. */
    static ByteBuffer
    writeOutValue(RowId key, std::uint64_t version, std::size_t value_bytes)
    {
        return valueFor(value_bytes,
                        static_cast<std::uint64_t>(key) * 31 + version);
    }

    // ---- access ----------------------------------------------------

    std::size_t size() const { return _ops.size(); }
    bool empty() const { return _ops.empty(); }
    const WorkloadOp &op(std::size_t i) const { return _ops[i]; }
    const std::string &phaseOf(std::size_t i) const { return _phases[i]; }

  private:
    static WorkloadOp
    make(WorkloadOp::Kind kind, std::string table = std::string(),
         RowId key = 0, ByteBuffer value = ByteBuffer())
    {
        WorkloadOp op;
        op.kind = kind;
        op.table = std::move(table);
        op.key = key;
        op.value = std::move(value);
        return op;
    }

    static WorkloadOp
    makeConn(WorkloadOp::Kind kind, int conn, RowId key = 0,
             ByteBuffer value = ByteBuffer())
    {
        WorkloadOp op;
        op.kind = kind;
        op.conn = conn;
        op.key = key;
        op.value = std::move(value);
        return op;
    }

    Workload &
    push(WorkloadOp op)
    {
        _ops.push_back(std::move(op));
        _phases.push_back(_currentPhase);
        return *this;
    }

    std::vector<WorkloadOp> _ops;
    std::vector<std::string> _phases;   //!< parallel to _ops
    std::string _currentPhase = "workload";
};

} // namespace nvwal::faultsim

#endif // NVWAL_FAULTSIM_WORKLOAD_HPP
