#include "crash_sweep.hpp"

#include <algorithm>

#include "db/connection.hpp"

namespace nvwal::faultsim
{
namespace
{

/** table name -> full content; the unit of oracle comparison. */
using TableImage = std::map<RowId, ByteBuffer>;
using DbImage = std::map<std::string, TableImage>;

/**
 * Per-replay state the snapshot ops need: a lazily-opened Connection
 * (destroyed strictly before the Database it points at), the oracle
 * states when available, and which state the open snapshot pinned.
 * The replay's snapshot is a *scripted* reader: it runs on the replay
 * thread so the device-op stream stays deterministic, standing in for
 * the concurrent readers the live engine serves from other threads.
 */
struct ReplaySession
{
    std::unique_ptr<Connection> conn;
    /**
     * Numbered writer connections for the multi-writer ops (lazily
     * opened in first-use order, so slot assignment is deterministic
     * across replays). Destroyed strictly before the Database.
     */
    std::map<int, std::unique_ptr<Connection>> conns;
    /** Oracle states; null during the counting pass (not built yet). */
    const std::vector<DbImage> *oracle = nullptr;
    /** Index of the state the currently open snapshot pinned. */
    std::uint64_t pinnedEvents = 0;

    Status
    writerConn(Database &db, int index, Connection **out)
    {
        std::unique_ptr<Connection> &conn = conns[index];
        if (!conn)
            NVWAL_RETURN_IF_ERROR(db.connect(&conn));
        *out = conn.get();
        return Status::ok();
    }
};

Status
applyOp(Database &db, ReplaySession &session, const WorkloadOp &op,
        std::uint64_t done_events)
{
    const ConstByteSpan value(op.value.data(), op.value.size());
    Table *table = nullptr;
    switch (op.kind) {
      case WorkloadOp::Kind::Begin:
        return db.begin();
      case WorkloadOp::Kind::Commit:
        return db.commit();
      case WorkloadOp::Kind::CommitAsync:
        return db.commit(Durability::Async);
      case WorkloadOp::Kind::FlushAsync:
        return db.flushAsyncCommits();
      case WorkloadOp::Kind::Checkpoint:
        return db.checkpoint();
      case WorkloadOp::Kind::CheckpointStep: {
        bool done = false;
        return db.checkpointStep(kCheckpointStepPages, &done);
      }
      case WorkloadOp::Kind::SnapshotOpen:
        if (!session.conn)
            NVWAL_RETURN_IF_ERROR(db.connect(&session.conn));
        session.pinnedEvents = done_events;
        return session.conn->beginRead();
      case WorkloadOp::Kind::SnapshotVerify: {
        if (!session.conn || !session.conn->inRead())
            return Status::invalidArgument("no snapshot to verify");
        TableImage seen;
        NVWAL_RETURN_IF_ERROR(session.conn->scan(
            INT64_MIN, INT64_MAX, [&](RowId k, ConstByteSpan v) {
                seen[k] = ByteBuffer(v.begin(), v.end());
                return true;
            }));
        if (session.oracle != nullptr) {
            // The snapshot must still read as the state it pinned,
            // no matter how many commits or checkpoint steps have
            // run since SnapshotOpen.
            const DbImage &want = (*session.oracle)[session.pinnedEvents];
            static const TableImage kEmpty;
            const auto it = want.find(Database::kDefaultTable);
            const TableImage &expect =
                it == want.end() ? kEmpty : it->second;
            if (seen != expect)
                return Status::corruption(
                    "snapshot drifted from pinned state S_" +
                    std::to_string(session.pinnedEvents));
        }
        return Status::ok();
      }
      case WorkloadOp::Kind::SnapshotClose:
        if (!session.conn || !session.conn->inRead())
            return Status::invalidArgument("no snapshot to close");
        return session.conn->endRead();
      case WorkloadOp::Kind::CreateTable:
        return db.createTable(op.table);
      case WorkloadOp::Kind::DropTable:
        return db.dropTable(op.table);
      case WorkloadOp::Kind::Insert:
        if (op.table.empty())
            return db.insert(op.key, value);
        NVWAL_RETURN_IF_ERROR(db.openTable(op.table, &table));
        return table->insert(op.key, value);
      case WorkloadOp::Kind::Update:
        if (op.table.empty())
            return db.update(op.key, value);
        NVWAL_RETURN_IF_ERROR(db.openTable(op.table, &table));
        return table->update(op.key, value);
      case WorkloadOp::Kind::Remove:
        if (op.table.empty())
            return db.remove(op.key);
        NVWAL_RETURN_IF_ERROR(db.openTable(op.table, &table));
        return table->remove(op.key);
      case WorkloadOp::Kind::ConnBegin: {
        Connection *conn = nullptr;
        NVWAL_RETURN_IF_ERROR(session.writerConn(db, op.conn, &conn));
        return conn->begin();
      }
      case WorkloadOp::Kind::ConnCommit: {
        Connection *conn = nullptr;
        NVWAL_RETURN_IF_ERROR(session.writerConn(db, op.conn, &conn));
        return conn->commit(CommitOptions{});
      }
      case WorkloadOp::Kind::ConnCommitNoWait: {
        Connection *conn = nullptr;
        NVWAL_RETURN_IF_ERROR(session.writerConn(db, op.conn, &conn));
        CommitOptions options;
        options.durability = Durability::Async;
        options.waitForHarden = false;
        return conn->commit(options);
      }
      case WorkloadOp::Kind::ConnInsert: {
        Connection *conn = nullptr;
        NVWAL_RETURN_IF_ERROR(session.writerConn(db, op.conn, &conn));
        return conn->insert(op.key, value);
      }
      case WorkloadOp::Kind::ConnUpdate: {
        Connection *conn = nullptr;
        NVWAL_RETURN_IF_ERROR(session.writerConn(db, op.conn, &conn));
        return conn->update(op.key, value);
      }
      case WorkloadOp::Kind::ConnRemove: {
        Connection *conn = nullptr;
        NVWAL_RETURN_IF_ERROR(session.writerConn(db, op.conn, &conn));
        return conn->remove(op.key);
      }
      case WorkloadOp::Kind::ConnHardenAll:
        return db.flushAsyncCommits();
    }
    return Status::invalidArgument("unknown workload op");
}

/**
 * Whether executing @p op will complete a commit event (a new
 * durable state the oracle must snapshot): an explicit commit, or
 * any state-changing statement issued outside a transaction
 * (autocommit). Decidable before execution, so the per-point replay
 * knows whether the op the crash interrupted was a committing one.
 */
bool
isCommitEventOp(const Database &db, const WorkloadOp &op)
{
    switch (op.kind) {
      case WorkloadOp::Kind::Commit:
      case WorkloadOp::Kind::CommitAsync:
      case WorkloadOp::Kind::ConnCommit:
      case WorkloadOp::Kind::ConnCommitNoWait:
        return true;
      case WorkloadOp::Kind::Insert:
      case WorkloadOp::Kind::Update:
      case WorkloadOp::Kind::Remove:
      case WorkloadOp::Kind::CreateTable:
      case WorkloadOp::Kind::DropTable:
        return !db.inTransaction();
      case WorkloadOp::Kind::Begin:
      case WorkloadOp::Kind::Checkpoint:
      case WorkloadOp::Kind::CheckpointStep:
      case WorkloadOp::Kind::FlushAsync:
      case WorkloadOp::Kind::SnapshotOpen:
      case WorkloadOp::Kind::SnapshotVerify:
      case WorkloadOp::Kind::SnapshotClose:
      case WorkloadOp::Kind::ConnBegin:
      case WorkloadOp::Kind::ConnInsert:
      case WorkloadOp::Kind::ConnUpdate:
      case WorkloadOp::Kind::ConnRemove:
      case WorkloadOp::Kind::ConnHardenAll:
        return false;
    }
    return false;
}

/** Full logical content of every table (the shadow model state). */
DbImage
dumpAll(Database &db)
{
    DbImage image;
    std::vector<std::string> tables;
    NVWAL_CHECK_OK(db.listTables(&tables));
    for (const std::string &name : tables) {
        TableImage &content = image[name];
        const auto collect = [&](RowId k, ConstByteSpan v) {
            content[k] = ByteBuffer(v.begin(), v.end());
            return true;
        };
        // The default table through the statement API, which every
        // admission mode serves (table handles are single-writer only).
        if (name == Database::kDefaultTable) {
            NVWAL_CHECK_OK(db.scan(INT64_MIN, INT64_MAX, collect));
            continue;
        }
        Table *table = nullptr;
        NVWAL_CHECK_OK(db.openTable(name, &table));
        NVWAL_CHECK_OK(table->scan(INT64_MIN, INT64_MAX, collect));
    }
    return image;
}

/**
 * Check every post-recovery invariant; returns an empty string when
 * all hold, else the first violation's description.
 *
 * @p done_events commit events completed before the crash fired;
 * @p in_commit_event whether the interrupted op was itself one.
 * @p floor_events the durable floor: the newest commit event whose
 * epoch had hardened before the crash -- a recovered prefix below it
 * breaks the bounded loss window. @p matched_state receives the index
 * of the oracle state the recovered image equals (on success).
 */
std::string
checkInvariants(Env &env, Database &db, const std::vector<DbImage> &states,
                std::uint64_t done_events, bool in_commit_event,
                bool prefix_semantics, std::uint64_t floor_events,
                std::uint64_t *matched_state)
{
    const Status integrity = db.verifyIntegrity();
    if (!integrity.isOk())
        return "integrity check failed: " + integrity.toString();

    const DbImage content = dumpAll(db);
    const std::uint64_t upper = done_events + (in_commit_event ? 1 : 0);
    bool match = false;
    if (prefix_semantics) {
        // Checksum/async commits (section 4.2): a committed prefix is
        // legal; a torn unflushed frame invalidates everything after
        // it. Scan from the newest candidate down so matched_state
        // reports the longest matching prefix.
        std::uint64_t j = upper + 1;
        while (j > 0 && !match) {
            --j;
            match = content == states[j];
        }
        if (!match)
            return "recovered state is not a committed prefix (<= S_" +
                   std::to_string(upper) + ")";
        *matched_state = j;
        if (j < floor_events)
            return "recovered prefix S_" + std::to_string(j) +
                   " is below the durable floor S_" +
                   std::to_string(floor_events) +
                   " (hardened epoch lost: bounded-staleness window "
                   "violated)";
    } else {
        // Strict durability + atomicity: exactly the pre-crash
        // committed state, plus the victim if (and only if) the
        // crash fired inside its committing operation.
        match = content == states[done_events] ||
                (in_commit_event && content == states[upper]);
        if (!match)
            return "recovered state is neither S_" +
                   std::to_string(done_events) +
                   (in_commit_event
                        ? " nor S_" + std::to_string(upper)
                        : std::string()) +
                   " (lost or torn transaction)";
        *matched_state =
            content == states[done_events] ? done_events : upper;
    }

    const std::uint64_t pending = env.heap.countBlocks(BlockState::Pending);
    if (pending != 0)
        return std::to_string(pending) +
               " pending heap block(s) leaked by recovery";

    if (db.config().walMode == WalMode::Nvwal) {
        auto *log = dynamic_cast<NvwalLog *>(&db.wal());
        NVWAL_ASSERT(log != nullptr);
        if (log->nodesSinceCheckpoint() != log->nodeCount())
            return "node accounting skew: nodesSinceCheckpoint=" +
                   std::to_string(log->nodesSinceCheckpoint()) +
                   " nodeCount=" + std::to_string(log->nodeCount());
        const std::uint64_t reachable =
            log->reachableNvramBlocks() +
            recorderBlocks(env.heap, db.config().nvwal.heapNamespace);
        const std::uint64_t in_use =
            env.heap.countBlocks(BlockState::InUse);
        if (reachable != in_use)
            return "NVRAM block leak: " + std::to_string(in_use) +
                   " in use, " + std::to_string(reachable) +
                   " reachable from the log or the flight recorder";
    }
    return std::string();
}

} // namespace

const char *
failurePolicyName(FailurePolicy policy)
{
    switch (policy) {
      case FailurePolicy::Pessimistic: return "pessimistic";
      case FailurePolicy::Adversarial: return "adversarial";
      case FailurePolicy::AllSurvive: return "all-survive";
    }
    return "unknown";
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t point)
{
    return seed + 0x9e3779b97f4a7c15ULL * (point + 1);
}

std::uint64_t
recorderBlocks(const NvHeap &heap, const std::string &wal_namespace)
{
    NvOffset root = kNullNvOffset;
    if (!heap.getRoot(FlightRecorder::namespaceFor(wal_namespace), &root)
             .isOk())
        return 0;
    if (heap.blockStateAt(root) != BlockState::InUse)
        return 0;
    return heap.extentBlocksAt(root);
}

std::string
SweepReport::summary() const
{
    std::string out;
    out += "swept " + std::to_string(pointsSwept) + "/" +
           std::to_string(totalOps) + " device ops, " +
           std::to_string(replays) + " replays, " +
           std::to_string(crashes) + " crashes, " +
           std::to_string(violations.size()) + " violations\n";
    if (asyncReplays > 0 || tornFramesDetected > 0) {
        out += "  loss window: " + std::to_string(asyncReplays) +
               " crashes with pending acks, max loss " +
               std::to_string(maxLossEvents) + " event(s), " +
               std::to_string(tornFramesDetected) + " torn frame(s), " +
               std::to_string(framesDiscarded) + " discarded, " +
               std::to_string(lostMarks) + " lost mark(s)\n";
    }
    if (forensicsChecked > 0) {
        out += "  forensics: " + std::to_string(forensicsChecked) +
               " reports checked, " +
               std::to_string(frRecordsSurvived) +
               " ring records survived, " +
               std::to_string(frTornSlotsDiscarded) +
               " torn slot(s) discarded\n";
    }
    for (const auto &[label, cov] : phases) {
        out += "  " + label + ": " + std::to_string(cov.points) +
               " points, " + std::to_string(cov.replays) + " replays, " +
               std::to_string(cov.crashes) + " crashes, " +
               std::to_string(cov.violations) + " violations\n";
    }
    for (const Violation &v : violations) {
        out += "  VIOLATION op " + std::to_string(v.opIndex) + " [" +
               failurePolicyName(v.policy) + " seed " +
               std::to_string(v.seed) + ", " + v.phase + "]: " +
               v.message + "\n";
    }
    return out;
}

Status
CrashSweep::run(SweepReport *report)
{
    *report = SweepReport{};
    const Workload &workload = _config.workload;
    if (workload.empty())
        return Status::invalidArgument("empty sweep workload");

    std::vector<PolicyRun> policies = _config.policies;
    if (policies.empty()) {
        policies.push_back(PolicyRun{FailurePolicy::Pessimistic, {0}, 0.5});
        policies.push_back(
            PolicyRun{FailurePolicy::Adversarial, {1, 2, 3, 4}, 0.5});
    }

    const bool cs_mode =
        _config.db.walMode == WalMode::Nvwal &&
        _config.db.nvwal.syncMode == SyncMode::ChecksumAsync;
    bool has_async = false;
    for (std::size_t i = 0; i < workload.size(); ++i)
        has_async |=
            workload.op(i).kind == WorkloadOp::Kind::CommitAsync ||
            workload.op(i).kind == WorkloadOp::Kind::ConnCommitNoWait;
    // Async commits relax strict durability to prefix semantics, but
    // -- unlike ChecksumAsync, where every commit is probabilistic --
    // with a durable floor: epochs hardened before the crash must
    // survive, so the loss window stays bounded.
    const bool prefix_semantics = cs_mode || has_async;

    // ---- warm-up (runs once; the snapshot replaces re-runs) --------
    Env env(_config.env);
    if (_config.trace)
        env.stats.tracer().setEnabled(true);
    std::unique_ptr<Database> db;
    NVWAL_RETURN_IF_ERROR(Database::open(env, _config.db, &db));
    {
        ReplaySession warm;
        for (std::size_t i = 0; i < _config.warmup.size(); ++i)
            NVWAL_RETURN_IF_ERROR(
                applyOp(*db, warm, _config.warmup.op(i), 0));
    }
    if (_config.checkpointAfterWarmup)
        NVWAL_RETURN_IF_ERROR(db->checkpoint());
    db.reset();
    const Env::MediaSnapshot snap = env.snapshotMedia();

    // ---- pass A: count device ops, map them to workload ops --------
    // spans[i] = (device ops before op i, after op i), relative to
    // the post-open count so recovery's own ops are never swept.
    struct OpSpan
    {
        std::uint64_t before = 0;
        std::uint64_t after = 0;
    };
    std::vector<OpSpan> spans(workload.size());
    env.restoreMedia(snap);
    NVWAL_RETURN_IF_ERROR(Database::open(env, _config.db, &db));
    const std::uint64_t base = env.nvramDevice.opCount();
    {
        ReplaySession count_session;   // no oracle yet: verify scans only
        std::uint64_t count_events = 0;
        for (std::size_t i = 0; i < workload.size(); ++i) {
            spans[i].before = env.nvramDevice.opCount() - base;
            const bool event = isCommitEventOp(*db, workload.op(i));
            NVWAL_RETURN_IF_ERROR(
                applyOp(*db, count_session, workload.op(i), count_events));
            if (event)
                count_events++;
            spans[i].after = env.nvramDevice.opCount() - base;
        }
    }
    const std::uint64_t total_ops = env.nvramDevice.opCount() - base;
    report->totalOps = total_ops;
    db.reset();

    // ---- pass B: oracle states S_0 .. S_K at commit boundaries -----
    // A separate pass because dumping the database perturbs the page
    // cache (and therefore later device-op counts), but never the
    // logical states themselves.
    std::vector<DbImage> states;
    env.restoreMedia(snap);
    NVWAL_RETURN_IF_ERROR(Database::open(env, _config.db, &db));
    states.push_back(dumpAll(*db));   // S_0: the warm state
    {
        ReplaySession oracle_session;
        oracle_session.oracle = &states;   // verify while building
        for (std::size_t i = 0; i < workload.size(); ++i) {
            const bool event = isCommitEventOp(*db, workload.op(i));
            NVWAL_RETURN_IF_ERROR(applyOp(*db, oracle_session,
                                          workload.op(i),
                                          states.size() - 1));
            if (event)
                states.push_back(dumpAll(*db));
        }
    }
    db.reset();
    report->commitEvents = states.size() - 1;

    // ---- pick the crash points -------------------------------------
    std::vector<std::uint64_t> points;
    std::uint64_t first = 1;
    if (_config.stride > 1)
        first = 1 + Rng(_config.sampleSeed).nextBelow(_config.stride);
    for (std::uint64_t n = first; n <= total_ops; n += _config.stride)
        points.push_back(n);
    if (_config.maxPoints > 0 && points.size() > _config.maxPoints) {
        std::vector<std::uint64_t> sampled;
        sampled.reserve(_config.maxPoints);
        for (std::uint64_t j = 0; j < _config.maxPoints; ++j)
            sampled.push_back(
                points[j * points.size() / _config.maxPoints]);
        points.swap(sampled);
    }
    report->pointsSwept = points.size();

    // Phase labels in workload order, plus an index for attribution.
    std::map<std::string, std::size_t> phase_index;
    for (std::size_t i = 0; i < workload.size(); ++i) {
        const std::string &label = workload.phaseOf(i);
        if (phase_index.emplace(label, report->phases.size()).second)
            report->phases.emplace_back(label, PhaseCoverage{});
    }
    const auto phaseAt = [&](std::uint64_t n) -> PhaseCoverage & {
        // The op whose span contains device op n: spans are
        // contiguous and non-decreasing, so the first op with
        // after >= n is it.
        std::size_t lo = 0, hi = workload.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (spans[mid].after >= n)
                hi = mid;
            else
                lo = mid + 1;
        }
        return report->phases[phase_index[workload.phaseOf(lo)]].second;
    };

    // ---- the sweep -------------------------------------------------
    for (const std::uint64_t n : points) {
        PhaseCoverage &cov = phaseAt(n);
        cov.points++;
        for (const PolicyRun &run : policies) {
            for (const std::uint64_t seed : run.seeds) {
                report->replays++;
                cov.replays++;
                const auto violation = [&](std::string message) {
                    report->violations.push_back(
                        Violation{n, run.policy, seed,
                                  workload.phaseOf(0), // patched below
                                  std::move(message)});
                    // Recompute the phase from the crash point.
                    for (std::size_t i = 0; i < workload.size(); ++i) {
                        if (spans[i].before < n && n <= spans[i].after) {
                            report->violations.back().phase =
                                workload.phaseOf(i);
                            break;
                        }
                    }
                    cov.violations++;
                };

                env.restoreMedia(snap);
                env.nvramDevice.reseed(mixSeed(seed, n));
                NVWAL_RETURN_IF_ERROR(
                    Database::open(env, _config.db, &db));
                env.nvramDevice.setScheduledCrashPolicy(
                    run.policy, run.surviveProb);
                env.nvramDevice.scheduleCrashAtOp(n);

                std::uint64_t done_events = 0;
                bool in_commit_event = false;
                bool crashed = false;
                Status replay = Status::ok();
                ReplaySession session;
                session.oracle = &states;
                try {
                    for (std::size_t i = 0; i < workload.size(); ++i) {
                        in_commit_event =
                            isCommitEventOp(*db, workload.op(i));
                        replay = applyOp(*db, session, workload.op(i),
                                         done_events);
                        if (!replay.isOk())
                            break;
                        if (in_commit_event) {
                            done_events++;
                            in_commit_event = false;
                        }
                    }
                } catch (const PowerFailure &) {
                    crashed = true;
                }
                env.nvramDevice.scheduleCrashAtOp(0);
                // The Connections reference the crashed Database;
                // destroy them (their pins, workspaces, and snapshots
                // die with them) before the Database they point at.
                session.conn.reset();
                session.conns.clear();
                if (!crashed && !replay.isOk())
                    return replay;   // workload must be infallible
                if (!crashed) {
                    // Every point is <= total_ops, so the failure
                    // must fire; a silent completion means the
                    // replay diverged from the counting pass.
                    violation("scheduled crash never fired "
                              "(replay diverged)");
                    db.reset();
                    continue;
                }
                report->crashes++;
                cov.crashes++;

                // The durable floor at the instant of the crash: the
                // commit events minus the acks still awaiting their
                // epoch's barrier. Reading it touches only volatile
                // leaf state, never the (dead) media. Under pure
                // ChecksumAsync even "sync" commits are probabilistic,
                // so the floor degenerates to 0 there.
                // Pre-crash oracle for the forensics cross-check:
                // the newest epoch whose barrier had completed. The
                // epoch sequencer is per-incarnation, so this is only
                // comparable when the recovered report's slice is.
                const std::uint64_t hardened_epoch_before =
                    db->hardenedEpoch();
                const std::uint64_t pending_acks = db->asyncAcksPending();
                std::uint64_t floor_events = 0;
                if (!cs_mode)
                    floor_events = done_events > pending_acks
                                       ? done_events - pending_acks
                                       : 0;
                if (pending_acks > 0)
                    report->asyncReplays++;

                const std::uint64_t torn0 =
                    env.stats.get(stats::kWalTornFramesDetected);
                const std::uint64_t disc0 =
                    env.stats.get(stats::kWalRecoveryFramesDiscarded);
                const std::uint64_t lost0 =
                    env.stats.get(stats::kWalRecoveryLostMarks);

                const Status recovered =
                    Database::recoverAfterCrash(env, _config.db, &db);
                if (!recovered.isOk()) {
                    violation("recovery failed: " + recovered.toString());
                    continue;
                }
                report->tornFramesDetected +=
                    env.stats.get(stats::kWalTornFramesDetected) - torn0;
                report->framesDiscarded +=
                    env.stats.get(stats::kWalRecoveryFramesDiscarded) -
                    disc0;
                report->lostMarks +=
                    env.stats.get(stats::kWalRecoveryLostMarks) - lost0;

                // Forensics: at EVERY crash point the post-mortem must
                // be parseable and consistent with the recovered WAL
                // and the pre-crash shadow state. Durable-claim
                // cross-checks live in buildRecoveryReport (any entry
                // in inconsistencies is a recovery bug); the epoch
                // ceiling is checked against the pre-crash oracle.
                const RecoveryReport &forensics = db->recoveryReport();
                if (forensics.recorderEnabled) {
                    report->forensicsChecked++;
                    report->frRecordsSurvived +=
                        forensics.recording.validRecords;
                    report->frTornSlotsDiscarded +=
                        forensics.recording.tornSlots;
                    if (!forensics.parsed) {
                        violation("forensics: surviving ring failed "
                                  "to parse");
                    } else {
                        for (const std::string &msg :
                             forensics.inconsistencies)
                            violation("forensics inconsistency: " + msg);
                        if (forensics.incarnationKnown &&
                            forensics.lastDurableEpoch >
                                hardened_epoch_before)
                            violation(
                                "forensics: last durable epoch " +
                                std::to_string(
                                    forensics.lastDurableEpoch) +
                                " exceeds the pre-crash hardened "
                                "epoch " +
                                std::to_string(hardened_epoch_before));
                    }
                }

                std::uint64_t matched_state = done_events;
                std::string message = checkInvariants(
                    env, *db, states, done_events, in_commit_event,
                    prefix_semantics, floor_events, &matched_state);
                if (message.empty() && matched_state < done_events)
                    report->maxLossEvents =
                        std::max(report->maxLossEvents,
                                 done_events - matched_state);
                if (message.empty() &&
                    _config.probeInsertAfterRecovery) {
                    const Status probe = db->insert(
                        static_cast<RowId>(0x4000000000000000LL +
                                           static_cast<RowId>(n)),
                        "post-crash probe");
                    if (!probe.isOk())
                        message = "recovered database rejected a new "
                                  "write: " + probe.toString();
                }
                if (!message.empty())
                    violation(std::move(message));
                db.reset();
            }
        }
    }
    return Status::ok();
}

} // namespace nvwal::faultsim
