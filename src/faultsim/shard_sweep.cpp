#include "shard_sweep.hpp"

#include <algorithm>
#include <map>

namespace nvwal::faultsim
{
namespace
{

/** The shadow-model state: the merged logical content of the store. */
using ShadowImage = std::map<RowId, ByteBuffer>;

/** Apply one atomic batch to the shadow model (all-or-nothing by
 *  construction: the map mutates only on scripted, infallible ops). */
void
applyToShadow(ShadowImage *state, const ShardTxnStep &step)
{
    for (const ShardedConnection::Op &op : step.ops) {
        switch (op.kind) {
          case ShardedConnection::Op::Kind::Insert:
          case ShardedConnection::Op::Kind::Update:
            (*state)[op.key] = op.value;
            break;
          case ShardedConnection::Op::Kind::Remove:
            state->erase(op.key);
            break;
        }
    }
}

/** Run one step through the live engine. */
Status
applyStep(ShardedDatabase &db, ShardedConnection &conn,
          const ShardTxnStep &step)
{
    if (step.checkpoint)
        return db.checkpointAll();
    return conn.runAtomic(step.ops);
}

/**
 * Post-recovery invariants over the whole shard set; empty string
 * when all hold, else the first violation's description.
 */
std::string
checkShardInvariants(Env &env, ShardedDatabase &db,
                     const std::vector<ShadowImage> &states,
                     std::uint64_t done_events, bool in_commit_event)
{
    const Status integrity = db.verifyIntegrity();
    if (!integrity.isOk())
        return "integrity check failed: " + integrity.toString();

    // Merge every shard's default table, checking routing while at
    // it: a key on the wrong shard would be unreachable through the
    // router even though a whole-store dump still sees it.
    ShadowImage content;
    for (std::uint32_t k = 0; k < db.shardCount(); ++k) {
        std::string misrouted;
        const Status s = db.shard(k).scan(
            INT64_MIN, INT64_MAX, [&](RowId key, ConstByteSpan value) {
                if (db.shardOf(key) != k) {
                    misrouted = "key " + std::to_string(key) +
                                " found on shard " + std::to_string(k) +
                                ", routed to shard " +
                                std::to_string(db.shardOf(key));
                    return false;
                }
                content[key] = ByteBuffer(value.begin(), value.end());
                return true;
            });
        if (!misrouted.empty())
            return misrouted;
        if (!s.isOk())
            return "shard " + std::to_string(k) +
                   " scan failed: " + s.toString();
    }

    // Cross-shard atomicity + durability: exactly the committed
    // pre-crash state, or -- iff the crash hit the interrupted
    // batch's commit machinery -- the state after it. A 2PC victim
    // applied on a strict subset of its participants matches
    // neither bound and fails here.
    const std::uint64_t upper = done_events + (in_commit_event ? 1 : 0);
    const bool match = content == states[done_events] ||
                       (in_commit_event && content == states[upper]);
    if (!match)
        return "recovered store is neither S_" +
               std::to_string(done_events) +
               (in_commit_event ? " nor S_" + std::to_string(upper)
                                : std::string()) +
               " (lost, torn, or partially applied transaction)";

    const std::uint64_t pending = env.heap.countBlocks(BlockState::Pending);
    if (pending != 0)
        return std::to_string(pending) +
               " pending heap block(s) leaked by recovery";

    // All shards allocate from the one heap: the union of blocks
    // their logs reach must account for every in-use block.
    std::uint64_t reachable = 0;
    for (std::uint32_t k = 0; k < db.shardCount(); ++k) {
        auto *log = dynamic_cast<NvwalLog *>(&db.shard(k).wal());
        NVWAL_ASSERT(log != nullptr);
        if (log->nodesSinceCheckpoint() != log->nodeCount())
            return "shard " + std::to_string(k) +
                   " node accounting skew: nodesSinceCheckpoint=" +
                   std::to_string(log->nodesSinceCheckpoint()) +
                   " nodeCount=" + std::to_string(log->nodeCount());
        reachable += log->reachableNvramBlocks();
        reachable += recorderBlocks(
            env.heap, db.shard(k).config().nvwal.heapNamespace);
    }
    const std::uint64_t in_use = env.heap.countBlocks(BlockState::InUse);
    if (reachable != in_use)
        return "NVRAM block leak: " + std::to_string(in_use) +
               " in use, " + std::to_string(reachable) +
               " reachable from the shard logs or flight recorders";
    return std::string();
}

} // namespace

std::string
ShardSweepReport::summary() const
{
    std::string out;
    out += "swept " + std::to_string(pointsSwept) + "/" +
           std::to_string(totalOps) + " device ops, " +
           std::to_string(replays) + " replays, " +
           std::to_string(crashes) + " crashes, " +
           std::to_string(indoubtResolved) + " in-doubt resolved, " +
           std::to_string(violations.size()) + " violations\n";
    out += "  forensics: " + std::to_string(forensicsChecked) +
           " shard reports checked, " +
           std::to_string(frRecordsSurvived) + " ring records survived, " +
           std::to_string(frTornSlotsDiscarded) +
           " torn slot(s) discarded, " +
           std::to_string(forensicsGtidChecks) +
           " in-doubt outcome(s) cross-checked\n";
    for (const Violation &v : violations) {
        out += "  VIOLATION op " + std::to_string(v.opIndex) + " [" +
               failurePolicyName(v.policy) + " seed " +
               std::to_string(v.seed) + ", " + v.phase + "]: " +
               v.message + "\n";
    }
    return out;
}

Status
ShardCrashSweep::run(ShardSweepReport *report)
{
    *report = ShardSweepReport{};
    const std::vector<ShardTxnStep> &workload = _config.workload;
    if (workload.empty())
        return Status::invalidArgument("empty shard-sweep workload");

    std::vector<PolicyRun> policies = _config.policies;
    if (policies.empty()) {
        policies.push_back(PolicyRun{FailurePolicy::Pessimistic, {0}, 0.5});
        policies.push_back(
            PolicyRun{FailurePolicy::Adversarial, {1, 2, 3, 4}, 0.5});
    }
    if (_config.shard.dbTemplate.nvwal.syncMode ==
        SyncMode::ChecksumAsync) {
        // PREPARE/DECISION records harden eagerly under every sync
        // mode, so cross-shard (2PC) steps keep strict semantics even
        // with checksum commits. Single-shard steps bypass 2PC and
        // commit probabilistically under ChecksumAsync -- an outcome
        // this oracle's strict prefix check cannot express -- so only
        // those are rejected.
        const auto singleShard = [&](const ShardTxnStep &step) {
            if (step.checkpoint || step.ops.empty())
                return false;
            const std::uint32_t first =
                routeKey(_config.shard.routing, step.ops[0].key,
                         _config.shard.shardCount);
            for (const ShardedConnection::Op &op : step.ops)
                if (routeKey(_config.shard.routing, op.key,
                             _config.shard.shardCount) != first)
                    return false;
            return true;
        };
        for (const ShardTxnStep &step : workload)
            if (singleShard(step))
                return Status::invalidArgument(
                    "shard sweep under ChecksumAsync: step \"" +
                    step.label +
                    "\" routes to a single shard and would commit "
                    "probabilistically (no 2PC decision record); the "
                    "strict shard oracle cannot express that loss");
    }

    // ---- warm-up (runs once; the snapshot replaces re-runs) --------
    Env env(_config.env);
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_RETURN_IF_ERROR(ShardedDatabase::open(env, _config.shard, &db));
    {
        std::unique_ptr<ShardedConnection> conn;
        NVWAL_RETURN_IF_ERROR(db->connect(&conn));
        for (const ShardTxnStep &step : _config.warmup)
            NVWAL_RETURN_IF_ERROR(applyStep(*db, *conn, step));
    }
    if (_config.checkpointAfterWarmup)
        NVWAL_RETURN_IF_ERROR(db->checkpointAll());
    db.reset();
    const Env::MediaSnapshot snap = env.snapshotMedia();

    // ---- the oracle: pure shadow states S_0 .. S_K -----------------
    // S_0 is the warm state; every non-checkpoint step commits one
    // event. Computed entirely in plain code -- no database is ever
    // read to build it.
    std::vector<ShadowImage> states;
    {
        ShadowImage state;
        for (const ShardTxnStep &step : _config.warmup)
            applyToShadow(&state, step);
        states.push_back(state);   // S_0
        for (const ShardTxnStep &step : workload) {
            if (step.checkpoint)
                continue;
            applyToShadow(&state, step);
            states.push_back(state);
        }
    }
    report->commitEvents = states.size() - 1;

    // ---- pass A: count device ops, map them to steps ---------------
    struct StepSpan
    {
        std::uint64_t before = 0;
        std::uint64_t after = 0;
    };
    std::vector<StepSpan> spans(workload.size());
    env.restoreMedia(snap);
    NVWAL_RETURN_IF_ERROR(ShardedDatabase::open(env, _config.shard, &db));
    const std::uint64_t base = env.nvramDevice.opCount();
    {
        std::unique_ptr<ShardedConnection> conn;
        NVWAL_RETURN_IF_ERROR(db->connect(&conn));
        for (std::size_t i = 0; i < workload.size(); ++i) {
            spans[i].before = env.nvramDevice.opCount() - base;
            NVWAL_RETURN_IF_ERROR(applyStep(*db, *conn, workload[i]));
            spans[i].after = env.nvramDevice.opCount() - base;
        }
    }
    const std::uint64_t total_ops = env.nvramDevice.opCount() - base;
    report->totalOps = total_ops;
    db.reset();

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
            sampled.push_back(points[j * points.size() / _config.maxPoints]);
        points.swap(sampled);
    }
    report->pointsSwept = points.size();

    const auto labelAt = [&](std::uint64_t n) -> const std::string & {
        std::size_t lo = 0, hi = workload.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (spans[mid].after >= n)
                hi = mid;
            else
                lo = mid + 1;
        }
        return workload[lo].label;
    };

    // ---- the sweep -------------------------------------------------
    for (const std::uint64_t n : points) {
        for (const PolicyRun &run : policies) {
            for (const std::uint64_t seed : run.seeds) {
                report->replays++;
                const auto violation = [&](std::string message) {
                    report->violations.push_back(Violation{
                        n, run.policy, seed, labelAt(n),
                        std::move(message)});
                };

                env.restoreMedia(snap);
                env.nvramDevice.reseed(mixSeed(seed, n));
                NVWAL_RETURN_IF_ERROR(
                    ShardedDatabase::open(env, _config.shard, &db));
                env.nvramDevice.setScheduledCrashPolicy(
                    run.policy, run.surviveProb);
                env.nvramDevice.scheduleCrashAtOp(n);

                std::uint64_t done_events = 0;
                bool in_commit_event = false;
                bool crashed = false;
                Status replay = Status::ok();
                std::unique_ptr<ShardedConnection> conn;
                try {
                    replay = db->connect(&conn);
                    for (std::size_t i = 0;
                         replay.isOk() && i < workload.size(); ++i) {
                        in_commit_event = !workload[i].checkpoint;
                        replay = applyStep(*db, *conn, workload[i]);
                        if (replay.isOk() && in_commit_event) {
                            done_events++;
                            in_commit_event = false;
                        }
                    }
                } catch (const PowerFailure &) {
                    crashed = true;
                }
                env.nvramDevice.scheduleCrashAtOp(0);
                // Connections reference the crashed engines; they
                // must die first.
                conn.reset();
                if (!crashed && !replay.isOk())
                    return replay;   // workload must be infallible
                if (!crashed) {
                    violation("scheduled crash never fired "
                              "(replay diverged)");
                    db.reset();
                    continue;
                }
                report->crashes++;

                // Epoch ceiling per shard, read from the crashed
                // handles BEFORE recovery resets them: no surviving
                // ring record may claim a durable epoch beyond what
                // its shard had actually hardened.
                std::vector<std::uint64_t> hardened_before;
                for (std::uint32_t k = 0; k < db->shardCount(); ++k)
                    hardened_before.push_back(db->shard(k).hardenedEpoch());

                const Status recovered = ShardedDatabase::recoverAfterCrash(
                    env, _config.shard, &db);
                if (!recovered.isOk()) {
                    violation("recovery failed: " + recovered.toString());
                    continue;
                }
                report->indoubtResolved += db->resolutions().size();

                // ---- flight-recorder forensics audit -------------
                // Every swept crash point must yield a parseable,
                // internally consistent post-mortem on every shard.
                for (std::uint32_t k = 0; k < db->shardCount(); ++k) {
                    const RecoveryReport &fr = db->shardRecoveryReport(k);
                    if (!fr.recorderEnabled)
                        continue;
                    report->forensicsChecked++;
                    if (!fr.parsed) {
                        violation("shard " + std::to_string(k) +
                                  " flight-recorder ring failed to "
                                  "parse after crash");
                        continue;
                    }
                    report->frRecordsSurvived += fr.recording.validRecords;
                    report->frTornSlotsDiscarded += fr.recording.tornSlots;
                    for (const std::string &problem : fr.inconsistencies)
                        violation("shard " + std::to_string(k) +
                                  " forensics inconsistency: " + problem);
                    if (fr.incarnationKnown &&
                        fr.lastDurableEpoch > hardened_before[k])
                        violation(
                            "shard " + std::to_string(k) +
                            " forensics claims durable epoch " +
                            std::to_string(fr.lastDurableEpoch) +
                            " but only " +
                            std::to_string(hardened_before[k]) +
                            " was hardened before the crash");
                }
                // Cross-check recovery's in-doubt outcomes against
                // the merged gtid timeline: a surviving commit
                // decision record (a durable claim) forces commit;
                // abort-only decisions forbid it.
                const std::vector<GtidTimeline> timeline =
                    db->forensicsTimeline();
                for (const InDoubtResolution &res : db->resolutions()) {
                    const auto it = std::find_if(
                        timeline.begin(), timeline.end(),
                        [&](const GtidTimeline &t) {
                            return t.gtid == res.gtid;
                        });
                    if (it == timeline.end())
                        continue;
                    report->forensicsGtidChecks++;
                    if (!it->committedShards.empty() && !res.committed)
                        violation(
                            "gtid " + std::to_string(res.gtid) +
                            ": ring shows a durable commit decision "
                            "but recovery aborted it");
                    if (it->committedShards.empty() &&
                        !it->abortedShards.empty() && res.committed)
                        violation(
                            "gtid " + std::to_string(res.gtid) +
                            ": ring shows only abort decisions but "
                            "recovery committed it");
                }

                std::string message = checkShardInvariants(
                    env, *db, states, done_events, in_commit_event);
                if (message.empty() && _config.probeInsertAfterRecovery) {
                    std::unique_ptr<ShardedConnection> probe_conn;
                    Status probe = db->connect(&probe_conn);
                    if (probe.isOk())
                        probe = probe_conn->insert(
                            static_cast<RowId>(0x4000000000000000LL +
                                               static_cast<RowId>(n)),
                            std::string("post-crash probe"));
                    probe_conn.reset();
                    if (!probe.isOk())
                        message = "recovered store rejected a new "
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
