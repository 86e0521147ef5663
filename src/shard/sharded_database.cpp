#include "sharded_database.hpp"

#include <algorithm>
#include <cstdio>

#include "shard/sharded_connection.hpp"

namespace nvwal
{

namespace
{

std::string
shardSuffix(std::uint32_t k)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "-s%02u", k);
    return std::string(buf);
}

} // namespace

ShardedDatabase::ShardedDatabase(Env &env, ShardConfig config)
    : _env(env), _config(std::move(config))
{}

std::string
ShardedDatabase::shardDbName(const ShardConfig &config, std::uint32_t k)
{
    return config.baseName + shardSuffix(k) + ".db";
}

std::string
ShardedDatabase::shardHeapNamespace(std::uint32_t k)
{
    return "nvwal" + shardSuffix(k);
}

Status
ShardedDatabase::validateConfig(const ShardConfig &config)
{
    if (config.baseName.empty())
        return Status::invalidArgument(
            "shard base name must not be empty");
    if (config.shardCount < 1 || config.shardCount > kMaxShards)
        return Status::invalidArgument(
            "shard count must be in [1, " +
            std::to_string(kMaxShards) +
            "]: " + std::to_string(config.shardCount));
    if (config.dbTemplate.walMode != WalMode::Nvwal)
        return Status::invalidArgument(
            "sharded stores require WalMode::Nvwal (2PC records live "
            "in the NVRAM log)");
    if (config.dbTemplate.name != DbConfig().name)
        return Status::invalidArgument(
            "dbTemplate.name is derived per shard; leave it default");
    if (config.dbTemplate.nvwal.heapNamespace !=
        NvwalConfig().heapNamespace)
        return Status::invalidArgument(
            "dbTemplate heap namespace is derived per shard; leave it "
            "default");
    // Validate one fully derived member config so page-size or
    // checkpoint mistakes surface here, not mid-open of shard 0.
    DbConfig probe = config.dbTemplate;
    probe.name = shardDbName(config, 0);
    probe.nvwal.heapNamespace = shardHeapNamespace(0);
    probe.shard = 0;
    return validateDbConfig(probe);
}

Status
ShardedDatabase::open(Env &env, ShardConfig config,
                      std::unique_ptr<ShardedDatabase> *out)
{
    NVWAL_RETURN_IF_ERROR(validateConfig(config));
    std::unique_ptr<ShardedDatabase> db(
        new ShardedDatabase(env, std::move(config)));

    for (std::uint32_t k = 0; k < db->_config.shardCount; ++k) {
        DbConfig member = db->_config.dbTemplate;
        member.name = shardDbName(db->_config, k);
        member.nvwal.heapNamespace = shardHeapNamespace(k);
        member.shard = k;
        std::unique_ptr<Database> shard;
        NVWAL_RETURN_IF_ERROR(Database::open(env, member, &shard));
        db->_shards.push_back(std::move(shard));
    }

    NVWAL_RETURN_IF_ERROR(db->resolveInDoubt());

    // Gtids must never repeat across reopen: any gtid a surviving
    // PREPARE or DECISION record carries is burned.
    std::uint64_t max_seen = 0;
    for (auto &shard : db->_shards)
        max_seen = std::max(max_seen, shard->walMaxSeenGtid());
    db->_nextGtid.store(max_seen + 1, std::memory_order_relaxed);

    env.stats.setGauge(stats::kGaugeShardCount, db->_config.shardCount);
    *out = std::move(db);
    return Status::ok();
}

Status
ShardedDatabase::recoverAfterCrash(Env &env, ShardConfig config,
                                   std::unique_ptr<ShardedDatabase> *out)
{
    out->reset();
    env.fs.crash();
    NVWAL_RETURN_IF_ERROR(env.heap.attach());
    return open(env, std::move(config), out);
}

Status
ShardedDatabase::resolveInDoubt()
{
    // A shard is in doubt about gtid G when its PREPARE survived but
    // no local decision did. The coordinator persisted the decision
    // in every participant in turn while holding truncation guards,
    // so if ANY shard has a decision record for G, that is the
    // outcome; otherwise the coordinator cannot have committed
    // anywhere and presumed abort is safe.
    for (std::uint32_t k = 0; k < _config.shardCount; ++k) {
        for (std::uint64_t gtid : _shards[k]->inDoubtTransactions()) {
            InDoubtResolution res;
            res.gtid = gtid;
            res.shard = k;
            for (std::uint32_t other = 0; other < _config.shardCount;
                 ++other) {
                if (other == k)
                    continue;
                bool commit = false;
                if (_shards[other]->lookupDecision(gtid, &commit)) {
                    res.committed = commit;
                    res.decidedByShard = static_cast<std::int32_t>(other);
                    break;
                }
            }
            NVWAL_RETURN_IF_ERROR(
                _shards[k]->resolvePreparedTxn(gtid, res.committed));
            _env.stats.add(res.committed ? stats::kShardIndoubtCommitted
                                         : stats::kShardIndoubtAborted);
            _resolutions.push_back(res);
        }
    }
    return Status::ok();
}

std::vector<GtidTimeline>
ShardedDatabase::forensicsTimeline() const
{
    std::vector<const FlightRecording *> rings;
    for (const auto &shard : _shards) {
        const RecoveryReport &report = shard->recoveryReport();
        if (report.recorderEnabled && report.parsed)
            rings.push_back(&report.recording);
    }
    return buildCrossShardTimeline(rings);
}

Status
ShardedDatabase::connect(std::unique_ptr<ShardedConnection> *out)
{
    std::unique_ptr<ShardedConnection> conn(new ShardedConnection(*this));
    // Single-shard statements on a ShardedConnection run as their own
    // transaction on the owning shard; cross-shard batches open
    // explicit transactions themselves.
    ConnectOptions options;
    options.autoWriteTxn = true;
    for (auto &shard : _shards) {
        std::unique_ptr<Connection> c;
        NVWAL_RETURN_IF_ERROR(shard->connect(options, &c));
        conn->_conns.push_back(std::move(c));
    }
    *out = std::move(conn);
    return Status::ok();
}

Status
ShardedDatabase::checkpointAll()
{
    for (auto &shard : _shards)
        NVWAL_RETURN_IF_ERROR(shard->checkpoint());
    return Status::ok();
}

Status
ShardedDatabase::verifyIntegrity()
{
    for (auto &shard : _shards)
        NVWAL_RETURN_IF_ERROR(shard->verifyIntegrity());
    return Status::ok();
}

} // namespace nvwal
