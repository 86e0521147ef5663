/**
 * @file
 * ShardedDatabase: N fully independent Database instances behind one
 * facade, with cross-shard atomic transactions via two-phase commit
 * (DESIGN.md §10).
 *
 * Each shard is a complete engine -- its own .db file, NVWAL, group
 * commit queue and (optionally) background checkpointer -- sharing
 * one simulated platform (Env). Per-shard NVWAL header roots are
 * published under distinct NvHeap namespaces ("nvwal-s00", ...), so
 * all logs coexist in the one NVRAM heap and every shard recovers
 * independently.
 *
 * Single-shard transactions run exactly as before on the owning
 * shard. Multi-shard transactions commit with 2PC: a PREPARE record
 * persisted in every participant's log under a shared global
 * transaction id (gtid), then a COMMIT decision record in each.
 * Recovery resolves transactions left in doubt by a crash between
 * the phases by scanning the other shards' logs for a surviving
 * decision record; when none exists anywhere the transaction aborts
 * (presumed abort -- the coordinator cannot have reported it
 * committed, because it only does so after every decision record is
 * durable... and it writes the first decision record only after all
 * PREPAREs are durable).
 */

#ifndef NVWAL_SHARD_SHARDED_DATABASE_HPP
#define NVWAL_SHARD_SHARDED_DATABASE_HPP

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "db/connection.hpp"
#include "db/database.hpp"
#include "shard/partitioner.hpp"

namespace nvwal
{

/** Configuration of a sharded store. */
struct ShardConfig
{
    /**
     * Base name; shard k lives in files "<baseName>-s<k>.db" etc.
     * and NvHeap namespace "nvwal-s<k>".
     */
    std::string baseName = "app";

    std::uint32_t shardCount = 4;

    RoutingKind routing = RoutingKind::Hash;

    /**
     * Per-shard engine configuration. name and nvwal.heapNamespace
     * are derived per shard and must be left at their defaults;
     * walMode must be Nvwal (2PC needs the NVRAM log). shard is
     * set automatically.
     */
    DbConfig dbTemplate;
};

/** What open() did about one transaction recovery left in doubt. */
struct InDoubtResolution
{
    std::uint64_t gtid = 0;
    std::uint32_t shard = 0;     //!< the shard that was in doubt
    bool committed = false;      //!< outcome applied
    /** Shard whose decision record settled it; -1 = presumed abort. */
    std::int32_t decidedByShard = -1;
};

class ShardedConnection;

/** The sharded multi-database engine. */
class ShardedDatabase
{
  public:
    /** Ceiling on shardCount (the heap directory has 64 root slots,
     *  and one is left for a standalone "nvwal" namespace). */
    static constexpr std::uint32_t kMaxShards = 32;

    /**
     * Validate @p config, open every shard, resolve in-doubt 2PC
     * transactions across the shard set, and seed the gtid counter
     * past everything the logs have seen.
     */
    static Status open(Env &env, ShardConfig config,
                       std::unique_ptr<ShardedDatabase> *out);

    /**
     * Rebuild the whole shard set from the media image after a power
     * failure (see Database::recoverAfterCrash): resets @p out, drops
     * file-system volatile state, re-attaches the heap, then runs
     * open() -- including cross-shard in-doubt resolution.
     */
    static Status recoverAfterCrash(Env &env, ShardConfig config,
                                    std::unique_ptr<ShardedDatabase> *out);

    /** Descriptive validation (satellite of Database::open's). */
    static Status validateConfig(const ShardConfig &config);

    /** Engine name of shard @p k, e.g. "app-s02.db". */
    static std::string shardDbName(const ShardConfig &config,
                                   std::uint32_t k);

    /** NvHeap namespace shard @p k's NVWAL publishes its header
     *  under, e.g. "nvwal-s02" (the media-inspection tools use this
     *  to walk one shard's log). */
    static std::string shardHeapNamespace(std::uint32_t k);

    ~ShardedDatabase() = default;
    ShardedDatabase(const ShardedDatabase &) = delete;
    ShardedDatabase &operator=(const ShardedDatabase &) = delete;

    /** One routed connection over all shards. */
    Status connect(std::unique_ptr<ShardedConnection> *out);

    // ---- routing ----------------------------------------------------

    std::uint32_t shardCount() const { return _config.shardCount; }

    std::uint32_t
    shardOf(RowId key) const
    {
        return routeKey(_config.routing, key, _config.shardCount);
    }

    Database &shard(std::uint32_t k) { return *_shards[k]; }

    /** Next global transaction id (monotonic across reopen). */
    std::uint64_t nextGtid()
    { return _nextGtid.fetch_add(1, std::memory_order_relaxed); }

    /** What open() decided about recovered in-doubt transactions. */
    const std::vector<InDoubtResolution> &resolutions() const
    { return _resolutions; }

    // ---- crash forensics (DESIGN.md §12) ----------------------------

    /** Shard @p k's post-mortem (see Database::recoveryReport()). */
    const RecoveryReport &shardRecoveryReport(std::uint32_t k) const
    { return _shards[k]->recoveryReport(); }

    /**
     * Merged cross-shard 2PC timeline keyed by gtid, built from every
     * shard's surviving flight-recorder ring: which shards' PREPAREs
     * and which decisions survived the crash. Empty when the
     * recorders are off.
     */
    std::vector<GtidTimeline> forensicsTimeline() const;

    // ---- maintenance ------------------------------------------------

    /** Checkpoint every shard (write-back + log truncation). */
    Status checkpointAll();

    /** Structural validation of every shard. */
    Status verifyIntegrity();

    const ShardConfig &config() const { return _config; }

  private:
    explicit ShardedDatabase(Env &env, ShardConfig config);

    /** Cross-shard in-doubt resolution (presumed abort). */
    Status resolveInDoubt();

    Env &_env;
    ShardConfig _config;
    std::vector<std::unique_ptr<Database>> _shards;
    std::atomic<std::uint64_t> _nextGtid{1};
    std::vector<InDoubtResolution> _resolutions;
};

} // namespace nvwal

#endif // NVWAL_SHARD_SHARDED_DATABASE_HPP
