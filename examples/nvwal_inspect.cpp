/**
 * @file
 * Forensics demo: build a database with several tables and large
 * values, pull the plug mid-commit, and inspect what is physically
 * on the NVRAM media before and after recovery -- committed frames,
 * the uncommitted/torn tail of the in-flight transaction, heap block
 * states, the decoded B-tree pages, and the platform counters in
 * their stable documented order.
 *
 * `--metrics <path>` additionally dumps the full metrics registry
 * (counters + gauges + latency histograms) as JSON; `--trace <path>`
 * enables the transaction-phase tracer for the whole run and writes
 * a Chrome trace_event file loadable in about:tracing / Perfetto.
 *
 * `--forensics` prints the flight-recorder post-mortem recovery
 * built from the ring that survived the crash (DESIGN.md section
 * 12): last durable epoch, possibly in-flight transactions, torn
 * ring slots, checkpoint lag. `--forensics-json <path>` writes the
 * same post-mortem as one JSON document.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "db/inspect.hpp"

using namespace nvwal;

int
main(int argc, char **argv)
{
    std::string metrics_path;
    std::string trace_path;
    std::string forensics_json_path;
    bool forensics = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--forensics") == 0) {
            forensics = true;
        } else if (std::strcmp(argv[i], "--forensics-json") == 0 &&
                   i + 1 < argc) {
            forensics_json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--metrics <path>] [--trace <path>] "
                         "[--forensics] [--forensics-json <path>]\n",
                         argv[0]);
            return 2;
        }
    }

    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    if (!trace_path.empty())
        env.stats.tracer().setEnabled(true);

    DbConfig config;
    config.name = "inspected.db";
    config.walMode = WalMode::Nvwal;

    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->createTable("blobs"));
    Table *blobs;
    NVWAL_CHECK_OK(db->openTable("blobs", &blobs));

    for (RowId k = 1; k <= 40; ++k) {
        ByteBuffer v(120, static_cast<std::uint8_t>(k));
        NVWAL_CHECK_OK(db->insert(k, ConstByteSpan(v.data(), v.size())));
    }
    ByteBuffer big(20000, 0xBB);
    NVWAL_CHECK_OK(blobs->insert(1, ConstByteSpan(big.data(), big.size())));

    std::printf("==== healthy database ====\n");
    DatabaseReport db_report;
    NVWAL_CHECK_OK(collectDatabaseReport(*db, &db_report));
    printDatabaseReport(db_report);

    std::printf("\n==== decoded pages ====\n");
    NVWAL_CHECK_OK(printPage(db->pager(), db->pager().rootPage()));
    Table *main_table;
    NVWAL_CHECK_OK(db->openTable("main", &main_table));
    NVWAL_CHECK_OK(printPage(db->pager(), main_table->btree().rootPage()));

    // Kill the power while a transaction is mid-commit.
    std::printf("\n==== pulling the plug mid-commit ====\n");
    env.nvramDevice.setScheduledCrashPolicy(FailurePolicy::Adversarial, 0.5);
    env.nvramDevice.scheduleCrashAtOp(10);
    try {
        NVWAL_CHECK_OK(db->begin());
        for (RowId k = 100; k < 110; ++k) {
            ByteBuffer v(120, 0xCC);
            NVWAL_CHECK_OK(
                db->insert(k, ConstByteSpan(v.data(), v.size())));
        }
        NVWAL_CHECK_OK(db->commit());
    } catch (const PowerFailure &) {
        std::printf("power failure!\n");
        env.fs.crash();
    }
    env.nvramDevice.scheduleCrashAtOp(0);
    db.reset();

    std::printf("\n==== raw NVRAM media after the crash ====\n");
    NvwalMediaReport media;
    NVWAL_CHECK_OK(collectNvwalMediaReport(env, config.pageSize, &media));
    printNvwalMediaReport(media);

    std::printf("\n==== after recovery ====\n");
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->verifyIntegrity());
    NVWAL_CHECK_OK(collectNvwalMediaReport(env, config.pageSize, &media));
    printNvwalMediaReport(media);
    NVWAL_CHECK_OK(collectDatabaseReport(*db, &db_report));
    printDatabaseReport(db_report);
    if (forensics) {
        std::printf("\n==== crash forensics (flight recorder) ====\n");
        printRecoveryReport(db->recoveryReport(), stdout);
    }

    std::printf("\n==== platform counters (stable order) ====\n");
    printCounters(env.stats);
    std::printf("\n==== latency histograms ====\n");
    printHistograms(env.stats);

    if (!metrics_path.empty()) {
        const std::string doc = metricsJson(env.stats);
        std::FILE *f = std::fopen(metrics_path.c_str(), "wb");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n",
                         metrics_path.c_str());
            return 1;
        }
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
        std::printf("\nwrote metrics JSON to %s\n", metrics_path.c_str());
    }
    if (!forensics_json_path.empty()) {
        const std::string forensics_doc =
            recoveryReportJson(db->recoveryReport());
        std::FILE *f = std::fopen(forensics_json_path.c_str(), "wb");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n",
                         forensics_json_path.c_str());
            return 1;
        }
        std::fwrite(forensics_doc.data(), 1, forensics_doc.size(), f);
        std::fclose(f);
        std::printf("wrote forensics JSON to %s\n",
                    forensics_json_path.c_str());
    }
    if (!trace_path.empty()) {
        NVWAL_CHECK_OK(writeChromeTrace(env.stats.tracer(), trace_path));
        std::printf("wrote Chrome trace (%llu events) to %s\n",
                    static_cast<unsigned long long>(
                        env.stats.tracer().size()),
                    trace_path.c_str());
    }
    return 0;
}
