/**
 * @file
 * Regenerates **Table 2** of the paper: the average number of bytes
 * written to NVRAM per transaction for insert / update / delete
 * workloads, with legacy full-page logging vs byte-granularity
 * differential logging, as operations per transaction grow 1-32.
 *
 * Paper anchors: differential logging eliminates 73-84% of the I/O
 * for inserts, 29-85% for updates and 49-69% for deletes; inserts
 * benefit most because SQLite appends new cells to the edge of the
 * used region, while update/delete compact the page and touch a
 * large portion of it (section 5.2).
 */

#include <cstdio>

#include "bench_util.hpp"

using namespace nvwal;
using namespace nvwal::bench;

int
main()
{
    const int kOpCounts[] = {1, 2, 4, 8, 16, 32};
    const int kTxns = 300;

    TablePrinter table2("Table 2: average bytes written to NVRAM per "
                        "transaction (Tuna @ 500ns)");
    table2.setHeader({"ops/txn", "Insert", "Insert(Diff)", "saved",
                      "Update", "Update(Diff)", "saved", "Delete",
                      "Delete(Diff)", "saved"});

    for (int ops : kOpCounts) {
        std::vector<std::string> row{
            TablePrinter::num(std::uint64_t(ops))};
        for (OpKind op :
             {OpKind::Insert, OpKind::Update, OpKind::Delete}) {
            double bytes[2] = {0, 0};
            int idx = 0;
            for (bool diff : {false, true}) {
                EnvConfig env_config;
                env_config.cost = CostModel::tuna(500);
                env_config.nvramBytes = 128ull << 20;

                DbConfig db_config;
                db_config.walMode = WalMode::Nvwal;
                db_config.nvwal.syncMode = SyncMode::Lazy;
                db_config.nvwal.diffLogging = diff;
                // The paper's formulation: one bounding range per
                // page (section 3.2), not the engine's multi-range
                // default.
                db_config.nvwal.diffGranularity =
                    DiffGranularity::SingleRange;
                db_config.nvwal.userHeap = true;

                WorkloadSpec spec;
                spec.op = op;
                spec.txns = kTxns;
                spec.opsPerTxn = ops;
                spec.checkpointDuringRun = false;

                const WorkloadResult r =
                    runWorkload(env_config, db_config, spec);
                bytes[idx++] =
                    r.perTxn(stats::kNvramBytesLogged, kTxns);
            }
            const double saved =
                100.0 * (1.0 - bytes[1] / bytes[0]);
            row.push_back(TablePrinter::num(bytes[0], 0));
            row.push_back(TablePrinter::num(bytes[1], 0));
            row.push_back(TablePrinter::num(saved, 0) + "%");
        }
        table2.addRow(row);
    }
    table2.print();
    std::printf("\npaper anchors: diff logging saves 73-84%% (insert), "
                "29-85%% (update), 49-69%% (delete) of NVRAM I/O.\n");
    return 0;
}
