/**
 * @file
 * Regenerates **Figure 7 (a-c)** of the paper: transaction
 * throughput of the six NVWAL schemes as the NVRAM write latency is
 * swept from 400 ns to 1900 ns on the Tuna board, for insert, update
 * and delete workloads (1000 transactions, one 100-byte record
 * each). As in section 5.3, checkpoint time is excluded from the
 * measured region.
 *
 * Paper anchors (section 5.3):
 *  - throughput decreases roughly linearly with write latency;
 *  - LS+Diff outperforms LS by up to ~28%;
 *  - UH+LS outperforms LS by ~6%;
 *  - UH+CS+Diff is the fastest (minimal bytes + minimal flushes)
 *    with UH+LS+Diff comparable -- which is the paper's argument
 *    for UH+LS+Diff, since it does not compromise correctness;
 *  - at 1942 ns, UH+LS+Diff beats LS by up to ~37%.
 */

#include <cstdio>

#include "bench_util.hpp"

using namespace nvwal;
using namespace nvwal::bench;

int
main()
{
    const SimTime kLatencies[] = {400, 700, 1000, 1300, 1600, 1900};

    for (OpKind op : {OpKind::Insert, OpKind::Update, OpKind::Delete}) {
        TablePrinter fig7(std::string("Figure 7: ") + opKindName(op) +
                          " throughput (txns/sec) vs NVRAM write "
                          "latency, Tuna, 1000 txns x 1 op");
        std::vector<std::string> header{"latency(ns)"};
        for (const Scheme &scheme : kFigure7Schemes)
            header.push_back(scheme.label);
        fig7.setHeader(header);

        for (SimTime latency : kLatencies) {
            std::vector<std::string> row{
                TablePrinter::num(std::uint64_t(latency))};
            for (const Scheme &scheme : kFigure7Schemes) {
                EnvConfig env_config;
                env_config.cost = CostModel::tuna(latency);
                env_config.nvramBytes = 128ull << 20;

                WorkloadSpec spec;
                spec.op = op;
                spec.txns = 1000;
                spec.opsPerTxn = 1;
                spec.checkpointDuringRun = false;  // section 5.3

                // The paper's one-bounding-range diff frames: without
                // the user-level heap every frame pays its own heap
                // allocation, so the multi-range default would cost
                // the LS+Diff scheme more allocations than it saves.
                DbConfig db_config = nvwalDbConfig(scheme);
                db_config.nvwal.diffGranularity =
                    DiffGranularity::SingleRange;

                const WorkloadResult r =
                    runWorkload(env_config, db_config, spec);
                row.push_back(TablePrinter::num(r.txnsPerSec, 0));
            }
            fig7.addRow(row);
        }
        fig7.print();
    }
    std::printf("\npaper anchors: linear decrease with latency; "
                "+Diff up to ~28%% over LS; UH ~6%% over LS; "
                "UH+CS+Diff fastest with UH+LS+Diff comparable.\n");
    return 0;
}
