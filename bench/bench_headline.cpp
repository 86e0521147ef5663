/**
 * @file
 * Regenerates the paper's headline claims (abstract + section 1):
 *
 *  1. NVWAL on NVRAM (2 us write latency) delivers >= 10x the
 *     transaction throughput of WAL on flash (541 -> 5812 ins/sec).
 *  2. Application performance is insensitive to NVRAM latency:
 *     cutting the latency from 1942 ns to 437 ns buys only ~4%
 *     (2517 -> 2621 ins/sec on Tuna).
 *  3. The cache-line-flush overhead is only ~0.8-4.6% of transaction
 *     execution time.
 *  4. Each 8 KB NVRAM block stores ~4.9 WAL frames on average under
 *     the user-level heap (section 3.3).
 *
 * `--json <path>` additionally writes one machine-readable record per
 * measured configuration (throughput, commit-latency percentiles,
 * counter deltas); `--smoke` shrinks the workloads for CI validation.
 */

#include <cstdio>

#include "bench_util.hpp"

using namespace nvwal;
using namespace nvwal::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    BenchJson json("bench_headline", args);
    const int kTxns = args.smoke ? 60 : 1000;
    const int kFlushTxns = args.smoke ? 40 : 500;

    TablePrinter headline("Headline claims: paper vs this reproduction");
    headline.setHeader({"claim", "paper", "measured"});

    const Scheme uh_ls_diff{"UH+LS+Diff", SyncMode::Lazy, true, true};

    // -- claim 1: >= 10x over flash at 2 us ---------------------------
    {
        WorkloadSpec spec;
        spec.op = OpKind::Insert;
        spec.txns = kTxns;
        spec.checkpointDuringRun = true;

        EnvConfig nexus;
        nexus.cost = CostModel::nexus5(2000);
        DbConfig flash;
        flash.walMode = WalMode::FileOptimized;
        const WorkloadResult flash_r = runWorkload(nexus, flash, spec);
        const WorkloadResult nvwal_r =
            runWorkload(nexus, nvwalDbConfig(uh_ls_diff), spec);
        const double flash_tps = flash_r.txnsPerSec;
        const double nvwal_tps = nvwal_r.txnsPerSec;
        headline.addRow({"optimized WAL on eMMC (tx/s)", "541",
                         TablePrinter::num(flash_tps, 0)});
        headline.addRow({"NVWAL UH+LS+Diff @2us (tx/s)", "5812",
                         TablePrinter::num(nvwal_tps, 0)});
        headline.addRow({"speedup over flash", ">=10x",
                         TablePrinter::num(nvwal_tps / flash_tps, 1) +
                             "x"});

        BenchRecord flash_rec;
        flash_rec.name = "claim1.flash_wal";
        flash_rec.scheme = "FileOptimized";
        flash_rec.fromWorkload(spec, flash_r);
        json.add(std::move(flash_rec));
        BenchRecord nvwal_rec;
        nvwal_rec.name = "claim1.nvwal";
        nvwal_rec.scheme = "NVWAL UH+LS+Diff";
        nvwal_rec.fromWorkload(spec, nvwal_r);
        nvwal_rec.values["speedup_over_flash"] = nvwal_tps / flash_tps;
        json.add(std::move(nvwal_rec));
    }

    // -- claim 2: latency insensitivity on Tuna ----------------------
    {
        WorkloadSpec spec;
        spec.op = OpKind::Insert;
        spec.txns = kTxns;
        spec.checkpointDuringRun = true;  // sustained (section 5.4)

        EnvConfig slow;
        slow.cost = CostModel::tuna(1942);
        slow.nvramBytes = 128ull << 20;
        EnvConfig fast;
        fast.cost = CostModel::tuna(437);
        fast.nvramBytes = 128ull << 20;
        const WorkloadResult slow_r =
            runWorkload(slow, nvwalDbConfig(uh_ls_diff), spec);
        const WorkloadResult fast_r =
            runWorkload(fast, nvwalDbConfig(uh_ls_diff), spec);
        const double slow_tps = slow_r.txnsPerSec;
        const double fast_tps = fast_r.txnsPerSec;
        headline.addRow({"Tuna @1942ns (tx/s)", "2517",
                         TablePrinter::num(slow_tps, 0)});
        headline.addRow({"Tuna @437ns (tx/s)", "2621",
                         TablePrinter::num(fast_tps, 0)});
        headline.addRow(
            {"gain from 4.4x faster NVRAM", "~4%",
             TablePrinter::num(100.0 * (fast_tps / slow_tps - 1.0), 1) +
                 "%"});

        BenchRecord slow_rec;
        slow_rec.name = "claim2.tuna_1942ns";
        slow_rec.scheme = "NVWAL UH+LS+Diff";
        slow_rec.fromWorkload(spec, slow_r);
        slow_rec.params["nvram_latency_ns"] = 1942;
        json.add(std::move(slow_rec));
        BenchRecord fast_rec;
        fast_rec.name = "claim2.tuna_437ns";
        fast_rec.scheme = "NVWAL UH+LS+Diff";
        fast_rec.fromWorkload(spec, fast_r);
        fast_rec.params["nvram_latency_ns"] = 437;
        fast_rec.values["gain_pct"] =
            100.0 * (fast_tps / slow_tps - 1.0);
        json.add(std::move(fast_rec));
    }

    // -- claim 3: flush overhead share --------------------------------
    {
        EnvConfig tuna;
        tuna.cost = CostModel::tuna(500);
        WorkloadSpec spec;
        spec.op = OpKind::Insert;
        spec.txns = kFlushTxns;
        spec.checkpointDuringRun = false;
        DbConfig config;
        config.walMode = WalMode::Nvwal;
        config.nvwal.diffLogging = false;
        const WorkloadResult r = runWorkload(tuna, config, spec);
        const double overhead =
            static_cast<double>(r.stat(stats::kTimeFlushNs) +
                                r.stat(stats::kTimeBarrierNs) +
                                r.stat(stats::kTimeSyscallNs));
        const double share =
            100.0 * overhead / static_cast<double>(r.elapsedNs);
        headline.addRow({"flush overhead share (1 ins/txn)", "4.6%",
                         TablePrinter::num(share, 1) + "%"});

        BenchRecord rec;
        rec.name = "claim3.flush_overhead";
        rec.scheme = "NVWAL LS";
        rec.fromWorkload(spec, r);
        rec.values["flush_overhead_pct"] = share;
        json.add(std::move(rec));
    }

    // -- claim 4: frames per 8 KB block --------------------------------
    {
        EnvConfig tuna;
        tuna.cost = CostModel::tuna(500);
        Env env(tuna);
        DbConfig config;
        config.walMode = WalMode::Nvwal;
        // The paper's ~4.9 frames/block counts one bounding-range
        // frame per page (section 3.3).
        config.nvwal.diffGranularity = DiffGranularity::SingleRange;
        config.autoCheckpoint = false;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        Rng rng(3);
        const RowId rows = args.smoke ? 50 : 500;
        for (RowId k = 0; k < rows; ++k) {
            ByteBuffer v(100, static_cast<std::uint8_t>(rng.next()));
            NVWAL_CHECK_OK(
                db->insert(k, ConstByteSpan(v.data(), v.size())));
        }
        auto &log = static_cast<NvwalLog &>(db->wal());
        headline.addRow({"WAL frames per 8KB NVRAM block", "4.9",
                         TablePrinter::num(log.framesPerNode(), 1)});

        BenchRecord rec;
        rec.name = "claim4.frames_per_block";
        rec.scheme = "NVWAL UH+LS";
        rec.params["rows"] = rows;
        rec.values["frames_per_node"] = log.framesPerNode();
        json.add(std::move(rec));
    }

    headline.print();
    json.write();
    return 0;
}
