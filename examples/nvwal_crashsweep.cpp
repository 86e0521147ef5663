/**
 * @file
 * Exhaustive crash-point sweep driver: runs a multi-transaction
 * workload, then a checkpoint round whose write-out is in flight
 * across commits, injects a power failure at every
 * persistence-relevant NVRAM operation (or every stride-th one) under
 * the pessimistic policy and several adversarial seeds, recovers, and
 * validates the recovery invariants (section 4.3). Prints per-phase
 * coverage and exits non-zero if any invariant is ever violated.
 *
 * Examples:
 *   nvwal_crashsweep                         # exhaustive, 10 txns
 *   nvwal_crashsweep --scheme cs --seeds 6
 *   nvwal_crashsweep --txns 4 --stride 7     # bounded smoke sweep
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/table_printer.hpp"
#include "faultsim/crash_sweep.hpp"

using namespace nvwal;

namespace
{

struct Options
{
    std::string scheme = "uh-lazy-diff";
    int warmTxns = 2;
    int txns = 10;
    std::size_t valueBytes = 80;
    std::uint64_t stride = 1;
    std::uint64_t maxPoints = 0;
    int seeds = 4;
    double surviveProb = 0.5;
    SimTime latencyNs = 500;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --scheme S        lazy | eager | cs | uh-lazy-diff |\n"
        "                    uh-eager-diff | uh-cs-diff (uh-lazy-diff)\n"
        "  --warm-txns N     committed transactions before the sweep (2)\n"
        "  --txns N          swept transactions (10)\n"
        "  --value-bytes B   record payload size (80)\n"
        "  --stride N        sweep every N-th device op (1 = exhaustive)\n"
        "  --max-points N    cap distinct crash points (0 = unlimited)\n"
        "  --seeds N         adversarial RNG seeds per point (4)\n"
        "  --survive-prob P  adversarial line-survival probability (0.5)\n"
        "  --latency NS      NVRAM write latency (500)\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--scheme") {
            opt.scheme = next();
        } else if (arg == "--warm-txns") {
            opt.warmTxns = std::atoi(next());
        } else if (arg == "--txns") {
            opt.txns = std::atoi(next());
        } else if (arg == "--value-bytes") {
            opt.valueBytes = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--stride") {
            opt.stride = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--max-points") {
            opt.maxPoints = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--seeds") {
            opt.seeds = std::atoi(next());
        } else if (arg == "--survive-prob") {
            opt.surviveProb = std::atof(next());
        } else if (arg == "--latency") {
            opt.latencyNs = std::strtoull(next(), nullptr, 10);
        } else {
            usage(argv[0]);
        }
    }
    if (opt.txns < 1 || opt.warmTxns < 0 || opt.stride < 1 ||
        opt.seeds < 1)
        usage(argv[0]);
    return opt;
}

bool
configFor(const std::string &scheme, NvwalConfig *out)
{
    NvwalConfig config;
    config.nvBlockSize = 8192;
    if (scheme == "lazy") {
        config.syncMode = SyncMode::Lazy;
        config.userHeap = false;
        config.diffLogging = false;
    } else if (scheme == "eager") {
        config.syncMode = SyncMode::Eager;
        config.userHeap = false;
        config.diffLogging = false;
    } else if (scheme == "cs") {
        config.syncMode = SyncMode::ChecksumAsync;
        config.userHeap = false;
        config.diffLogging = false;
    } else if (scheme == "uh-lazy-diff") {
        config.syncMode = SyncMode::Lazy;
        config.userHeap = true;
        config.diffLogging = true;
    } else if (scheme == "uh-eager-diff") {
        config.syncMode = SyncMode::Eager;
        config.userHeap = true;
        config.diffLogging = true;
    } else if (scheme == "uh-cs-diff") {
        config.syncMode = SyncMode::ChecksumAsync;
        config.userHeap = true;
        config.diffLogging = true;
    } else {
        return false;
    }
    *out = config;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(opt.latencyNs);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 4096;
    config.db.walMode = WalMode::Nvwal;
    if (!configFor(opt.scheme, &config.db.nvwal))
        usage(argv[0]);
    config.warmup =
        faultsim::Workload::standardTxns(0, opt.warmTxns, opt.valueBytes);
    config.workload = faultsim::Workload::standardTxns(
        opt.warmTxns, opt.txns, opt.valueBytes);
    // Then a checkpoint round whose flash write-out is in flight
    // while later commits run (DESIGN.md §8.4).
    config.workload.writeOutRound(1000000);
    config.stride = opt.stride;
    config.maxPoints = opt.maxPoints;
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Pessimistic, {0}, 0.5});
    faultsim::PolicyRun adversarial;
    adversarial.policy = FailurePolicy::Adversarial;
    adversarial.surviveProb = opt.surviveProb;
    adversarial.seeds.clear();
    for (int s = 1; s <= opt.seeds; ++s)
        adversarial.seeds.push_back(static_cast<std::uint64_t>(s));
    config.policies.push_back(adversarial);

    faultsim::SweepReport report;
    faultsim::CrashSweep sweep(config);
    const Status status = sweep.run(&report);
    if (!status.isOk()) {
        std::fprintf(stderr, "sweep failed to run: %s\n",
                     status.toString().c_str());
        return 2;
    }

    TablePrinter table("Crash-point sweep coverage (" + opt.scheme +
                       ", " + std::to_string(report.totalOps) +
                       " device ops, " +
                       std::to_string(report.commitEvents) +
                       " commit events)");
    table.setHeader({"phase", "points", "replays", "crashes",
                     "violations"});
    for (const auto &[label, cov] : report.phases) {
        table.addRow({label, TablePrinter::num(cov.points),
                      TablePrinter::num(cov.replays),
                      TablePrinter::num(cov.crashes),
                      TablePrinter::num(cov.violations)});
    }
    table.addRow({"total", TablePrinter::num(report.pointsSwept),
                  TablePrinter::num(report.replays),
                  TablePrinter::num(report.crashes),
                  TablePrinter::num(
                      static_cast<std::uint64_t>(
                          report.violations.size()))});
    table.print();

    if (!report.ok()) {
        std::fprintf(stderr, "\n%s", report.summary().c_str());
        return 1;
    }
    std::printf("\nall recovery invariants held at every point\n");
    return 0;
}
