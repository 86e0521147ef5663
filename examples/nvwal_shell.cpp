/**
 * @file
 * An interactive shell over the engine -- the sqlite3-REPL analogue.
 * Runs a simulated platform in-process, so you can commit
 * transactions, pull the (virtual) power plug, inspect the NVRAM
 * media and watch recovery, all from a prompt.
 *
 *   $ ./build/examples/nvwal_shell
 *   nvwal> insert 1 hello
 *   nvwal> begin
 *   nvwal> insert 2 world
 *   nvwal> crash
 *   power failure injected; database recovered
 *   nvwal> get 2
 *   (not found)            # the open transaction was rolled back
 *
 * Feed it a script on stdin for reproducible demos:
 *   printf 'insert 1 hi\nstats\n' | ./build/examples/nvwal_shell
 */

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "db/inspect.hpp"

using namespace nvwal;

namespace
{

const char *kHelp =
    "commands:\n"
    "  insert <key> <text>   insert a record into the current table\n"
    "  update <key> <text>   replace a record\n"
    "  delete <key>          remove a record\n"
    "  get <key>             fetch a record\n"
    "  scan [lo hi]          list records in key order\n"
    "  count                 number of records\n"
    "  begin|commit|rollback explicit transactions\n"
    "  tables                list tables\n"
    "  create <name>         create a table\n"
    "  drop <name>           drop a table\n"
    "  use <name>            switch the current table\n"
    "  checkpoint            write the log back and truncate it\n"
    "  vacuum                compact rebuild\n"
    "  crash [adversarial]   power failure + automatic recovery\n"
    "  inspect               raw NVWAL media report\n"
    "  page <no>             decode one B-tree page\n"
    "  stats                 all counters/histograms, stable key order\n"
    "  forensics [json]      flight-recorder post-mortem of the last\n"
    "                        recovery (crash forensics, DESIGN.md 12)\n"
    "  metrics [path]        metrics JSON to stdout or <path>\n"
    "  trace on|off          toggle the transaction-phase tracer\n"
    "  trace dump <path>     write a Chrome trace_event JSON file\n"
    "  help, quit\n";

struct Shell
{
    explicit Shell(Env &env) : env(env) { reopen(); }

    void
    reopen()
    {
        db.reset();
        DbConfig config;
        config.name = "shell.db";
        config.walMode = WalMode::Nvwal;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        table = Database::kDefaultTable;
    }

    Table *
    current()
    {
        Table *t = nullptr;
        const Status s = db->openTable(table, &t);
        if (!s.isOk()) {
            std::printf("error: %s\n", s.toString().c_str());
            return nullptr;
        }
        return t;
    }

    void
    report(const Status &s)
    {
        if (s.isOk())
            std::printf("ok\n");
        else
            std::printf("error: %s\n", s.toString().c_str());
    }

    Env &env;
    std::unique_ptr<Database> db;
    std::string table;
};

std::string
textOf(ConstByteSpan v)
{
    return std::string(reinterpret_cast<const char *>(v.data()),
                       v.size());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    Env env(env_config);
    Shell shell(env);

    std::printf("NVWAL shell -- simulated Nexus 5 + 2us NVRAM. "
                "'help' for commands.\n");
    std::string line;
    while (true) {
        std::printf("nvwal> ");
        std::fflush(stdout);
        if (!std::getline(std::cin, line))
            break;
        std::istringstream in(line);
        std::string cmd;
        if (!(in >> cmd))
            continue;

        if (cmd == "quit" || cmd == "exit")
            break;
        if (cmd == "help") {
            std::printf("%s", kHelp);
        } else if (cmd == "insert" || cmd == "update") {
            RowId key;
            std::string rest;
            if (!(in >> key) || !std::getline(in, rest) ||
                rest.size() < 2) {
                std::printf("usage: %s <key> <text>\n", cmd.c_str());
                continue;
            }
            rest.erase(0, 1);  // the separating space
            const ConstByteSpan value(
                reinterpret_cast<const std::uint8_t *>(rest.data()),
                rest.size());
            Table *t = shell.current();
            if (t == nullptr)
                continue;
            shell.report(cmd == "insert" ? t->insert(key, value)
                                         : t->update(key, value));
        } else if (cmd == "delete") {
            RowId key;
            if (!(in >> key)) {
                std::printf("usage: delete <key>\n");
                continue;
            }
            Table *t = shell.current();
            if (t != nullptr)
                shell.report(t->remove(key));
        } else if (cmd == "get") {
            RowId key;
            if (!(in >> key)) {
                std::printf("usage: get <key>\n");
                continue;
            }
            Table *t = shell.current();
            if (t == nullptr)
                continue;
            ByteBuffer out;
            const Status s = t->get(key, &out);
            if (s.isOk()) {
                std::printf("%s\n",
                            textOf(ConstByteSpan(out.data(), out.size()))
                                .c_str());
            } else if (s.isNotFound()) {
                std::printf("(not found)\n");
            } else {
                shell.report(s);
            }
        } else if (cmd == "scan") {
            RowId lo = INT64_MIN;
            RowId hi = INT64_MAX;
            in >> lo >> hi;
            int rows = 0;
            Table *t = shell.current();
            if (t == nullptr)
                continue;
            const Status s = t->scan(lo, hi, [&](RowId k, ConstByteSpan v) {
                std::printf("  %lld = %s\n", static_cast<long long>(k),
                            textOf(v).c_str());
                return ++rows < 100;
            });
            if (!s.isOk())
                shell.report(s);
            else if (rows >= 100)
                std::printf("  ... (truncated at 100 rows)\n");
        } else if (cmd == "count") {
            Table *t = shell.current();
            if (t == nullptr)
                continue;
            std::uint64_t n = 0;
            NVWAL_CHECK_OK(t->count(&n));
            std::printf("%llu\n", static_cast<unsigned long long>(n));
        } else if (cmd == "begin") {
            shell.report(shell.db->begin());
        } else if (cmd == "commit") {
            shell.report(shell.db->commit());
        } else if (cmd == "rollback") {
            shell.report(shell.db->rollback());
        } else if (cmd == "tables") {
            std::vector<std::string> names;
            NVWAL_CHECK_OK(shell.db->listTables(&names));
            for (const std::string &name : names) {
                std::printf("  %s%s\n", name.c_str(),
                            name == shell.table ? " (current)" : "");
            }
        } else if (cmd == "create") {
            std::string name;
            in >> name;
            shell.report(shell.db->createTable(name));
        } else if (cmd == "drop") {
            std::string name;
            in >> name;
            const Status s = shell.db->dropTable(name);
            if (s.isOk() && name == shell.table)
                shell.table = Database::kDefaultTable;
            shell.report(s);
        } else if (cmd == "use") {
            std::string name;
            in >> name;
            Table *t = nullptr;
            const Status s = shell.db->openTable(name, &t);
            if (s.isOk())
                shell.table = name;
            shell.report(s);
        } else if (cmd == "vacuum") {
            shell.report(shell.db->vacuum());
        } else if (cmd == "checkpoint") {
            shell.report(shell.db->checkpoint());
        } else if (cmd == "crash") {
            std::string policy;
            in >> policy;
            env.powerFail(policy == "adversarial"
                              ? FailurePolicy::Adversarial
                              : FailurePolicy::Pessimistic,
                          0.5);
            shell.reopen();
            std::printf("power failure injected; database recovered\n");
        } else if (cmd == "inspect") {
            NvwalMediaReport media;
            NVWAL_CHECK_OK(collectNvwalMediaReport(
                env, shell.db->pager().pageSize(), &media));
            printNvwalMediaReport(media);
        } else if (cmd == "page") {
            PageNo no = 0;
            if (!(in >> no)) {
                std::printf("usage: page <no>\n");
                continue;
            }
            const Status s = printPage(shell.db->pager(), no);
            if (!s.isOk())
                shell.report(s);
        } else if (cmd == "stats") {
            DatabaseReport report;
            NVWAL_CHECK_OK(collectDatabaseReport(*shell.db, &report));
            printDatabaseReport(report);
            std::printf("simulated time: %.3f ms\n",
                        static_cast<double>(env.clock.now()) / 1e6);
            // Counters then histograms, each in the stable
            // lexicographic order documented in docs/MODEL.md.
            printCounters(env.stats);
            printHistograms(env.stats);
        } else if (cmd == "forensics") {
            std::string sub;
            in >> sub;
            const bool json = sub == "json";
            if (json) {
                std::printf(
                    "%s\n",
                    recoveryReportJson(shell.db->recoveryReport())
                        .c_str());
            } else {
                printRecoveryReport(shell.db->recoveryReport(), stdout);
            }
        } else if (cmd == "metrics") {
            std::string path;
            const std::string doc = metricsJson(env.stats);
            if (in >> path) {
                std::FILE *f = std::fopen(path.c_str(), "wb");
                if (f == nullptr) {
                    std::printf("error: cannot open %s\n", path.c_str());
                    continue;
                }
                std::fwrite(doc.data(), 1, doc.size(), f);
                std::fclose(f);
                std::printf("wrote %s\n", path.c_str());
            } else {
                std::printf("%s\n", doc.c_str());
            }
        } else if (cmd == "trace") {
            std::string sub;
            in >> sub;
            if (sub == "on" || sub == "off") {
                env.stats.tracer().setEnabled(sub == "on");
                std::printf("tracing %s\n", sub.c_str());
            } else if (sub == "dump") {
                std::string path;
                if (!(in >> path)) {
                    std::printf("usage: trace dump <path>\n");
                    continue;
                }
                const Status s =
                    writeChromeTrace(env.stats.tracer(), path);
                if (s.isOk()) {
                    std::printf(
                        "wrote %s (%llu events, %llu dropped)\n",
                        path.c_str(),
                        static_cast<unsigned long long>(
                            env.stats.tracer().size()),
                        static_cast<unsigned long long>(
                            env.stats.tracer().dropped()));
                } else {
                    shell.report(s);
                }
            } else {
                std::printf("usage: trace on|off|dump <path>\n");
            }
        } else {
            std::printf("unknown command '%s' -- try 'help'\n",
                        cmd.c_str());
        }
    }
    std::printf("\nbye\n");
    return 0;
}
