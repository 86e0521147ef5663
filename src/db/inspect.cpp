#include "inspect.hpp"

#include "btree/page_view.hpp"
#include "common/checksum.hpp"
#include "common/table_printer.hpp"
#include "core/nvwal_log.hpp"

namespace nvwal
{

Status
collectNvwalMediaReport(Env &env, std::uint32_t page_size,
                        NvwalMediaReport *out,
                        const std::string &heap_namespace)
{
    *out = NvwalMediaReport{};
    out->heapBlocksFree = env.heap.countBlocks(BlockState::Free);
    out->heapBlocksPending = env.heap.countBlocks(BlockState::Pending);
    out->heapBlocksInUse = env.heap.countBlocks(BlockState::InUse);

    NvOffset header_off;
    const Status root = env.heap.getRoot(heap_namespace, &header_off);
    if (root.isNotFound())
        return Status::ok();  // no log on this media
    NVWAL_RETURN_IF_ERROR(root);

    NvramDevice &dev = env.nvramDevice;
    if (dev.readU64(header_off) != NvwalLog::kMagic)
        return Status::corruption("NVWAL header magic mismatch");
    out->logPresent = true;
    out->checkpointId = dev.readU64(header_off + 16);

    // Walk the node chain, mirroring the frame format of
    // core/nvwal_log.hpp (independent implementation, see header).
    // The chain starts at the log's per-namespace seed.
    CumulativeChecksum chain(NvwalLog::chainSeed(heap_namespace));
    ByteBuffer payload(page_size);
    NvOffset node = dev.readU64(header_off + 24);
    // A second segment (its epoch ahead of the head's) restarts the
    // chain at the seed under its own epoch.
    const NvOffset segment_node = dev.readU64(header_off + 32);
    const std::uint64_t segment_epoch = dev.readU64(header_off + 40);
    std::uint64_t epoch = out->checkpointId;
    bool chain_broken = false;
    // Frames without a commit word are committed *by coverage* when
    // a later frame in the chain carries one (a multi-frame
    // transaction marks only its last frame).
    std::uint64_t pending_run = 0;
    while (node != kNullNvOffset) {
        if (node == segment_node && segment_epoch > out->checkpointId) {
            epoch = segment_epoch;
            chain = CumulativeChecksum(NvwalLog::chainSeed(heap_namespace));
        }
        NodeInfo info;
        info.offset = node;
        info.state = env.heap.blockStateAt(node);
        if (info.state != BlockState::InUse) {
            // Dangling reference (pre-recovery media); stop here.
            out->nodes.push_back(std::move(info));
            break;
        }
        info.capacity =
            env.heap.extentBlocksAt(node) * env.heap.blockSize();

        std::uint32_t pos = NvwalLog::kNodeHeaderSize;
        while (pos + NvwalLog::kFrameHeaderSize <= info.capacity) {
            std::uint8_t h[NvwalLog::kFrameHeaderSize];
            dev.read(node + pos, ByteSpan(h, sizeof(h)));
            const PageNo page_no = loadU32(h);
            const std::uint16_t page_off = loadU16(h + 4);
            const std::uint16_t size = loadU16(h + 6);
            const std::uint64_t commit_word = loadU64(h + 8);
            const std::uint64_t ckpt_id = loadU64(h + 16);
            if (size == 0 || page_no == kNoPage ||
                static_cast<std::uint32_t>(page_off) + size > page_size ||
                pos + NvwalLog::kFrameHeaderSize + size > info.capacity ||
                ckpt_id != epoch) {
                break;  // end of this node's frames
            }
            dev.read(node + pos + NvwalLog::kFrameHeaderSize,
                     ByteSpan(payload.data(), size));

            FrameInfo frame;
            frame.offset = node + pos;
            frame.pageNo = page_no;
            frame.pageOffset = page_off;
            frame.size = size;
            frame.committed =
                NvwalLog::isCommitMark(commit_word, loadU64(h + 24));
            frame.dbSizePages = static_cast<std::uint32_t>(
                commit_word);

            CumulativeChecksum attempt = chain;
            attempt.update(ConstByteSpan(h, 8));
            attempt.update(ConstByteSpan(h + 16, 8));
            attempt.update(ConstByteSpan(payload.data(), size));
            frame.checksumValid =
                !chain_broken && attempt.value() == loadU64(h + 24);
            if (frame.checksumValid) {
                chain = attempt;
                if (frame.committed) {
                    out->committedFrames += pending_run + 1;
                    pending_run = 0;
                } else {
                    ++pending_run;
                }
                out->bytesUsed += NvwalLog::kFrameHeaderSize + size;
            } else {
                out->tornFrames++;
                chain_broken = true;
            }
            info.frames.push_back(frame);
            if (chain_broken)
                break;
            pos = static_cast<std::uint32_t>(
                alignUp(pos + NvwalLog::kFrameHeaderSize + size, 8));
        }
        out->nodes.push_back(std::move(info));
        if (chain_broken)
            break;
        node = dev.readU64(node);
    }
    out->uncommittedFrames = pending_run;
    return Status::ok();
}

Status
collectDatabaseReport(Database &db, DatabaseReport *out)
{
    *out = DatabaseReport{};
    out->pageSize = db.pager().pageSize();
    out->reservedBytes = db.pager().reservedBytes();
    out->pageCount = db.pager().pageCount();
    out->freePages = db.pager().freePageCount();
    out->walFramesSinceCheckpoint = db.wal().framesSinceCheckpoint();

    std::vector<std::string> names;
    NVWAL_RETURN_IF_ERROR(db.listTables(&names));
    for (const std::string &name : names) {
        Table *table;
        NVWAL_RETURN_IF_ERROR(db.openTable(name, &table));
        TableInfo info;
        info.name = name;
        info.root = table->btree().rootPage();
        NVWAL_RETURN_IF_ERROR(table->count(&info.rows));
        NVWAL_RETURN_IF_ERROR(table->btree().depth(&info.depth));
        out->tables.push_back(std::move(info));
    }
    return Status::ok();
}

void
printNvwalMediaReport(const NvwalMediaReport &report, std::FILE *out)
{
    std::fprintf(out,
                 "NVWAL media: %s, checkpoint epoch %llu\n"
                 "heap blocks: %llu in-use, %llu pending, %llu free\n"
                 "frames: %llu committed, %llu uncommitted, %llu torn; "
                 "%llu bytes in %zu nodes\n",
                 report.logPresent ? "log present" : "no log",
                 static_cast<unsigned long long>(report.checkpointId),
                 static_cast<unsigned long long>(report.heapBlocksInUse),
                 static_cast<unsigned long long>(report.heapBlocksPending),
                 static_cast<unsigned long long>(report.heapBlocksFree),
                 static_cast<unsigned long long>(report.committedFrames),
                 static_cast<unsigned long long>(report.uncommittedFrames),
                 static_cast<unsigned long long>(report.tornFrames),
                 static_cast<unsigned long long>(report.bytesUsed),
                 report.nodes.size());

    TablePrinter frames("log frames");
    frames.setHeader({"node", "offset", "page", "in-page", "bytes",
                      "state"});
    for (std::size_t n = 0; n < report.nodes.size(); ++n) {
        for (const FrameInfo &f : report.nodes[n].frames) {
            const char *state = !f.checksumValid ? "TORN"
                                : f.committed    ? "commit"
                                                 : "pending";
            frames.addRow({TablePrinter::num(std::uint64_t(n)),
                           TablePrinter::num(std::uint64_t(f.offset)),
                           TablePrinter::num(std::uint64_t(f.pageNo)),
                           TablePrinter::num(std::uint64_t(f.pageOffset)),
                           TablePrinter::num(std::uint64_t(f.size)),
                           state});
        }
    }
    frames.print(out);
}

void
printDatabaseReport(const DatabaseReport &report, std::FILE *out)
{
    std::fprintf(out,
                 "database: %u pages x %u bytes (%u reserved), "
                 "%u on free list, %llu WAL frames since checkpoint\n",
                 report.pageCount, report.pageSize, report.reservedBytes,
                 report.freePages,
                 static_cast<unsigned long long>(
                     report.walFramesSinceCheckpoint));
    TablePrinter tables("tables");
    tables.setHeader({"name", "root", "rows", "depth"});
    for (const TableInfo &t : report.tables) {
        tables.addRow({t.name, TablePrinter::num(std::uint64_t(t.root)),
                       TablePrinter::num(t.rows),
                       TablePrinter::num(std::uint64_t(t.depth))});
    }
    tables.print(out);
}

Status
printPage(Pager &pager, PageNo page_no, std::FILE *out)
{
    CachedPage *page;
    NVWAL_RETURN_IF_ERROR(pager.getPage(page_no, &page));
    PageView view(page->span(), pager.usableSize(), nullptr);
    NVWAL_RETURN_IF_ERROR(view.validate());

    const char *type = view.type() == PageView::kTypeLeaf ? "leaf"
                       : view.type() == PageView::kTypeInterior
                           ? "interior"
                           : "uninitialized";
    std::fprintf(out,
                 "page %u: %s, %d cells, content start %u, free %u "
                 "(gap %u + freeblocks %u + frag %u)\n",
                 page_no, type, view.nCells(), view.cellContentStart(),
                 view.freeBytes(), view.gapBytes(), view.freeblockBytes(),
                 view.fragmentedBytes());
    if (view.type() == PageView::kTypeNone)
        return Status::ok();

    TablePrinter cells("cells");
    if (view.isLeaf()) {
        cells.setHeader({"idx", "key", "len", "overflow"});
        for (int i = 0; i < view.nCells(); ++i) {
            cells.addRow(
                {TablePrinter::num(std::uint64_t(i)),
                 std::to_string(view.keyAt(i)),
                 TablePrinter::num(std::uint64_t(view.leafTotalLen(i))),
                 view.leafHasOverflow(i)
                     ? "page " + std::to_string(view.leafOverflowPage(i))
                     : "-"});
        }
    } else {
        cells.setHeader({"idx", "key", "child"});
        for (int i = 0; i < view.nCells(); ++i) {
            cells.addRow({TablePrinter::num(std::uint64_t(i)),
                          std::to_string(view.keyAt(i)),
                          TablePrinter::num(
                              std::uint64_t(view.childAt(i)))});
        }
        cells.addRow({"-", "(rightmost)",
                      TablePrinter::num(std::uint64_t(view.rightChild()))});
    }
    cells.print(out);
    return Status::ok();
}

void
printCounters(const MetricsRegistry &stats, std::FILE *out)
{
    // StatsSnapshot is a std::map, so iteration is already the
    // documented ascending lexicographic key order.
    for (const auto &[name, value] : stats.snapshot()) {
        std::fprintf(out, "%-28s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
    }
}

void
printHistograms(const MetricsRegistry &stats, std::FILE *out)
{
    for (const auto &[name, hist] : stats.histogramsSnapshot()) {
        if (hist.count() == 0)
            continue;
        std::fprintf(out,
                     "%-28s n=%llu mean=%.0fns p50=%lluns p95=%lluns "
                     "p99=%lluns max=%lluns\n",
                     name.c_str(),
                     static_cast<unsigned long long>(hist.count()),
                     hist.mean(),
                     static_cast<unsigned long long>(hist.p50()),
                     static_cast<unsigned long long>(hist.p95()),
                     static_cast<unsigned long long>(hist.p99()),
                     static_cast<unsigned long long>(hist.max()));
    }
}

} // namespace nvwal
