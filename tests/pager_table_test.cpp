/**
 * @file
 * Model check of the pager's page table: a seeded run of random
 * page fetches, allocations, frees, commits, rollbacks, evictions and
 * resets on one Pager, against a std::map model of which pages are
 * resident. After every operation the table must hold exactly the
 * model's pages, each at the address it had when it was first seen,
 * and a rollback must drop every page past the restored page count.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "db/env.hpp"
#include "pager/db_file.hpp"
#include "pager/pager.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 512;

TEST(PagerTable, RandomOpsMatchMapModel)
{
    Env env;
    DbFile file(env.fs, "table.db", kPageSize);
    Pager pager(file, kPageSize, 0);
    NVWAL_CHECK_OK(pager.open());
    Rng rng(0x7AB1E);

    // The oracle: resident pages, keyed by page number, with the
    // address each was first seen at (nullptr until then).
    std::map<PageNo, const CachedPage *> resident;
    // Pages on the free list now and at the last commit.
    std::set<PageNo> free_pages;
    std::set<PageNo> committed_free;
    std::uint32_t committed_count = pager.pageCount();
    PageNo highest = pager.pageCount();

    const auto touch = [&](PageNo no) { resident.try_emplace(no, nullptr); };
    const auto freeListHead = [&] {
        CachedPage *header;
        NVWAL_CHECK_OK(pager.getPage(1, &header));
        touch(1);
        return loadU32(header->buf.data() + DbHeader::kFreelistHeadOff);
    };
    const auto inUse = [&] {
        std::vector<PageNo> out;
        for (PageNo no = 2; no <= pager.pageCount(); ++no) {
            if (free_pages.count(no) == 0)
                out.push_back(no);
        }
        return out;
    };
    const auto dropDirty = [&] {
        for (PageNo no : pager.dirtyPageNos())
            resident.erase(no);
    };
    const auto expectTableMatches = [&](const std::string &op, int step) {
        for (PageNo no = 0; no <= highest + 1; ++no) {
            const CachedPage *page = pager.cached(no);
            const auto it = resident.find(no);
            ASSERT_EQ(page != nullptr, it != resident.end())
                << "page " << no << " after " << op << " at step " << step;
            if (it == resident.end())
                continue;
            if (it->second == nullptr)
                it->second = page;
            ASSERT_EQ(page, it->second)
                << "page " << no << " moved after " << op << " at step "
                << step;
        }
    };

    for (int step = 0; step < 3000; ++step) {
        std::string op;
        const std::uint64_t roll = rng.nextBelow(100);
        if (roll < 35) {
            op = "getPage";
            const auto no =
                static_cast<PageNo>(1 + rng.nextBelow(pager.pageCount()));
            CachedPage *page;
            NVWAL_CHECK_OK(pager.getPage(no, &page));
            ASSERT_EQ(page, pager.cached(no));
            touch(no);
        } else if (roll < 40) {
            op = "getPage past end";
            const auto no = static_cast<PageNo>(pager.pageCount() + 1 +
                                                rng.nextBelow(4));
            CachedPage *page;
            EXPECT_EQ(pager.getPage(no, &page).code(),
                      StatusCode::InvalidArgument);
        } else if (roll < 60) {
            op = "allocatePage";
            const PageNo head = freeListHead();
            if (head != kNoPage)
                touch(head);
            CachedPage *page;
            PageNo no;
            NVWAL_CHECK_OK(pager.allocatePage(&page, &no));
            if (head == kNoPage)
                ASSERT_EQ(no, pager.pageCount());
            else
                ASSERT_EQ(free_pages.erase(no), 1u);
            touch(no);
            highest = std::max(highest, pager.pageCount());
        } else if (roll < 72) {
            op = "freePage";
            const std::vector<PageNo> candidates = inUse();
            if (!candidates.empty()) {
                const PageNo no =
                    candidates[rng.nextBelow(candidates.size())];
                const PageNo head = freeListHead();
                if (head != kNoPage)
                    touch(head);
                NVWAL_CHECK_OK(pager.freePage(no));
                touch(no);
                free_pages.insert(no);
            }
        } else if (roll < 82) {
            op = "commit";
            NVWAL_CHECK_OK(pager.flushAllToFile());
            NVWAL_CHECK_OK(file.sync());
            committed_count = pager.pageCount();
            committed_free = free_pages;
        } else if (roll < 90) {
            op = "rollback";
            dropDirty();
            resident.erase(resident.upper_bound(committed_count),
                           resident.end());
            pager.discardDirty(committed_count);
            free_pages = committed_free;
            ASSERT_EQ(pager.pageCount(), committed_count);
            for (PageNo no = committed_count + 1; no <= highest; ++no) {
                ASSERT_EQ(pager.cached(no), nullptr)
                    << "page " << no << " past the restored count";
            }
        } else if (roll < 97) {
            op = "dropCleanPages";
            const std::vector<PageNo> dirty = pager.dirtyPageNos();
            const std::set<PageNo> keep(dirty.begin(), dirty.end());
            for (auto it = resident.begin(); it != resident.end();) {
                if (keep.count(it->first) == 0)
                    it = resident.erase(it);
                else
                    ++it;
            }
            pager.dropCleanPages();
        } else {
            op = "commit+reset";
            NVWAL_CHECK_OK(pager.flushAllToFile());
            NVWAL_CHECK_OK(file.sync());
            committed_count = pager.pageCount();
            committed_free = free_pages;
            pager.reset();
            resident.clear();
        }
        expectTableMatches(op, step);
    }
    // The run grew the file and recycled pages through the free list.
    EXPECT_GT(highest, 20u);
    EXPECT_GT(pager.freePageCount(), 0u);
}

} // namespace
} // namespace nvwal
