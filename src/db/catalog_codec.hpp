/**
 * @file
 * Wire format of one catalog entry (the rows of the table-catalog
 * B-tree rooted at the primary root page): [root u32][name bytes],
 * and the decoding scan over a catalog tree. Shared by the Database
 * (live catalog) and Connection (snapshot catalog) code paths.
 */

#ifndef NVWAL_DB_CATALOG_CODEC_HPP
#define NVWAL_DB_CATALOG_CODEC_HPP

#include <cstring>
#include <string>

#include "btree/btree.hpp"
#include "common/types.hpp"

namespace nvwal
{

inline ByteBuffer
encodeCatalogEntry(PageNo root, const std::string &name)
{
    ByteBuffer out(4 + name.size());
    storeU32(out.data(), root);
    std::memcpy(out.data() + 4, name.data(), name.size());
    return out;
}

inline bool
decodeCatalogEntry(ConstByteSpan raw, PageNo *root, std::string *name)
{
    if (raw.size() < 4)
        return false;
    *root = loadU32(raw.data());
    name->assign(reinterpret_cast<const char *>(raw.data()) + 4,
                 raw.size() - 4);
    return true;
}

/**
 * Visit every entry of @p catalog in id order as
 * visit(id, root, name), which returns false to stop early.
 * Corruption when an entry does not decode.
 */
template <typename Visit>
Status
scanCatalog(BTree &catalog, const Visit &visit)
{
    Status decode_error = Status::ok();
    NVWAL_RETURN_IF_ERROR(catalog.scan(
        INT64_MIN, INT64_MAX, [&](RowId id, ConstByteSpan raw) {
            PageNo root;
            std::string name;
            if (!decodeCatalogEntry(raw, &root, &name)) {
                decode_error = Status::corruption("bad catalog entry");
                return false;
            }
            return visit(id, root, name);
        }));
    return decode_error;
}

} // namespace nvwal

#endif // NVWAL_DB_CATALOG_CODEC_HPP
