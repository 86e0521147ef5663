#include "nvram_device.hpp"

#include <algorithm>
#include <cstring>

namespace nvwal
{

NvramDevice::NvramDevice(std::size_t size, std::uint32_t cache_line_size,
                         MetricsRegistry &stats, std::uint64_t seed)
    : _durable(size, 0), _lineSize(cache_line_size), _stats(stats),
      _rng(seed)
{
    NVWAL_ASSERT(cache_line_size > 0 &&
                 (cache_line_size & (cache_line_size - 1)) == 0,
                 "cache line size must be a power of two");
}

std::size_t
NvramDevice::lineSpanBytes(std::uint64_t line_idx) const
{
    const std::size_t start =
        static_cast<std::size_t>(line_idx) * _lineSize;
    NVWAL_ASSERT(start < _durable.size(), "line index out of range");
    return std::min<std::size_t>(_lineSize, _durable.size() - start);
}

NvramDevice::Slot &
NvramDevice::newestSlot(std::uint64_t line_idx)
{
    if (line_idx >= _newest.size())
        _newest.resize(static_cast<std::size_t>(line_idx) + 1, 0);
    return _newest[line_idx];
}

NvramDevice::Slot
NvramDevice::allocSlot(std::uint64_t line_idx)
{
    Slot s;
    if (!_freeSlots.empty()) {
        s = _freeSlots.back();
        _freeSlots.pop_back();
        _slotInfo[s] = SlotInfo{line_idx, 0, 0, false};
    } else {
        s = static_cast<Slot>(_slotInfo.size());
        _slotInfo.push_back(SlotInfo{line_idx, 0, 0, false});
        const std::size_t need = _slotInfo.size() * _lineSize;
        if (_slab.size() < need)
            _slab.resize(need);
    }
    return s;
}

void
NvramDevice::listPush(std::vector<Slot> &list, Slot s)
{
    _slotInfo[s].pos = static_cast<std::uint32_t>(list.size());
    list.push_back(s);
}

void
NvramDevice::listRemove(std::vector<Slot> &list, Slot s)
{
    const std::uint32_t pos = _slotInfo[s].pos;
    const Slot last = list.back();
    list[pos] = last;
    _slotInfo[last].pos = pos;
    list.pop_back();
}

void
NvramDevice::queueDirtySlot(Slot s)
{
    SlotInfo &info = _slotInfo[s];
    if (info.older != 0) {
        listRemove(_queuedList, info.older - 1);
        _freeSlots.push_back(info.older - 1);
        info.older = 0;
    }
    info.queued = true;
    listRemove(_dirtyList, s);
    listPush(_queuedList, s);
}

std::vector<NvramDevice::Slot>
NvramDevice::byLine(const std::vector<Slot> &list) const
{
    std::vector<Slot> sorted(list);
    std::sort(sorted.begin(), sorted.end(), [this](Slot a, Slot b) {
        return _slotInfo[a].line < _slotInfo[b].line;
    });
    return sorted;
}

void
NvramDevice::countOpLocked()
{
    ++_opCount;
    if (_crashAtOp != 0 && _opCount >= _crashAtOp) {
        _crashAtOp = 0;
        powerFailLocked(_pendingPolicy, _pendingSurviveProb);
        throw PowerFailure();
    }
}

void
NvramDevice::write(NvOffset off, ConstByteSpan data)
{
    std::lock_guard<std::mutex> g(_mu);
    writeLocked(off, data);
}

void
NvramDevice::writeLocked(NvOffset off, ConstByteSpan data)
{
    NVWAL_ASSERT(off + data.size() <= _durable.size(),
                 "NVRAM write out of range: off=%llu len=%zu",
                 static_cast<unsigned long long>(off), data.size());
    countOpLocked();
    std::size_t pos = 0;
    while (pos < data.size()) {
        const NvOffset addr = off + pos;
        const std::uint64_t idx = lineIndex(addr);
        const std::uint32_t in_line =
            static_cast<std::uint32_t>(addr % _lineSize);
        const std::size_t chunk =
            std::min<std::size_t>(_lineSize - in_line, data.size() - pos);

        Slot &newest = newestSlot(idx);
        if (newest == 0 || _slotInfo[newest - 1].queued) {
            // Fill the line from the current coherent view: the
            // persist queue may hold a newer snapshot than durable.
            // The last line of a non-line-multiple device is partial
            // on the media; its image tail stays zero.
            const Slot s = allocSlot(idx);
            std::uint8_t *img = image(s);
            if (newest != 0) {
                std::memcpy(img, image(newest - 1), _lineSize);
            } else {
                const std::size_t span = lineSpanBytes(idx);
                std::memcpy(img, _durable.data() + idx * _lineSize, span);
                std::memset(img + span, 0, _lineSize - span);
            }
            _slotInfo[s].older = newest;
            listPush(_dirtyList, s);
            newest = s + 1;
        }
        std::memcpy(image(newest - 1) + in_line, data.data() + pos, chunk);
        pos += chunk;
    }
}

void
NvramDevice::read(NvOffset off, ByteSpan out) const
{
    std::lock_guard<std::mutex> g(_mu);
    readLocked(off, out);
}

void
NvramDevice::readLocked(NvOffset off, ByteSpan out) const
{
    NVWAL_ASSERT(off + out.size() <= _durable.size(),
                 "NVRAM read out of range");
    std::size_t pos = 0;
    while (pos < out.size()) {
        const NvOffset addr = off + pos;
        const std::uint64_t idx = lineIndex(addr);
        const std::uint32_t in_line =
            static_cast<std::uint32_t>(addr % _lineSize);
        const std::size_t chunk =
            std::min<std::size_t>(_lineSize - in_line, out.size() - pos);

        const Slot newest = idx < _newest.size() ? _newest[idx] : 0;
        std::memcpy(out.data() + pos,
                    newest != 0 ? image(newest - 1) + in_line
                                : _durable.data() + addr,
                    chunk);
        pos += chunk;
    }
}

std::uint64_t
NvramDevice::readU64(NvOffset off) const
{
    std::uint8_t buf[8];
    std::lock_guard<std::mutex> g(_mu);
    readLocked(off, ByteSpan(buf, 8));
    return loadU64(buf);
}

void
NvramDevice::writeU64(NvOffset off, std::uint64_t value)
{
    std::uint8_t buf[8];
    storeU64(buf, value);
    std::lock_guard<std::mutex> g(_mu);
    writeLocked(off, ConstByteSpan(buf, 8));
}

void
NvramDevice::flushLine(NvOffset addr)
{
    std::lock_guard<std::mutex> g(_mu);
    NVWAL_ASSERT(addr < _durable.size(), "flush out of range");
    countOpLocked();
    const std::uint64_t idx = lineIndex(addr);
    const Slot newest = idx < _newest.size() ? _newest[idx] : 0;
    if (newest == 0 || _slotInfo[newest - 1].queued)
        return;  // clean line: dccmvac of a clean line is a no-op
    queueDirtySlot(newest - 1);
    _stats.add(stats::kNvramLinesFlushed);
    _stats.tracer().instant("nvram.flush_line", "nvram", "addr", addr);
}

std::size_t
NvramDevice::flushAllDirtyLines()
{
    std::lock_guard<std::mutex> g(_mu);
    countOpLocked();
    const std::size_t n = _dirtyList.size();
    while (!_dirtyList.empty())
        queueDirtySlot(_dirtyList.back());
    _stats.add(stats::kNvramLinesFlushed, n);
    _stats.tracer().instant("nvram.flush_all_dirty", "nvram", "lines", n);
    return n;
}

void
NvramDevice::drainPersistQueue()
{
    std::lock_guard<std::mutex> g(_mu);
    countOpLocked();
    const std::size_t n = _queuedList.size();
    for (const Slot s : _queuedList) {
        const std::uint64_t line = _slotInfo[s].line;
        applyLineToDurable(line, image(s));
        // The line is clean now, or only its dirty image remains.
        Slot &newest = _newest[line];
        if (newest == s + 1)
            newest = 0;
        else
            _slotInfo[newest - 1].older = 0;
        _freeSlots.push_back(s);
    }
    _queuedList.clear();
    _stats.tracer().instant("nvram.drain_queue", "nvram", "lines", n);
}

void
NvramDevice::applyLineToDurable(std::uint64_t line_idx,
                                const std::uint8_t *data)
{
    // Clamp to the media: the last line of a non-line-multiple device
    // is partial, and copying the full line image would overrun the
    // durable image.
    std::memcpy(_durable.data() + line_idx * _lineSize, data,
                lineSpanBytes(line_idx));
}

void
NvramDevice::clearVolatile()
{
    for (const Slot s : _dirtyList)
        _newest[_slotInfo[s].line] = 0;
    for (const Slot s : _queuedList)
        _newest[_slotInfo[s].line] = 0;
    _dirtyList.clear();
    _queuedList.clear();
    _slotInfo.clear();
    _freeSlots.clear();
}

void
NvramDevice::scheduleCrashAtOp(std::uint64_t op_count)
{
    std::lock_guard<std::mutex> g(_mu);
    _crashAtOp = op_count == 0 ? 0 : _opCount + op_count;
}

void
NvramDevice::powerFail(FailurePolicy policy, double survive_prob)
{
    std::lock_guard<std::mutex> g(_mu);
    powerFailLocked(policy, survive_prob);
}

void
NvramDevice::powerFailLocked(FailurePolicy policy, double survive_prob)
{
    switch (policy) {
      case FailurePolicy::Pessimistic:
        // Neither dirty cached lines nor queued-but-undrained lines
        // reach the media.
        break;

      case FailurePolicy::Adversarial:
        // Queued lines are "in flight": each 8-byte unit lands
        // independently (the paper assumes 8-byte atomic writes,
        // section 4.1, so no unit ever tears internally). Lines are
        // drawn in ascending order, so the seed alone fixes the
        // outcome.
        for (const Slot s : byLine(_queuedList)) {
            const std::uint64_t line = _slotInfo[s].line;
            const std::size_t span = lineSpanBytes(line);
            for (std::size_t unit = 0; unit < span; unit += 8) {
                if (_rng.nextBool(0.75)) {
                    std::memcpy(_durable.data() + line * _lineSize + unit,
                                image(s) + unit,
                                std::min<std::size_t>(8, span - unit));
                }
            }
        }
        // Dirty cached lines may have been evicted by the cache at
        // any earlier point; model that as a whole-line coin flip.
        for (const Slot s : byLine(_dirtyList)) {
            if (_rng.nextBool(survive_prob))
                applyLineToDurable(_slotInfo[s].line, image(s));
        }
        break;

      case FailurePolicy::AllSurvive:
        // Queued first: a line both queued and dirty ends at its
        // newer, dirty image.
        for (const Slot s : _queuedList)
            applyLineToDurable(_slotInfo[s].line, image(s));
        for (const Slot s : _dirtyList)
            applyLineToDurable(_slotInfo[s].line, image(s));
        break;
    }
    clearVolatile();
    _crashAtOp = 0;
}

NvramDevice::LineImages
NvramDevice::collect(const std::vector<Slot> &list) const
{
    LineImages out;
    out.lines.reserve(list.size());
    out.images.reserve(list.size() * _lineSize);
    for (const Slot s : byLine(list)) {
        out.lines.push_back(_slotInfo[s].line);
        out.images.insert(out.images.end(), image(s),
                          image(s) + _lineSize);
    }
    return out;
}

void
NvramDevice::restoreImages(const LineImages &from, std::vector<Slot> &list,
                           bool queued)
{
    for (std::size_t i = 0; i < from.lines.size(); ++i) {
        const std::uint64_t line = from.lines[i];
        const Slot s = allocSlot(line);
        std::memcpy(image(s), from.images.data() + i * _lineSize,
                    _lineSize);
        // Queued images load first, so a dirty image links the
        // line's queued one, if any.
        Slot &newest = newestSlot(line);
        _slotInfo[s].older = queued ? 0 : newest;
        _slotInfo[s].queued = queued;
        listPush(list, s);
        newest = s + 1;
    }
}

NvramDevice::Snapshot
NvramDevice::snapshot() const
{
    std::lock_guard<std::mutex> g(_mu);
    Snapshot snap;
    snap.durable = _durable;
    snap.dirty = collect(_dirtyList);
    snap.queued = collect(_queuedList);
    snap.opCount = _opCount;
    snap.rng = _rng;
    return snap;
}

void
NvramDevice::restore(const Snapshot &snap)
{
    std::lock_guard<std::mutex> g(_mu);
    NVWAL_ASSERT(snap.durable.size() == _durable.size(),
                 "snapshot is for a different device size");
    _durable = snap.durable;
    clearVolatile();
    restoreImages(snap.queued, _queuedList, true);
    restoreImages(snap.dirty, _dirtyList, false);
    _opCount = snap.opCount;
    _rng = snap.rng;
    _crashAtOp = 0;
}

void
NvramDevice::readDurable(NvOffset off, ByteSpan out) const
{
    std::lock_guard<std::mutex> g(_mu);
    NVWAL_ASSERT(off + out.size() <= _durable.size(),
                 "durable read out of range");
    std::memcpy(out.data(), _durable.data() + off, out.size());
}

} // namespace nvwal
