#include "block_device.hpp"

#include <algorithm>
#include <cstring>

namespace nvwal
{

const char *
ioTagName(IoTag tag)
{
    switch (tag) {
      case IoTag::DbFile: return ".db";
      case IoTag::WalFile: return ".db-wal";
      case IoTag::Journal: return "ext4-journal";
      case IoTag::Meta: return "fs-meta";
      case IoTag::Other: return "other";
    }
    return "?";
}

BlockDevice::BlockDevice(std::uint64_t num_blocks, std::uint32_t block_size,
                         SimClock &clock, const CostModel &cost,
                         MetricsRegistry &stats)
    : _numBlocks(num_blocks), _blockSize(block_size), _clock(clock),
      _cost(cost), _stats(stats),
      _data(num_blocks * block_size, 0)
{
    NVWAL_ASSERT(block_size > 0 && num_blocks > 0);
}

void
BlockDevice::retireLocked()
{
    const SimTime now = _clock.now();
    while (_inFlightHead < _inFlight.size() &&
           _inFlight[_inFlightHead].doneNs <= now)
        ++_inFlightHead;
    if (_inFlightHead == _inFlight.size()) {
        // Keep the capacity: a steady-state write-out never reaches
        // the allocator.
        _inFlight.clear();
        _preImages.clear();
        _inFlightHead = 0;
    }
}

void
BlockDevice::waitLocked(MetricName counter)
{
    const SimTime now = _clock.now();
    if (_busyUntil > now) {
        _clock.advanceTo(_busyUntil);
        _stats.add(counter, _busyUntil - now);
    }
    retireLocked();
}

void
BlockDevice::programLocked(BlockNo block, ConstByteSpan data, IoTag tag,
                           SimTime done_ns)
{
    NVWAL_ASSERT(block < _numBlocks, "block write out of range: %llu",
                 static_cast<unsigned long long>(block));
    NVWAL_ASSERT(data.size() == _blockSize,
                 "block write must be exactly one block");
    std::memcpy(_data.data() + block * _blockSize, data.data(), _blockSize);
    _stats.add(stats::kBlocksWritten);
    _bytesPerTag[static_cast<std::size_t>(tag)] += _blockSize;
    if (tag == IoTag::Journal)
        _stats.add(stats::kJournalBlocksWritten);
    if (_tracing)
        _trace.push_back(TraceEntry{done_ns, block, tag});
}

void
BlockDevice::writeBlock(BlockNo block, ConstByteSpan data, IoTag tag)
{
    std::lock_guard<std::mutex> g(_mu);
    waitLocked();
    _clock.advance(_cost.blockProgramNs);
    programLocked(block, data, tag, _clock.now());
}

void
BlockDevice::queueBlock(BlockNo block, ConstByteSpan data, IoTag tag)
{
    std::lock_guard<std::mutex> g(_mu);
    retireLocked();
    NVWAL_ASSERT(block < _numBlocks, "block write out of range: %llu",
                 static_cast<unsigned long long>(block));
    _busyUntil = std::max(_busyUntil, _clock.now()) + _cost.blockProgramNs;
    _inFlight.push_back(InFlight{block, _busyUntil});
    const std::uint8_t *media = _data.data() + block * _blockSize;
    _preImages.insert(_preImages.end(), media, media + _blockSize);
    programLocked(block, data, tag, _busyUntil);
}

void
BlockDevice::readBlock(BlockNo block, ByteSpan out)
{
    std::lock_guard<std::mutex> g(_mu);
    NVWAL_ASSERT(block < _numBlocks, "block read out of range");
    NVWAL_ASSERT(out.size() == _blockSize,
                 "block read must be exactly one block");
    waitLocked();
    _clock.advance(_cost.blockReadNs);
    _stats.add(stats::kBlocksRead);
    std::memcpy(out.data(), _data.data() + block * _blockSize, _blockSize);
}

void
BlockDevice::powerFail(FailurePolicy policy, double survive_prob, Rng &rng)
{
    std::lock_guard<std::mutex> g(_mu);
    retireLocked();
    // Draw every in-flight program's fate in issue order, so the seed
    // alone fixes the outcome.
    const std::size_t n = _inFlight.size() - _inFlightHead;
    std::vector<bool> lands(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (policy) {
          case FailurePolicy::Pessimistic: lands[i] = false; break;
          case FailurePolicy::Adversarial:
            lands[i] = rng.nextBool(survive_prob);
            break;
          case FailurePolicy::AllSurvive: lands[i] = true; break;
        }
    }
    // The media holds each block's newest program. Walk newest first:
    // a block keeps the newest program that landed, and each program
    // that did not land before it hands back the image it replaced.
    std::vector<BlockNo> settled;
    for (std::size_t i = n; i-- > 0;) {
        const BlockNo block = _inFlight[_inFlightHead + i].block;
        if (std::find(settled.begin(), settled.end(), block) !=
            settled.end())
            continue;
        if (lands[i]) {
            settled.push_back(block);
            continue;
        }
        std::memcpy(_data.data() + block * _blockSize,
                    _preImages.data() + (_inFlightHead + i) * _blockSize,
                    _blockSize);
    }
    _inFlight.clear();
    _preImages.clear();
    _inFlightHead = 0;
    _busyUntil = _clock.now();
}

BlockDevice::Snapshot
BlockDevice::snapshot() const
{
    std::lock_guard<std::mutex> g(_mu);
    Snapshot snap{_data, {}, {}, {}};
    const SimTime now = _clock.now();
    for (std::size_t i = _inFlightHead; i < _inFlight.size(); ++i) {
        if (_inFlight[i].doneNs <= now)
            continue;  // completed, on media
        snap.inFlight.push_back(_inFlight[i].block);
        snap.remainingNs.push_back(_inFlight[i].doneNs - now);
        const std::uint8_t *pre = _preImages.data() + i * _blockSize;
        snap.preImages.insert(snap.preImages.end(), pre, pre + _blockSize);
    }
    return snap;
}

void
BlockDevice::restore(const Snapshot &snap)
{
    std::lock_guard<std::mutex> g(_mu);
    NVWAL_ASSERT(snap.data.size() == _data.size(),
                 "snapshot is for a different device size");
    _data = snap.data;
    const SimTime now = _clock.now();
    _inFlight.clear();
    _inFlightHead = 0;
    _preImages = snap.preImages;
    _busyUntil = now;
    for (std::size_t i = 0; i < snap.inFlight.size(); ++i) {
        _inFlight.push_back(InFlight{snap.inFlight[i],
                                     now + snap.remainingNs[i]});
        _busyUntil = now + snap.remainingNs[i];
    }
}

} // namespace nvwal
