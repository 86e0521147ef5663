#include "flight_recorder.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/checksum.hpp"
#include "obs/json.hpp"

namespace nvwal
{

namespace
{

/** On-media slot layout; naturally aligned, no padding. */
struct RawRecord
{
    std::uint64_t seq;
    std::uint8_t type;
    std::uint8_t flags;
    std::uint16_t a16;
    std::uint32_t a32;
    std::uint64_t a64;
    std::uint64_t b64;
    std::uint64_t checksum; //!< fnv1a64 over the preceding 32 bytes
};

static_assert(sizeof(RawRecord) == FlightRecorder::kRecordSize,
              "ring slot layout must stay 40 bytes (docs/FORMAT.md)");
static_assert(std::is_trivially_copyable_v<RawRecord>);

/** On-media ring header; zero-padded to kHeaderSize. */
struct RawHeader
{
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t recordSize;
    std::uint32_t capacity;
    std::uint32_t reserved0;  //!< written 0
    /** Plain-stored convenience hint only: the parser derives the
     *  true next sequence by scanning the slots, never from here. */
    std::uint64_t nextSeqHint;
    std::uint8_t reserved[32];
};

static_assert(sizeof(RawHeader) == FlightRecorder::kHeaderSize,
              "ring header layout must stay 64 bytes (docs/FORMAT.md)");
static_assert(std::is_trivially_copyable_v<RawHeader>);

std::uint64_t
recordChecksum(const RawRecord &raw)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&raw);
    return fnv1a64(ConstByteSpan(bytes, 32));
}

bool
allZero(const RawRecord &raw)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&raw);
    for (std::size_t i = 0; i < sizeof(RawRecord); ++i) {
        if (bytes[i] != 0)
            return false;
    }
    return true;
}

std::uint64_t
ringBytes(std::uint32_t capacity)
{
    return FlightRecorder::kHeaderSize +
           static_cast<std::uint64_t>(capacity) *
               FlightRecorder::kRecordSize;
}

NvOffset
slotOffset(NvOffset root, std::uint64_t slot)
{
    return root + FlightRecorder::kHeaderSize +
           slot * FlightRecorder::kRecordSize;
}

} // namespace

FlightRecorder::FlightRecorder(NvHeap &heap, Pmem &pmem,
                               MetricsRegistry &stats,
                               std::string heap_namespace,
                               std::uint32_t capacity)
    : _heap(heap), _pmem(pmem), _stats(stats),
      _namespace(std::move(heap_namespace)),
      _capacity(std::max(capacity, kMinCapacity))
{
}

std::string
FlightRecorder::namespaceFor(const std::string &wal_namespace)
{
    return wal_namespace + "-fr";
}

Status
FlightRecorder::openOrCreate(FlightRecording *parsed)
{
    if (parsed != nullptr)
        *parsed = FlightRecording{};

    NvOffset root = kNullNvOffset;
    const Status lookup = _heap.getRoot(_namespace, &root);
    if (lookup.isOk() && _heap.blockStateAt(root) == BlockState::InUse) {
        _root = root;
        const Status attached = attachRing(parsed);
        if (attached.isOk()) {
            _ready = true;
            return Status::ok();
        }
        // Unreadable header under a live root: release the extent
        // and fall through to a fresh ring (cannot happen through
        // the documented creation order, which persists the header
        // before publishing the root).
        NVWAL_CHECK_OK(_heap.nvFree(_root));
        _root = kNullNvOffset;
    }
    // NotFound (never bound) or a root whose block recovery freed
    // (creation crashed between setRoot and the used-flag): create.
    const Status created = createRing();
    if (!created.isOk())
        return created;
    _ready = true;
    return Status::ok();
}

Status
FlightRecorder::createRing()
{
    const std::uint64_t bytes = ringBytes(_capacity);
    NvOffset off = kNullNvOffset;
    Status s = _heap.nvPreMalloc(bytes, &off);
    if (!s.isOk())
        return s;

    RawHeader header{};
    header.magic = kMagic;
    header.version = kVersion;
    header.recordSize = kRecordSize;
    header.capacity = _capacity;
    header.reserved0 = 0;
    header.nextSeqHint = 0;
    _pmem.memcpyToNvram(
        off, ConstByteSpan(reinterpret_cast<const std::uint8_t *>(&header),
                           sizeof(header)));

    // Zero every slot so the parser can tell "never written" from a
    // torn plain-store tail (any nonzero slot failing its checksum).
    std::uint8_t zeros[kRecordSize * 16] = {};
    std::uint64_t remaining = bytes - kHeaderSize;
    NvOffset cursor = off + kHeaderSize;
    while (remaining > 0) {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(remaining, sizeof(zeros));
        _pmem.memcpyToNvram(cursor, ConstByteSpan(zeros, chunk));
        cursor += chunk;
        remaining -= chunk;
    }

    // One-time eager persist at creation (off every measured path):
    // the header must be durable before the root publishes it, so an
    // InUse root always implies a decodable header.
    _pmem.persistRangeEager(off, off + bytes);

    s = _heap.setRoot(_namespace, off);
    if (!s.isOk()) {
        // E.g. all namespace slots taken; release and report --
        // the engine downgrades this to "recorder disabled".
        NVWAL_CHECK_OK(_heap.nvFree(off));
        return s;
    }
    s = _heap.nvSetUsedFlag(off);
    if (!s.isOk())
        return s;

    _root = off;
    _nextSeq = 0;
    return Status::ok();
}

Status
FlightRecorder::attachRing(FlightRecording *parsed)
{
    FlightRecording local;
    FlightRecording *out = parsed != nullptr ? parsed : &local;
    std::vector<std::uint32_t> torn_slots;
    Status s = parseRing(_pmem, _root, out, &torn_slots);
    if (!s.isOk())
        return s;

    // The media geometry wins over the configured capacity: the ring
    // was sized at creation and never resizes in place.
    _capacity = out->capacity;
    _nextSeq = out->nextSeq;

    // Scrub torn slots so a later parse does not re-report them, and
    // re-persist the survivors eagerly -- this is the recovery path,
    // off every measured commit path, and it makes the surviving
    // forensic evidence itself durable against a second crash.
    const std::uint8_t zeros[kRecordSize] = {};
    for (const std::uint32_t slot : torn_slots)
        _pmem.memcpyToNvram(slotOffset(_root, slot),
                            ConstByteSpan(zeros, sizeof(zeros)));
    _pmem.storeU64(_root + offsetof(RawHeader, nextSeqHint), _nextSeq);
    _pmem.persistRangeEager(_root, _root + ringBytes(_capacity));

    if (!torn_slots.empty())
        _stats.add(stats::kFrRecordsTornDiscarded, torn_slots.size());
    return Status::ok();
}

Status
FlightRecorder::parseRing(Pmem &pmem, NvOffset root, FlightRecording *out,
                          std::vector<std::uint32_t> *torn_slots)
{
    RawHeader header{};
    pmem.readFromNvram(
        root, ByteSpan(reinterpret_cast<std::uint8_t *>(&header),
                       sizeof(header)));
    if (header.magic != kMagic)
        return Status::corruption("flight-recorder magic mismatch");
    if (header.version != kVersion)
        return Status::corruption("flight-recorder version mismatch");
    if (header.recordSize != kRecordSize || header.capacity == 0)
        return Status::corruption("flight-recorder geometry mismatch");

    out->present = true;
    out->capacity = header.capacity;

    for (std::uint32_t slot = 0; slot < header.capacity; ++slot) {
        RawRecord raw{};
        pmem.readFromNvram(
            slotOffset(root, slot),
            ByteSpan(reinterpret_cast<std::uint8_t *>(&raw), sizeof(raw)));
        if (allZero(raw))
            continue;
        const bool checksum_ok = recordChecksum(raw) == raw.checksum;
        const bool slot_ok = raw.seq % header.capacity == slot;
        const bool type_ok =
            raw.type >= static_cast<std::uint8_t>(
                            FrRecordType::RecorderOpen) &&
            raw.type <= kFrMaxRecordType;
        if (!checksum_ok || !slot_ok || !type_ok) {
            ++out->tornSlots;
            if (torn_slots != nullptr)
                torn_slots->push_back(slot);
            continue;
        }
        FrRecord rec;
        rec.seq = raw.seq;
        rec.type = raw.type;
        rec.flags = raw.flags;
        rec.a16 = raw.a16;
        rec.a32 = raw.a32;
        rec.a64 = raw.a64;
        rec.b64 = raw.b64;
        out->records.push_back(rec);
    }

    std::sort(out->records.begin(), out->records.end(),
              [](const FrRecord &a, const FrRecord &b)
              { return a.seq < b.seq; });
    out->validRecords = out->records.size();
    if (!out->records.empty())
        out->nextSeq = out->records.back().seq + 1;
    out->wraps = out->nextSeq == 0 ? 0
                 : (out->nextSeq - 1) / header.capacity;
    for (std::size_t i = out->records.size(); i-- > 0;) {
        if (out->records[i].type ==
            static_cast<std::uint8_t>(FrRecordType::RecorderOpen)) {
            out->lastOpenIndex = i;
            break;
        }
    }
    return Status::ok();
}

Status
FlightRecorder::collect(const NvHeap &heap, Pmem &pmem,
                        const std::string &heap_namespace,
                        FlightRecording *out)
{
    *out = FlightRecording{};
    NvOffset root = kNullNvOffset;
    const Status lookup = heap.getRoot(heap_namespace, &root);
    if (!lookup.isOk())
        return lookup;
    if (heap.blockStateAt(root) != BlockState::InUse)
        return Status::ok(); // root published, block reclaimed
    return parseRing(pmem, root, out, nullptr);
}

void
FlightRecorder::append(FrRecordType type, std::uint8_t flags,
                       std::uint16_t a16, std::uint32_t a32,
                       std::uint64_t a64, std::uint64_t b64)
{
    if (!_ready)
        return;
    RawRecord raw{};
    raw.seq = _nextSeq;
    raw.type = static_cast<std::uint8_t>(type);
    raw.flags = flags;
    raw.a16 = a16;
    raw.a32 = a32;
    raw.a64 = a64;
    raw.b64 = b64;
    raw.checksum = recordChecksum(raw);

    const std::uint64_t slot = _nextSeq % _capacity;
    // Plain stores only: no flush, no fence, no barrier. Whether the
    // record survives a crash is up to the cache hierarchy -- the
    // §3.2 trust model applied to telemetry.
    _pmem.memcpyToNvram(
        slotOffset(_root, slot),
        ConstByteSpan(reinterpret_cast<const std::uint8_t *>(&raw),
                      sizeof(raw)));
    if (_nextSeq > 0 && slot == 0)
        _stats.add(stats::kFrRingWraps);
    ++_nextSeq;
    _stats.add(stats::kFrRecordsWritten);
}

void
FlightRecorder::publish()
{
    if (!_ready)
        return;
    _pmem.storeU64(_root + offsetof(RawHeader, nextSeqHint), _nextSeq);
    _pmem.persistRangeEager(_root, _root + ringBytes(_capacity));
}

std::uint32_t
frCounterNameHash(std::string_view name)
{
    std::uint32_t hash = 2166136261u;
    for (const char c : name) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 16777619u;
    }
    return hash;
}

const char *
frCounterNameForHash(std::uint32_t hash)
{
    // Names the engine may sample into CounterSnapshot records. The
    // entries reference the canonical constants, so the counter-name
    // lint never sees an undeclared literal here.
    static constexpr const char *kKnown[] = {
        stats::kTxnsCommitted,     stats::kPersistBarriers,
        stats::kFlushSyscalls,     stats::kNvramBytesLogged,
        stats::kNvramFramesWritten, stats::kCheckpoints,
        stats::kDbAsyncCommits,    stats::kWalEpochsHardened,
        stats::kGroupCommits,      stats::kFrRecordsWritten,
    };
    for (const char *name : kKnown) {
        if (frCounterNameHash(name) == hash)
            return name;
    }
    return nullptr;
}

const char *
frRecordTypeName(std::uint8_t type)
{
    switch (static_cast<FrRecordType>(type)) {
    case FrRecordType::RecorderOpen: return "recorder_open";
    case FrRecordType::TxnBegin: return "txn_begin";
    case FrRecordType::CommitAck: return "commit_ack";
    case FrRecordType::Harden: return "harden";
    case FrRecordType::CheckpointStart: return "checkpoint_start";
    case FrRecordType::CheckpointEnd: return "checkpoint_end";
    case FrRecordType::Truncation: return "truncation";
    case FrRecordType::GroupBatch: return "group_batch";
    case FrRecordType::CounterSnapshot: return "counter_snapshot";
    }
    return type <= kFrMaxRecordType ? "reserved" : "unknown";
}

RecoveryReport
buildRecoveryReport(const FlightRecording &recording,
                    const FrRecoveredWalState &wal)
{
    RecoveryReport report;
    report.recorderEnabled = true;
    report.parsed = recording.present;
    report.recording = recording;
    report.recoveredMarks = wal.recoveredMarks;
    report.recoveredCheckpointId = wal.recoveredCheckpointId;
    report.checkpointLagFrames = wal.framesSinceCheckpoint;
    report.tornFramesDetected = wal.tornFramesDetected;
    report.framesDiscarded = wal.framesDiscarded;
    report.lostMarks = wal.lostMarks;

    if (!recording.present)
        return report;

    const auto ckpt32 =
        static_cast<std::uint32_t>(wal.recoveredCheckpointId);
    const auto complain = [&report](std::string msg)
    { report.inconsistencies.push_back(std::move(msg)); };

    // ---- durable-claim cross-checks (any incarnation) --------------
    // A durable-claim record was written after the persist barrier
    // that made its claim true, so the recovered WAL must agree --
    // regardless of which incarnation wrote it. Claims about commit
    // marks are only comparable while the truncation horizon is the
    // one they were stamped with, hence the checkpoint-round gate.
    for (const FrRecord &rec : recording.records) {
        char buf[160];
        switch (static_cast<FrRecordType>(rec.type)) {
        case FrRecordType::CommitAck:
            if (rec.durableClaim() && rec.a32 == ckpt32 &&
                rec.b64 > wal.recoveredMarks) {
                std::snprintf(buf, sizeof(buf),
                              "commit ack #%llu claims %llu durable marks "
                              "in round %u but recovery found %llu",
                              (unsigned long long)rec.seq,
                              (unsigned long long)rec.b64, rec.a32,
                              (unsigned long long)wal.recoveredMarks);
                complain(buf);
            }
            break;
        case FrRecordType::Harden:
            if (rec.a32 == ckpt32 && rec.a64 > wal.recoveredMarks) {
                std::snprintf(buf, sizeof(buf),
                              "harden #%llu claims %llu durable marks "
                              "in round %u but recovery found %llu",
                              (unsigned long long)rec.seq,
                              (unsigned long long)rec.a64, rec.a32,
                              (unsigned long long)wal.recoveredMarks);
                complain(buf);
            }
            break;
        case FrRecordType::Truncation:
            if (rec.a32 > ckpt32) {
                std::snprintf(buf, sizeof(buf),
                              "truncation #%llu reached round %u but "
                              "media recovered round %u",
                              (unsigned long long)rec.seq, rec.a32,
                              ckpt32);
                complain(buf);
            }
            break;
        default:
            break;
        }
    }

    // ---- crashed-incarnation slice ---------------------------------
    // Epochs and transaction sequences restart per incarnation, so
    // these fields are only derivable when the RecorderOpen boundary
    // survived.
    if (recording.lastOpenIndex == FlightRecording::kNoIndex)
        return report;
    report.incarnationKnown = true;

    std::vector<std::uint64_t> begins;
    std::vector<std::uint64_t> acked;
    for (std::size_t i = recording.lastOpenIndex + 1;
         i < recording.records.size(); ++i) {
        const FrRecord &rec = recording.records[i];
        switch (static_cast<FrRecordType>(rec.type)) {
        case FrRecordType::TxnBegin:
            begins.push_back(rec.a64);
            break;
        case FrRecordType::CommitAck:
            acked.push_back(rec.a64);
            report.lastAckedTxn = std::max(report.lastAckedTxn, rec.a64);
            if (rec.durableClaim() && rec.a32 == ckpt32)
                report.lastDurableMarks =
                    std::max(report.lastDurableMarks, rec.b64);
            break;
        case FrRecordType::Harden:
            report.lastDurableEpoch =
                std::max(report.lastDurableEpoch, rec.b64);
            if (rec.a32 == ckpt32)
                report.lastDurableMarks =
                    std::max(report.lastDurableMarks, rec.a64);
            break;
        default:
            break;
        }
    }
    for (const std::uint64_t txn : begins) {
        if (std::find(acked.begin(), acked.end(), txn) == acked.end())
            report.possiblyInFlight.push_back(txn);
    }
    std::sort(report.possiblyInFlight.begin(),
              report.possiblyInFlight.end());

    return report;
}

namespace
{

void
writeIdArray(JsonWriter &w, const char *name,
             const std::vector<std::uint64_t> &ids)
{
    w.key(name);
    w.beginArray();
    for (const std::uint64_t id : ids)
        w.value(id);
    w.endArray();
}

} // namespace

std::string
recoveryReportJson(const RecoveryReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("forensics");
    w.beginObject();
    w.member("recorderEnabled", report.recorderEnabled);
    w.member("parsed", report.parsed);
    w.member("namespace", report.heapNamespace);

    w.key("ring");
    w.beginObject();
    w.member("capacity",
             static_cast<std::uint64_t>(report.recording.capacity));
    w.member("validRecords", report.recording.validRecords);
    w.member("tornSlots", report.recording.tornSlots);
    w.member("wraps", report.recording.wraps);
    w.member("nextSeq", report.recording.nextSeq);
    w.endObject();

    w.key("recovered");
    w.beginObject();
    w.member("marks", report.recoveredMarks);
    w.member("checkpointId", report.recoveredCheckpointId);
    w.member("checkpointLagFrames", report.checkpointLagFrames);
    w.member("tornFramesDetected", report.tornFramesDetected);
    w.member("framesDiscarded", report.framesDiscarded);
    w.member("lostMarks", report.lostMarks);
    w.endObject();

    w.member("incarnationKnown", report.incarnationKnown);
    w.member("lastDurableEpoch", report.lastDurableEpoch);
    w.member("lastDurableMarks", report.lastDurableMarks);
    w.member("lastAckedTxn", report.lastAckedTxn);
    writeIdArray(w, "possiblyInFlight", report.possiblyInFlight);

    w.key("inconsistencies");
    w.beginArray();
    for (const std::string &msg : report.inconsistencies)
        w.value(msg);
    w.endArray();

    w.key("events");
    w.beginArray();
    for (const FrRecord &rec : report.recording.records) {
        w.beginObject();
        w.member("seq", rec.seq);
        w.member("type", frRecordTypeName(rec.type));
        w.member("durable", rec.durableClaim());
        w.member("a16", static_cast<std::uint64_t>(rec.a16));
        w.member("a32", static_cast<std::uint64_t>(rec.a32));
        w.member("a64", rec.a64);
        w.member("b64", rec.b64);
        if (static_cast<FrRecordType>(rec.type) ==
            FrRecordType::CounterSnapshot) {
            const char *name = frCounterNameForHash(rec.a32);
            if (name != nullptr)
                w.member("counter", name);
        }
        w.endObject();
    }
    w.endArray();

    w.endObject();
    w.endObject();
    return w.take();
}

void
printRecoveryReport(const RecoveryReport &report, std::FILE *out)
{
    if (!report.recorderEnabled) {
        std::fprintf(out, "flight recorder: disabled\n");
        return;
    }
    if (!report.parsed) {
        std::fprintf(out, "flight recorder: ring not found (%s)\n",
                     report.heapNamespace.c_str());
        return;
    }
    std::fprintf(out,
                 "flight recorder %s: %llu records survived "
                 "(%llu torn slot%s discarded, %llu wrap%s, "
                 "capacity %u)\n",
                 report.heapNamespace.c_str(),
                 (unsigned long long)report.recording.validRecords,
                 (unsigned long long)report.recording.tornSlots,
                 report.recording.tornSlots == 1 ? "" : "s",
                 (unsigned long long)report.recording.wraps,
                 report.recording.wraps == 1 ? "" : "s",
                 report.recording.capacity);
    std::fprintf(out,
                 "recovered WAL: %llu commit marks, checkpoint round "
                 "%llu, %llu frames pending checkpoint\n",
                 (unsigned long long)report.recoveredMarks,
                 (unsigned long long)report.recoveredCheckpointId,
                 (unsigned long long)report.checkpointLagFrames);
    if (report.tornFramesDetected != 0 || report.framesDiscarded != 0 ||
        report.lostMarks != 0) {
        std::fprintf(out,
                     "loss window: %llu torn frames, %llu discarded, "
                     "%llu commit marks lost\n",
                     (unsigned long long)report.tornFramesDetected,
                     (unsigned long long)report.framesDiscarded,
                     (unsigned long long)report.lostMarks);
    }
    if (report.incarnationKnown) {
        std::fprintf(out,
                     "crashed incarnation: last durable epoch %llu, "
                     "last durable marks %llu, last acked txn %llu\n",
                     (unsigned long long)report.lastDurableEpoch,
                     (unsigned long long)report.lastDurableMarks,
                     (unsigned long long)report.lastAckedTxn);
    } else {
        std::fprintf(out,
                     "crashed incarnation: boundary record lost "
                     "(epoch/in-flight fields unavailable)\n");
    }
    const auto printIds = [out](const char *label,
                                const std::vector<std::uint64_t> &ids) {
        if (ids.empty())
            return;
        std::fprintf(out, "%s:", label);
        for (const std::uint64_t id : ids)
            std::fprintf(out, " %llu", (unsigned long long)id);
        std::fprintf(out, "\n");
    };
    printIds("possibly in flight", report.possiblyInFlight);
    if (report.inconsistencies.empty()) {
        std::fprintf(out, "cross-check vs recovered WAL: consistent\n");
    } else {
        for (const std::string &msg : report.inconsistencies)
            std::fprintf(out, "INCONSISTENT: %s\n", msg.c_str());
    }
    // Tail of the timeline, newest last.
    const std::size_t n = report.recording.records.size();
    const std::size_t first = n > 16 ? n - 16 : 0;
    for (std::size_t i = first; i < n; ++i) {
        const FrRecord &rec = report.recording.records[i];
        std::fprintf(out,
                     "  #%-6llu %-16s%s a16=%u a32=%u a64=%llu b64=%llu\n",
                     (unsigned long long)rec.seq,
                     frRecordTypeName(rec.type),
                     rec.durableClaim() ? " [durable]" : "",
                     rec.a16, rec.a32, (unsigned long long)rec.a64,
                     (unsigned long long)rec.b64);
    }
}

} // namespace nvwal
