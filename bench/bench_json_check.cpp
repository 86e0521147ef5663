/**
 * @file
 * CI validator for the benches' `--json` output. Parses the document
 * with the repo's own strict JSON parser and checks the schema
 * documented in docs/OBSERVABILITY.md: top-level {bench, smoke,
 * records[]}, each record with a name, params object, finite
 * non-negative throughput, counters object, and -- when present --
 * a latency_us block carrying ordered p50 <= p95 <= p99 <= max.
 * Exits non-zero (failing the ctest) on any violation.
 *
 * `--forensics` switches to the crash-forensics schema emitted by
 * `nvwal_inspect --forensics-json` (docs/OBSERVABILITY.md section 7):
 * a single {"forensics": {...}} post-mortem.
 *
 * Usage: bench_json_check [--forensics] <file.json> [<file.json> ...]
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.hpp"

using namespace nvwal;

namespace
{

int failures = 0;

void
fail(const std::string &file, const std::string &what)
{
    std::fprintf(stderr, "%s: %s\n", file.c_str(), what.c_str());
    ++failures;
}

const JsonValue *
requireMember(const std::string &file, const JsonValue &obj,
              const char *name, JsonValue::Type type,
              const std::string &where)
{
    const JsonValue *v = obj.find(name);
    if (v == nullptr) {
        fail(file, where + ": missing \"" + name + "\"");
        return nullptr;
    }
    if (v->type != type) {
        fail(file, where + ": \"" + name + "\" has wrong type");
        return nullptr;
    }
    return v;
}

void
checkNumbersOnly(const std::string &file, const JsonValue &obj,
                 const std::string &where)
{
    for (const auto &[k, v] : obj.object) {
        if (!v.isNumber() || !std::isfinite(v.number) || v.number < 0)
            fail(file, where + "." + k +
                           ": must be a finite non-negative number");
    }
}

void
checkLatency(const std::string &file, const JsonValue &lat,
             const std::string &where)
{
    double q[4] = {0, 0, 0, 0};
    const char *names[4] = {"p50", "p95", "p99", "max"};
    for (int i = 0; i < 4; ++i) {
        const JsonValue *v = requireMember(file, lat, names[i],
                                           JsonValue::Type::Number,
                                           where);
        if (v == nullptr)
            return;
        q[i] = v->number;
    }
    for (int i = 1; i < 4; ++i) {
        if (q[i] + 1e-9 < q[i - 1]) {
            fail(file, where + ": percentiles out of order (" +
                           names[i - 1] + " > " + names[i] + ")");
        }
    }
    const JsonValue *count = requireMember(
        file, lat, "count", JsonValue::Type::Number, where);
    if (count != nullptr && count->number < 1)
        fail(file, where + ": latency block with zero samples");
}

/** One {"forensics": {...}} post-mortem (RecoveryReport JSON). */
void
checkForensicsReport(const std::string &file, const JsonValue &wrapper,
                     const std::string &where)
{
    const JsonValue *fr = requireMember(
        file, wrapper, "forensics", JsonValue::Type::Object, where);
    if (fr == nullptr)
        return;
    requireMember(file, *fr, "recorderEnabled", JsonValue::Type::Bool,
                  where);
    requireMember(file, *fr, "parsed", JsonValue::Type::Bool, where);
    requireMember(file, *fr, "namespace", JsonValue::Type::String, where);
    requireMember(file, *fr, "incarnationKnown", JsonValue::Type::Bool,
                  where);
    const JsonValue *ring = requireMember(
        file, *fr, "ring", JsonValue::Type::Object, where);
    if (ring != nullptr) {
        checkNumbersOnly(file, *ring, where + ".ring");
        for (const char *k :
             {"capacity", "validRecords", "tornSlots", "wraps"})
            requireMember(file, *ring, k, JsonValue::Type::Number,
                          where + ".ring");
    }
    const JsonValue *rec = requireMember(
        file, *fr, "recovered", JsonValue::Type::Object, where);
    if (rec != nullptr)
        for (const char *k : {"marks", "checkpointId",
                              "checkpointLagFrames", "lostMarks"})
            requireMember(file, *rec, k, JsonValue::Type::Number,
                          where + ".recovered");
    const JsonValue *problems = requireMember(
        file, *fr, "inconsistencies", JsonValue::Type::Array, where);
    // A post-mortem listing durable claims recovery contradicted is
    // itself evidence of an engine bug: fail the fixture.
    if (problems != nullptr && !problems->array.empty())
        fail(file, where + ": " +
                       std::to_string(problems->array.size()) +
                       " forensics inconsistency(ies) reported");
    const JsonValue *events = requireMember(
        file, *fr, "events", JsonValue::Type::Array, where);
    if (events == nullptr)
        return;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        const std::string ew = where + ".events[" + std::to_string(i) +
                               "]";
        if (!e.isObject()) {
            fail(file, ew + ": not an object");
            continue;
        }
        requireMember(file, e, "seq", JsonValue::Type::Number, ew);
        requireMember(file, e, "type", JsonValue::Type::String, ew);
        requireMember(file, e, "durable", JsonValue::Type::Bool, ew);
        for (const char *k : {"a16", "a32", "a64", "b64"})
            requireMember(file, e, k, JsonValue::Type::Number, ew);
    }
}

void
checkForensicsFile(const std::string &file)
{
    std::FILE *f = std::fopen(file.c_str(), "rb");
    if (f == nullptr) {
        fail(file, "cannot open");
        return;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    JsonValue doc;
    const Status parsed = parseJson(text, &doc);
    if (!parsed.isOk()) {
        fail(file, parsed.toString());
        return;
    }
    if (!doc.isObject()) {
        fail(file, "top level is not an object");
        return;
    }
    checkForensicsReport(file, doc, "top");
}

void
checkFile(const std::string &file)
{
    std::FILE *f = std::fopen(file.c_str(), "rb");
    if (f == nullptr) {
        fail(file, "cannot open");
        return;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    JsonValue doc;
    const Status parsed = parseJson(text, &doc);
    if (!parsed.isOk()) {
        fail(file, parsed.toString());
        return;
    }
    if (!doc.isObject()) {
        fail(file, "top level is not an object");
        return;
    }
    requireMember(file, doc, "bench", JsonValue::Type::String, "top");
    requireMember(file, doc, "smoke", JsonValue::Type::Bool, "top");
    const JsonValue *records = requireMember(
        file, doc, "records", JsonValue::Type::Array, "top");
    if (records == nullptr)
        return;
    if (records->array.empty())
        fail(file, "records array is empty");

    for (std::size_t i = 0; i < records->array.size(); ++i) {
        const JsonValue &rec = records->array[i];
        const std::string where = "records[" + std::to_string(i) + "]";
        if (!rec.isObject()) {
            fail(file, where + ": not an object");
            continue;
        }
        requireMember(file, rec, "name", JsonValue::Type::String, where);
        const JsonValue *params = requireMember(
            file, rec, "params", JsonValue::Type::Object, where);
        if (params != nullptr)
            checkNumbersOnly(file, *params, where + ".params");
        const JsonValue *tput = requireMember(
            file, rec, "throughput_txns_per_sec",
            JsonValue::Type::Number, where);
        if (tput != nullptr &&
            (!std::isfinite(tput->number) || tput->number < 0)) {
            fail(file, where + ": bad throughput");
        }
        const JsonValue *counters = requireMember(
            file, rec, "counters", JsonValue::Type::Object, where);
        if (counters != nullptr)
            checkNumbersOnly(file, *counters, where + ".counters");
        const JsonValue *lat = rec.find("latency_us");
        if (lat != nullptr) {
            if (!lat->isObject())
                fail(file, where + ".latency_us: not an object");
            else
                checkLatency(file, *lat, where + ".latency_us");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool forensics = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--forensics")
            forensics = true;
        else
            files.push_back(argv[i]);
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "usage: %s [--forensics] <file.json> ...\n",
                     argv[0]);
        return 2;
    }
    for (const std::string &file : files) {
        if (forensics)
            checkForensicsFile(file);
        else
            checkFile(file);
    }
    if (failures == 0)
        std::printf("%zu file(s) valid\n", files.size());
    return failures == 0 ? 0 : 1;
}
