#!/usr/bin/env python3
"""Cross-check metric names: src/sim/stats.hpp vs code vs docs.

The registry contract (docs/MODEL.md section 6) is that every
measurement point records under a canonical dotted name owned by
src/sim/stats.hpp and that the docs tables stay in sync with it.
This lint enforces one structural rule and the three directions
that rot silently:

  0. every canonical name has exactly one registry slot and no two
     names share one: each name is one row of the
     NVWAL_STATS_METRICS list (a row's position is its slot), no
     identifier or dotted name appears in two rows, and stats.hpp
     declares no name outside the list;

  1. every canonical constant in stats.hpp is documented in
     docs/MODEL.md or docs/OBSERVABILITY.md (wildcard rows like
     `time.*_ns` count);
  2. no source file hardcodes a metric-looking string literal that
     is not a canonical name -- typos like "fr.record_written"
     would otherwise export a counter nobody documented or gated
     (tracer span names, which are a separate namespace, are
     recognised by their call sites and exempt);
  3. every metric-looking token the docs put in backticks still
     exists in stats.hpp (or is a live tracer span name), so doc
     tables cannot keep rows for counters that were renamed away.

Run from anywhere; registered as the ctest `lint_counter_names`.
Exits non-zero with one line per violation.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STATS_HPP = REPO / "src" / "sim" / "stats.hpp"
DOCS = [REPO / "docs" / "MODEL.md", REPO / "docs" / "OBSERVABILITY.md"]
SOURCE_DIRS = ["src", "tests", "bench", "examples"]


LIST_MACRO = "NVWAL_STATS_METRICS"


def metric_list(text):
    """Body of the `#define NVWAL_STATS_METRICS(X)` list: the lines
    joined by their trailing backslashes, up to the first line that
    does not continue."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if re.match(rf"#define\s+{LIST_MACRO}\(X\)", line):
            body = []
            while line.rstrip().endswith("\\"):
                i += 1
                line = lines[i]
                body.append(line.rstrip().rstrip("\\"))
            return "\n".join(body)
    return ""


def parse_canonical_rows():
    """(identifier, dotted name) per list row, in slot order."""
    return re.findall(r"\bX\(\s*(k\w+)\s*,\s*\"([a-z0-9_.]+)\"\s*\)",
                      metric_list(STATS_HPP.read_text()))


def slot_errors(rows):
    """Rule 0: one slot per name, one name per slot."""
    errors = []
    seen_ids, seen_names = {}, {}
    for slot, (ident, name) in enumerate(rows):
        if ident in seen_ids:
            errors.append(f"src/sim/stats.hpp: {ident} has two slots "
                          f"({seen_ids[ident]} and {slot})")
        if name in seen_names:
            errors.append(f"src/sim/stats.hpp: \"{name}\" has two "
                          f"slots ({seen_names[name]} and {slot})")
        seen_ids.setdefault(ident, slot)
        seen_names.setdefault(name, slot)
    # A name declared outside the list would have no slot at all. List
    # rows read `X(kName, "...")`, so only other declarations match.
    for ident, name in re.findall(
            r"\b(k\w+)\s*(?:=|\{)\s*\"([a-z0-9_.]+)\"",
            STATS_HPP.read_text()):
        errors.append(f"src/sim/stats.hpp: {ident} = \"{name}\" is "
                      f"declared outside {LIST_MACRO} and has no slot")
    return errors


FILE_SUFFIXES = ("hpp", "cpp", "json", "db", "md", "py")


def metric_tokens(text, prefixes):
    """Dotted lowercase tokens whose first segment is a known layer."""
    out = []
    for tok in re.findall(r"[a-z][a-z0-9_]*(?:\.[a-zA-Z0-9_*]+)+", text):
        if (tok.split(".", 1)[0] in prefixes
                and tok.rsplit(".", 1)[-1] not in FILE_SUFFIXES):
            out.append(tok)
    return out


def inline_code(markdown):
    """Backticked spans, honouring ``` fences (naive global pairing
    desynchronises across code blocks)."""
    spans, fenced = [], False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            spans.extend(re.findall(r"`([^`]+)`", line))
    return "\n".join(spans)


def main():
    rows = parse_canonical_rows()
    canonical = {name for _, name in rows}
    if len(canonical) < 20:
        print(f"lint: parsed only {len(canonical)} names from "
              f"{STATS_HPP}; parser out of date?")
        return 1
    prefixes = {n.split(".", 1)[0] for n in canonical}
    errors = slot_errors(rows)

    # -- sweep the sources: span names first, then stray literals ----
    # Tracer span names are a separate namespace recognised by their
    # call sites; collect them across the whole tree before flagging
    # anything, so a test comparing a snapshot entry against a span
    # name ("wal.log_write") is not a violation.
    span_site = re.compile(r"tracer\(\)|tracer\.|TraceSpan")
    literal = re.compile(r"\"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)\"")
    files = []
    for d in SOURCE_DIRS:
        files.extend(p for p in sorted((REPO / d).rglob("*.[ch]pp"))
                     if p != STATS_HPP)

    def candidates(line):
        if "#include" in line:
            return []
        return [n for n in literal.findall(line)
                if n.split(".", 1)[0] in prefixes
                and n.rsplit(".", 1)[-1] not in FILE_SUFFIXES]

    span_names = set()
    for path in files:
        for line in path.read_text().splitlines():
            if span_site.search(line):
                span_names.update(candidates(line))

    for path in files:
        rel = path.relative_to(REPO)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in candidates(line):
                if name in canonical or name in span_names:
                    continue
                errors.append(
                    f"{rel}:{lineno}: metric literal \"{name}\" is "
                    f"not a canonical name in src/sim/stats.hpp")

    # -- docs must cover every canonical name ------------------------
    doc_text = "\n".join(p.read_text() for p in DOCS)
    doc_tokens = set(metric_tokens(
        inline_code(doc_text), prefixes))
    wildcards = [re.compile("^" + re.escape(t).replace(r"\*",
                                                       r"[a-z0-9_]+") + "$")
                 for t in doc_tokens if "*" in t]
    for name in sorted(canonical):
        if name in doc_text:
            continue
        if any(w.match(name) for w in wildcards):
            continue
        errors.append(
            f"src/sim/stats.hpp: \"{name}\" is not documented in "
            f"docs/MODEL.md or docs/OBSERVABILITY.md")

    # -- docs must not keep rows for renamed-away names --------------
    for tok in sorted(doc_tokens):
        if "*" in tok or tok in canonical or tok in span_names:
            continue
        errors.append(
            f"docs: `{tok}` is neither a canonical name in "
            f"src/sim/stats.hpp nor a tracer span used in src/")

    for e in errors:
        print(e)
    if not errors:
        print(f"{len(canonical)} canonical names in {len(rows)} slots, "
              f"{len(span_names)} tracer spans: docs and sources in "
              f"sync")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
