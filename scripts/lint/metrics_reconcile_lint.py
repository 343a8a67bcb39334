#!/usr/bin/env python3
"""Architecture lint: every metrics counter is reconciled somewhere.

StoreMetrics is the store's accounting ledger, ServerMetrics is the
networked front-end's, and ArenaStats is the memory layer's, and the
repo's discipline is that a counter only earns its slot if some
reconciliation identity checks it -- `gets + get_misses == reads served`,
`frames_in == frames_out + dropped_responses`, `live_bytes <=
high_water_bytes <= slab_bytes`, and so on (see the field comments in
src/core/store_metrics_fields.h, src/server/server_metrics_fields.h, and
src/util/arena.h). A counter nothing reconciles is worse than dead code:
it drifts silently and the paper-figure pipelines keep printing it.

StoreMetrics and ServerMetrics are declared from X-macro field lists
(src/core/store_metrics_fields.h, src/server/server_metrics_fields.h); the
lint reads their `X(type, name)` entries -- the same lists the struct, the
codec and STATS expand. ArenaStats is a plain struct, parsed from its body.
It fails if any field is never referenced by the reconciliation surfaces:
examples/ycsb_runner.cpp (the workload driver's accounting checks, local
and --remote) or any test under tests/. Expansions of the list do not
count: only a check that names the field keeps it honest. Adding a counter
therefore *forces* adding that check.

Usage: python3 scripts/lint/metrics_reconcile_lint.py
           [--root DIR] [--metrics-header FILE] [--server-header FILE]
           [--arena-header FILE] [--surface PATH ...]
The overrides exist for the self-test, which points the lint at fixture
copies with a seeded orphan counter (an override checks only its ledger).
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_framework as fw  # noqa: E402

# `uint64_t slabs = 0;` -- a type token then a name, terminated without
# '(' so methods never match.
STRUCT_FIELD_RE = re.compile(
    r"^\s*(?:uint64_t|uint32_t|double|bool)\s+(\w+)\s*(?:=[^;]*)?;",
    re.MULTILINE)


def list_fields(header_path):
    """Field names of every X-macro list in the header, in order."""
    names = {}
    for entries in fw.field_lists(fw.read_text(header_path)).values():
        names.update((name, None) for _, name in entries)
    return list(names)


def struct_fields(header_path, struct_name):
    text = fw.read_text(header_path)
    match = re.search(r"struct " + struct_name + r" \{(.*?)\n\};",
                      text, re.DOTALL)
    if not match:
        raise SystemExit(f"no `struct {struct_name}` in {header_path}")
    return STRUCT_FIELD_RE.findall(match.group(1))


def surface_files(root, overrides):
    if overrides:
        return [os.path.abspath(p) for p in overrides]
    files = [os.path.join(root, "examples", "ycsb_runner.cpp")]
    tests_dir = os.path.join(root, "tests")
    for name in sorted(os.listdir(tests_dir)):
        if name.endswith((".cc", ".cpp")):
            files.append(os.path.join(tests_dir, name))
    return files


def check_ledger(struct_name, header, surface_text):
    fields = (struct_fields(header, struct_name)
              if struct_name == "ArenaStats" else list_fields(header))
    if not fields:
        print(f"no fields parsed from {header}")
        return 1
    orphans = [f for f in fields
               if not re.search(r"\b" + re.escape(f) + r"\b", surface_text)]
    if orphans:
        print(f"{len(orphans)} unreconciled {struct_name} counter(s):")
        for field in orphans:
            print(f"  {field}: never referenced by ycsb_runner or any "
                  f"test -- wire it into a reconciliation identity")
        return 1
    print(f"OK: all {len(fields)} {struct_name} counters are reconciled.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up)")
    parser.add_argument("--metrics-header", default=None,
                        help="override src/core/store_metrics_fields.h "
                             "(self-test; checks StoreMetrics only)")
    parser.add_argument("--server-header", default=None,
                        help="override src/server/server_metrics_fields.h "
                             "(self-test; checks ServerMetrics only)")
    parser.add_argument("--arena-header", default=None,
                        help="override src/util/arena.h (self-test; "
                             "checks ArenaStats only)")
    parser.add_argument("--surface", action="append", default=[],
                        help="override reconciliation surface files "
                             "(repeatable; self-test)")
    args = parser.parse_args()
    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))

    # An explicit header override narrows the run to that struct, so each
    # self-test case seeds exactly one orphan. The default run (no
    # overrides) checks both ledgers against the real surfaces.
    targets = []
    if args.metrics_header:
        targets.append(("StoreMetrics", args.metrics_header))
    if args.server_header:
        targets.append(("ServerMetrics", args.server_header))
    if args.arena_header:
        targets.append(("ArenaStats", args.arena_header))
    if not targets:
        targets = [
            ("StoreMetrics", os.path.join(root, "src", "core",
                                          "store_metrics_fields.h")),
            ("ServerMetrics", os.path.join(root, "src", "server",
                                           "server_metrics_fields.h")),
            ("ArenaStats", os.path.join(root, "src", "util", "arena.h")),
        ]

    corpus = []
    for path in surface_files(root, args.surface):
        with open(path, encoding="utf-8") as handle:
            corpus.append(handle.read())
    text = "\n".join(corpus)

    result = 0
    for struct_name, header in targets:
        result |= check_ledger(struct_name, header, text)
    return result


if __name__ == "__main__":
    sys.exit(main())
