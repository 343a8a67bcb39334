#!/usr/bin/env python3
"""Self-test for the custom architecture lints (registered with CTest).

A lint that silently stopped matching is worse than no lint: CI keeps
reporting green while the rule it enforced erodes. This test proves each
lint in scripts/lint/ still has teeth by running it three ways:

  1. against a fixture with seeded violations -- must exit nonzero AND
     emit the expected diagnostics (one per seeded violation);
  2. against a clean fixture -- must exit zero (no false positives on the
     sanctioned idioms: inline PhysBucketAddr, aliases, metadata bases);
  3. against the real tree -- must exit zero (the rule actually holds).

Runs under plain python3 with no third-party imports, so the same file
works from CTest, CI, or by hand.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT_DIR = os.path.join(ROOT, "scripts", "lint")
FIXTURES = os.path.join(HERE, "fixtures")

FAILURES = []


def run(args):
    proc = subprocess.run([sys.executable] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    return proc.returncode, proc.stdout


def check(name, code, output, want_fail, want_substrings=()):
    ok = (code != 0) if want_fail else (code == 0)
    missing = [s for s in want_substrings if s not in output]
    if ok and not missing:
        print(f"PASS: {name}")
        return
    FAILURES.append(name)
    print(f"FAIL: {name} (exit={code}, wanted "
          f"{'nonzero' if want_fail else 'zero'})")
    for substring in missing:
        print(f"  missing diagnostic: {substring!r}")
    print("  ---- lint output ----")
    for line in output.splitlines():
        print(f"  {line}")


def main():
    address_lint = os.path.join(LINT_DIR, "address_domain_lint.py")
    metrics_lint = os.path.join(LINT_DIR, "metrics_reconcile_lint.py")

    # 1. Address-domain lint rejects the seeded fixture, naming each
    #    violation class.
    code, out = run([address_lint, "--root", ROOT,
                     os.path.join(FIXTURES, "bad_device_call.cc")])
    check("address_domain rejects seeded violations", code, out,
          want_fail=True,
          want_substrings=[
              "5 address-domain violation(s)",
              "WriteDifferential() takes 'bucket_index'",
              "Peek() takes 'bucket_index * 256 + 8'",
              "Read() takes 'bucket_index'",
              "raw Start-Gap Translate() call",
              "ReadCostNs() takes 'phys_other'",
          ])

    # 2. ... and accepts every sanctioned idiom.
    code, out = run([address_lint, "--root", ROOT,
                     os.path.join(FIXTURES, "good_device_call.cc")])
    check("address_domain accepts sanctioned idioms", code, out,
          want_fail=False)

    # 3. ... and the real tree is clean.
    code, out = run([address_lint, "--root", ROOT])
    check("address_domain passes on the tree", code, out, want_fail=False)

    # 4. Metrics-reconcile lint flags the seeded orphan counter of a field
    #    list (and only it: the referenced fields, including those of a
    #    list expanded by another, must not appear as orphans).
    code, out = run([metrics_lint, "--root", ROOT,
                     "--metrics-header",
                     os.path.join(FIXTURES, "bad_metrics.h"),
                     "--surface",
                     os.path.join(FIXTURES, "reconcile_surface.cc")])
    check("metrics_reconcile rejects seeded orphan", code, out,
          want_fail=True,
          want_substrings=["1 unreconciled StoreMetrics counter(s)",
                           "orphan_counter"])

    # 5. ... flags the seeded ServerMetrics orphan too.
    code, out = run([metrics_lint, "--root", ROOT,
                     "--server-header",
                     os.path.join(FIXTURES, "bad_server_metrics.h"),
                     "--surface",
                     os.path.join(FIXTURES, "reconcile_surface.cc")])
    check("metrics_reconcile rejects seeded server orphan", code, out,
          want_fail=True,
          want_substrings=["1 unreconciled ServerMetrics counter(s)",
                           "orphan_server_counter"])

    # 5b. ... flags the seeded ArenaStats orphan (the memory layer's
    #     ledger joined the lint's coverage with the arena allocator).
    code, out = run([metrics_lint, "--root", ROOT,
                     "--arena-header",
                     os.path.join(FIXTURES, "bad_arena_stats.h"),
                     "--surface",
                     os.path.join(FIXTURES, "reconcile_surface.cc")])
    check("metrics_reconcile rejects seeded arena orphan", code, out,
          want_fail=True,
          want_substrings=["1 unreconciled ArenaStats counter(s)",
                           "orphan_arena_gauge"])

    # 6. ... and the real tree is clean (all three ledgers).
    code, out = run([metrics_lint, "--root", ROOT])
    check("metrics_reconcile passes on the tree", code, out,
          want_fail=False,
          want_substrings=["StoreMetrics counters are reconciled",
                           "ServerMetrics counters are reconciled",
                           "ArenaStats counters are reconciled"])

    status_lint = os.path.join(LINT_DIR, "status_discipline_lint.py")
    schema_lint = os.path.join(LINT_DIR, "snapshot_schema_lint.py")
    protocol_lint = os.path.join(LINT_DIR, "protocol_exhaustiveness_lint.py")

    # 7. Status-discipline lint rejects the seeded drops and the degraded
    #    Status header (no [[nodiscard]], missing predicate).
    code, out = run([status_lint, "--root", ROOT,
                     "--status-header",
                     os.path.join(FIXTURES, "bad_status_header.h"),
                     os.path.join(FIXTURES, "bad_status_drop.cc")])
    check("status_discipline rejects seeded violations", code, out,
          want_fail=True,
          want_substrings=[
              "6 status-discipline violation(s)",
              "discarded Flaky() result",
              "(void)-dropped Fetch()",
              "(void)-dropped fsync()",
              "class Status is not declared [[nodiscard]]",
              "class Result is not declared [[nodiscard]]",
              "no `bool IsBoom()` predicate",
          ])

    # 8. ... accepts every sanctioned consumption/drop idiom.
    code, out = run([status_lint, "--root", ROOT,
                     os.path.join(FIXTURES, "good_status_drop.cc")])
    check("status_discipline accepts sanctioned idioms", code, out,
          want_fail=False)

    # 9. ... and the real tree is clean.
    code, out = run([status_lint, "--root", ROOT])
    check("status_discipline passes on the tree", code, out,
          want_fail=False, want_substrings=["drop no Status silently"])

    # 10. Schema lint flags the order-swapped codec pair and the
    #     write-without-read orphan.
    code, out = run([schema_lint, "--root", ROOT,
                     "--codec", os.path.join(FIXTURES, "bad_codec.cc"),
                     "--sections", "--no-fingerprint"])
    check("snapshot_schema rejects seeded codec violations", code, out,
          want_fail=True,
          want_substrings=[
              "EncodeThing/DecodeThing sequences diverge",
              "EncodeOrphan has no matching DecodeOrphan",
          ])

    # 11. ... flags the seeded section asymmetries.
    code, out = run([schema_lint, "--root", ROOT,
                     "--sections", os.path.join(FIXTURES, "bad_sections.cc"),
                     "--no-fingerprint"])
    check("snapshot_schema rejects seeded section violations", code, out,
          want_fail=True,
          want_substrings=[
              "section kSectionAlpha write/read sequences diverge",
              "section kSectionGhost is written but never read back",
          ])

    # 12. The fingerprint gate fires when the schema hash moved but the
    #     version constants did not (fixture baseline vs the real tree).
    code, out = run([schema_lint, "--root", ROOT,
                     "--versions-from",
                     os.path.join(FIXTURES, "fp_versions.h"),
                     "--fingerprint",
                     os.path.join(FIXTURES, "stale.fingerprint")])
    check("snapshot_schema fingerprint gate fires without a bump", code, out,
          want_fail=True,
          want_substrings=["neither kSnapshotVersion nor kManifestVersion "
                           "was bumped"])

    # 13. ... and --update followed by a re-check round-trips to clean.
    with tempfile.TemporaryDirectory() as tmp:
        fp = os.path.join(tmp, "schema.fingerprint")
        code, out = run([schema_lint, "--root", ROOT,
                         "--fingerprint", fp, "--update"])
        check("snapshot_schema --update writes a baseline", code, out,
              want_fail=False)
        code, out = run([schema_lint, "--root", ROOT, "--fingerprint", fp])
        check("snapshot_schema accepts its own baseline", code, out,
              want_fail=False)

    # 13b. The codec expands the StoreMetrics field list, so the schema
    #      moves with the list: in a copy of the tree, swapping a uint64_t
    #      entry with a double entry must trip the gate. The unmodified
    #      copy passes first, so the swap is what fires it.
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"))
        os.makedirs(os.path.join(tmp, "scripts", "lint"))
        shutil.copy(os.path.join(LINT_DIR, "snapshot_schema.fingerprint"),
                    os.path.join(tmp, "scripts", "lint"))
        code, out = run([schema_lint, "--root", tmp])
        check("snapshot_schema passes on a copy of the tree", code, out,
              want_fail=False)
        fields = os.path.join(tmp, "src", "core", "store_metrics_fields.h")
        with open(fields, encoding="utf-8") as handle:
            text = handle.read()
        entries = list(re.finditer(r"X\((uint64_t|double), \w+\)", text))
        a, b = sorted((next(m for m in entries if m.group(1) == kind)
                       for kind in ("uint64_t", "double")),
                      key=lambda m: m.start())
        with open(fields, "w", encoding="utf-8") as handle:
            handle.write(text[:a.start()] + b.group(0)
                         + text[a.end():b.start()] + a.group(0)
                         + text[b.end():])
        code, out = run([schema_lint, "--root", tmp])
        check("snapshot_schema gate fires on a swapped field-list entry",
              code, out, want_fail=True,
              want_substrings=["neither kSnapshotVersion nor "
                               "kManifestVersion was bumped"])

    # 14. ... and the real tree (including the committed fingerprint) is
    #     clean.
    code, out = run([schema_lint, "--root", ROOT])
    check("snapshot_schema passes on the tree", code, out, want_fail=False,
          want_substrings=["write/read symmetric"])

    # 15. Protocol lint flags the unhandled opcode in every surface: the
    #     stale OpcodeKnown bound, the dispatch switches, the missing
    #     client encoder, and the forked wire-status range check.
    code, out = run([protocol_lint, "--root", ROOT,
                     "--protocol-header",
                     os.path.join(FIXTURES, "bad_protocol.h"),
                     "--protocol-source",
                     os.path.join(FIXTURES, "bad_protocol.cc"),
                     "--server-source",
                     os.path.join(FIXTURES, "bad_protocol_server.cc")])
    check("protocol_exhaustiveness rejects seeded violations", code, out,
          want_fail=True,
          want_substrings=[
              "5 protocol-exhaustiveness violation(s)",
              "OpcodeKnown's upper bound does not reference Opcode::kPing",
              "DecodeRequest does not handle Opcode::kPing",
              "ExecuteOne does not handle Opcode::kPing",
              "no client encoder `void EncodePing",
              "raw wire-status range comparison outside WireStatusKnown",
          ])

    # 16. ... and the real tree is clean.
    code, out = run([protocol_lint, "--root", ROOT])
    check("protocol_exhaustiveness passes on the tree", code, out,
          want_fail=False,
          want_substrings=["status code(s) wire-mappable"])

    if FAILURES:
        print(f"{len(FAILURES)} lint self-test failure(s)")
        return 1
    print("All lint self-tests passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
