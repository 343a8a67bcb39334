#!/usr/bin/env python3
"""Error-discipline lint: no fallible call's Status is silently dropped.

The store's error vocabulary is `Status` / `Result<T>` (src/util/status.h).
A dropped Status is the bug class that survives green test suites: the
rollback that failed, the fsync that didn't happen, the bench whose Put
loop quietly stopped writing. Three layers make drops impossible to miss,
and this lint is the analysis-time keystone of the stack:

  1. The *types* are `[[nodiscard]]`: every function returning Status or
     Result by value warns at any call site that ignores the result, and
     the tree builds with -Werror. Rule S1 pins the attribute so it cannot
     be quietly removed.
  2. A deliberate drop must be spelled `(void)Call();` **with an adjacent
     justification comment** containing `status-dropped: <why>` (same line
     or the comment block directly above). Rule S2 rejects unjustified
     `(void)` drops --
     including best-effort POSIX calls (fsync, setsockopt, ...) whose int
     result encodes failure.
  3. Rule S3 rejects bare discarded calls outright (belt to S1's braces:
     it holds even in builds without -Werror). It matches calls to a
     registry of fallible names harvested from src/ headers; the
     compiler's type-precise [[nodiscard]] check covers the rest.

Rule S4 keeps the vocabulary itself closed: every `Status::Code` member
must have its factory (`static Status X(...)`) and predicate
(`bool IsX()`), so a new error category is usable -- and testable -- the
day it is added.

Usage:
  python3 scripts/lint/status_discipline_lint.py [--root DIR]
      [--status-header H] [files...]

Passing explicit files (the self-test) lints only those; the fallible-name
registry then also includes declarations inside the listed files, so
fixtures can declare their own fallible APIs.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_framework as fw  # noqa: E402

JUSTIFICATION_MARKER = "status-dropped:"
DEFAULT_DIRS = ("src", "bench", "examples", "tests")

# (void) cast of a call: capture the receiver chain and final callee name.
VOID_DROP_RE = re.compile(
    r"\(\s*void\s*\)\s*(?:::\s*)?"
    r"((?:[A-Za-z_]\w*\s*(?:::|\.|->)\s*)*)"
    r"([A-Za-z_]\w*)\s*\(")


def bare_call_re(name):
    """A statement that is exactly `receiver-chain name(...)` -- the call's
    value goes nowhere. Anchored on a statement boundary so assignments,
    returns, and macro arguments never match."""
    return re.compile(
        r"(?<=[;{}])\s*"
        r"((?:[A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*[A-Za-z_]\w*)*\s*(?:\.|->)\s*)"
        r"|(?:[A-Za-z_]\w*\s*::\s*)+)?"
        r"(" + re.escape(name) + r")\s*\(")


def syscall_shadowed(name, prefix):
    """`out.close()` is ofstream::close (void), not POSIX close(2): a
    best-effort-syscall name reached through a member receiver is a
    different function and not this lint's business."""
    return (name in fw.BEST_EFFORT_SYSCALLS and prefix is not None
            and ("." in prefix or "->" in prefix))


def default_targets(root):
    targets = []
    for top in DEFAULT_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            if "lint_selftest" in dirpath:
                continue  # fixtures seed violations on purpose
            for name in sorted(filenames):
                if name.endswith((".cc", ".cpp", ".h")):
                    targets.append(os.path.join(dirpath, name))
    return targets


def has_justification(original_lines, line):
    """True when `status-dropped:` appears on the drop's line or anywhere
    in the contiguous `//` comment block directly above it."""
    if 0 <= line - 1 < len(original_lines) and \
            JUSTIFICATION_MARKER in original_lines[line - 1]:
        return True
    idx = line - 2
    while 0 <= idx < len(original_lines) and \
            original_lines[idx].lstrip().startswith("//"):
        if JUSTIFICATION_MARKER in original_lines[idx]:
            return True
        idx -= 1
    return False


def check_attributes(status_header, root, diagnostics):
    """S1: the [[nodiscard]] class attributes are present in status.h."""
    rel = fw.rel_path(status_header, root)
    stripped = fw.strip_comments(fw.read_text(status_header))
    for class_name in ("Status", "Result"):
        if not re.search(
                r"class\s+\[\[\s*nodiscard\s*\]\]\s+" + class_name + r"\b",
                stripped):
            diagnostics.append(fw.Diagnostic(
                rel, 1,
                f"class {class_name} is not declared [[nodiscard]] -- the "
                f"type-level attribute is what makes every dropped "
                f"{class_name} a compile error"))


def check_code_vocabulary(status_header, root, diagnostics):
    """S4: each Status::Code member has its factory and predicate."""
    rel = fw.rel_path(status_header, root)
    stripped = fw.strip_comments(fw.read_text(status_header))
    members = fw.parse_enum(stripped, "Code")
    if members is None:
        diagnostics.append(fw.Diagnostic(
            rel, 1, "Status::Code enum not found in the status header"))
        return
    for member, _ in members:
        if member == "kOk":
            continue  # spelled ok(), constructed by Status()
        name = member[1:] if member.startswith("k") else member
        if not re.search(r"\bstatic\s+Status\s+" + name + r"\s*\(",
                         stripped):
            diagnostics.append(fw.Diagnostic(
                rel, 1,
                f"Status::Code::{member} has no `static Status {name}(...)` "
                f"factory -- the error category is unconstructible"))
        if not re.search(r"\bbool\s+Is" + name + r"\s*\(", stripped):
            diagnostics.append(fw.Diagnostic(
                rel, 1,
                f"Status::Code::{member} has no `bool Is{name}()` predicate "
                f"-- callers cannot dispatch on the category"))


def discards(stripped, fallible):
    """[(line, name, kind)] of discarded calls to `fallible` names; kind is
    'bare' (expression statement) or 'void' ((void)-cast)."""
    stripped = fw.blank_unevaluated(stripped)
    out = []
    for match in VOID_DROP_RE.finditer(stripped):
        name = match.group(2)
        if name in fallible and not syscall_shadowed(name, match.group(1)):
            out.append((fw.line_of(stripped, match.start()), name, "void"))
    for name in fallible:
        for match in bare_call_re(name).finditer(stripped):
            if syscall_shadowed(name, match.group(1)):
                continue
            close = fw.match_paren(stripped, match.end() - 1)
            if close < 0:
                continue
            tail = stripped[close:close + 8].lstrip()
            if tail.startswith(";"):
                out.append((fw.line_of(stripped, match.start(2)), name,
                            "bare"))
    return out


def lint_file(path, root, fallible, diagnostics):
    rel = fw.rel_path(path, root)
    original = fw.read_text(path)
    original_lines = original.split("\n")
    stripped = fw.strip_comments(original)

    seen = set()
    for line, name, kind in discards(stripped, fallible):
        if (line, name) in seen:
            continue
        seen.add((line, name))
        if kind == "bare":
            diagnostics.append(fw.Diagnostic(
                rel, line,
                f"discarded {name}() result -- handle the Status, return "
                f"it, or (void)-drop it with a '{JUSTIFICATION_MARKER}' "
                f"justification"))
        elif not has_justification(original_lines, line):
            diagnostics.append(fw.Diagnostic(
                rel, line,
                f"(void)-dropped {name}() without an adjacent "
                f"'{JUSTIFICATION_MARKER} <why>' comment"))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None)
    parser.add_argument("--status-header", default=None,
                        help="override the Status header (self-test mode)")
    parser.add_argument("files", nargs="*")
    args = parser.parse_args()
    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    try:
        targets = ([os.path.abspath(f) for f in args.files]
                   if args.files else default_targets(root))
        status_header = os.path.abspath(
            args.status_header
            or os.path.join(root, "src", "util", "status.h"))

        fallible = fw.collect_fallible_names(
            root, extra_files=[f for f in targets if f != status_header])
        fallible |= fw.BEST_EFFORT_SYSCALLS

        diagnostics = []
        check_attributes(status_header, root, diagnostics)
        check_code_vocabulary(status_header, root, diagnostics)
        for path in targets:
            lint_file(path, root, fallible, diagnostics)
    except fw.LintError as exc:
        print(f"status_discipline_lint: {exc}")
        return 2
    return fw.finish(
        "status-discipline violation", diagnostics,
        f"{len(targets)} file(s) drop no Status silently "
        f"({len(fallible)} fallible APIs tracked)")


if __name__ == "__main__":
    sys.exit(main())
