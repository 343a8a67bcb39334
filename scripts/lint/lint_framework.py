#!/usr/bin/env python3
"""Shared framework for the second-generation architecture lints.

The first-generation lint (metrics_reconcile_lint.py) is a standalone regex
checker. This module is the substrate for the lints
that reason about *program structure* -- discarded return values, codec
write/read symmetry, enum/dispatch exhaustiveness. Every lint has one
engine: a deterministic tokenizer over comment-stripped source, with no
third-party imports, so the lints and their self-test run the same on any
machine and in CI. What a tokenizer cannot see (the result type of an
arbitrary call) the compiler already enforces: Status and Result are
``[[nodiscard]]`` and every build uses -Werror. The module provides:

  * **Text utilities**: comment stripping that preserves line numbers,
    brace-matched function-body extraction, enum parsing with value
    assignment, ordered call-sequence extraction.

  * **X-macro field lists**: the `X(type, name)` entries of the metric
    ledgers' `#define LIST(X)` lists, which the metrics-reconcile and
    snapshot-schema lints read.

  * **The fallible-call registry**: Status/Result-returning names harvested
    from src/ headers.

  * **Stable fingerprints** (sha256 over normalized structures) and the
    committed-baseline gate used by the snapshot-schema lint.

  * **Diagnostics** in the house format (``path:line: message`` under a
    counted header), so tests/lint_selftest/run_selftest.py can assert on
    stable substrings.
"""

import hashlib
import json
import os
import re


class LintError(Exception):
    """A lint could not run (not a finding -- a broken precondition)."""


# ---------------------------------------------------------------------------
# Text utilities
# ---------------------------------------------------------------------------

def read_text(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


_LINE_COMMENT_RE = re.compile(r"//[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def strip_comments(text):
    """Blank out comments and string literals, preserving every newline so
    offsets still map to the original line numbers."""

    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))

    text = _BLOCK_COMMENT_RE.sub(blank, text)
    text = _STRING_RE.sub(blank, text)
    return _LINE_COMMENT_RE.sub(blank, text)


def line_of(text, index):
    return text.count("\n", 0, index) + 1


_REQUIRES_RE = re.compile(r"\brequires\s*\{")


def blank_unevaluated(stripped):
    """Blank the bodies of `requires { ... }` expressions: their operands
    are unevaluated, so a "call" inside one neither runs nor discards."""
    out = stripped
    for match in list(_REQUIRES_RE.finditer(stripped)):
        open_brace = stripped.index("{", match.start())
        end = match_brace(stripped, open_brace)
        if end < 0:
            continue
        body = out[open_brace + 1:end - 1]
        out = (out[:open_brace + 1]
               + re.sub(r"[^\n]", " ", body)
               + out[end - 1:])
    return out


def match_paren(text, open_index):
    """Index just past the ')' matching the '(' at open_index; -1 if torn."""
    depth = 0
    for i in range(open_index, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_brace(text, open_index):
    """Index just past the '}' matching the '{' at open_index; -1 if torn."""
    depth = 0
    for i in range(open_index, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def find_function_bodies(stripped, name):
    """[(body_start, body_end, header_line)] for every definition of `name`
    (optionally qualified, e.g. 'OpLogWriter::Append' finds exactly that).

    Matches `name (args) ... {` and brace-matches the body; declarations
    (`;` before the `{`) are skipped.
    """
    if "::" in name:
        pattern = re.compile(
            r"\b" + re.escape(name) + r"\s*\(")
    else:
        # Unqualified: accept an optional qualifier chain before the name
        # but reject foo::name matching plain `name` -- anchor on a
        # non-colon character before it.
        pattern = re.compile(r"(?<![:\w])" + re.escape(name) + r"\s*\(")
    bodies = []
    for match in pattern.finditer(stripped):
        close = match_paren(stripped, match.end() - 1)
        if close < 0:
            continue
        # Skip trailing qualifiers (const, noexcept, -> T) up to `{` or `;`.
        i = close
        while i < len(stripped) and stripped[i] not in "{;":
            i += 1
        if i >= len(stripped) or stripped[i] == ";":
            continue
        end = match_brace(stripped, i)
        if end < 0:
            continue
        bodies.append((i, end, line_of(stripped, match.start())))
    return bodies


_ENUM_RE_TEMPLATE = r"enum\s+(?:class\s+|struct\s+)?{name}\s*(?::[^{{]*)?\{{"


def parse_enum(stripped, enum_name):
    """Ordered [(member, value)] parsed from `enum [class] NAME [: T] {...}`.

    Values follow C++ rules: explicit `= N` (decimal or hex) resets the
    counter, everything else increments. Non-literal initializers fail the
    lint loudly rather than guessing.
    """
    match = re.search(_ENUM_RE_TEMPLATE.format(name=re.escape(enum_name)),
                      stripped)
    if match is None:
        return None
    end = match_brace(stripped, match.end() - 1)
    body = stripped[match.end():end - 1]
    members = []
    next_value = 0
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" in chunk:
            name_part, _, value_part = chunk.partition("=")
            value_part = value_part.strip().rstrip("uUlL")
            try:
                value = int(value_part, 0)
            except ValueError as exc:
                raise LintError(
                    f"enum {enum_name}: non-literal initializer "
                    f"{value_part!r} is beyond this parser") from exc
            members.append((name_part.strip(), value))
            next_value = value + 1
        else:
            members.append((chunk, next_value))
            next_value += 1
    return members


def text_call_sequence(stripped, start, end, names_re):
    """Ordered (callee, line) of calls in stripped[start:end] whose name
    matches `names_re` (which must contain one group for the name)."""
    out = []
    for match in names_re.finditer(stripped, start, end):
        out.append((match.group(1), line_of(stripped, match.start(1))))
    return out


# ---------------------------------------------------------------------------
# X-macro field lists
# ---------------------------------------------------------------------------

# A `#define LIST(X)` body (continuation lines already spliced), and one
# item of it: an `X(type, name)` field entry or an `OTHER(X)` reference to
# another list.
_LIST_DEFINE_RE = re.compile(
    r"^[ \t]*#[ \t]*define[ \t]+(\w+)\(\s*X\s*\)(.*)$", re.MULTILINE)
_LIST_ITEM_RE = re.compile(
    r"\bX\(\s*([^,()]+?)\s*,\s*(\w+)\s*\)|\b(\w+)\(\s*X\s*\)")


def field_lists(text):
    """{list: [(type, name), ...]} for every X-macro field list defined in
    `text` -- a `#define LIST(X)` whose body holds one `X(type, name)` entry
    per field. A list that expands another (`OTHER(X)`) gets its entries
    inline, in order."""
    spliced = strip_comments(text).replace("\\\n", " ")
    bodies = {m.group(1): m.group(2)
              for m in _LIST_DEFINE_RE.finditer(spliced)}

    def expand(name):
        entries = []
        for item in _LIST_ITEM_RE.finditer(bodies[name]):
            if item.group(2):
                entries.append((item.group(1), item.group(2)))
            elif item.group(3) in bodies:
                entries.extend(expand(item.group(3)))
        return entries

    return {name: expand(name) for name in bodies}


def header_field_lists(root):
    """field_lists() merged over every header under root/src."""
    lists = {}
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for filename in sorted(filenames):
            if filename.endswith(".h"):
                lists.update(field_lists(
                    read_text(os.path.join(dirpath, filename))))
    return lists


# ---------------------------------------------------------------------------
# Fallible-call registry
# ---------------------------------------------------------------------------

# A declaration returning Status or Result<...>: the registry of names the
# lints treat as fallible. Covers free functions, methods, and
# `static Result<T> Open(...)`-style factories.
_FALLIBLE_DECL_RE = re.compile(
    r"\b(?:Status|Result\s*<[^;{}()]*>)\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")

# Factory constructors of Status itself are fallible-typed but never
# side-effecting; a discarded `Status::NotFound(...)` is dead code the
# compiler already flags, and their names (OK, NotFound, ...) are too
# generic for a name-based registry.
_REGISTRY_EXCLUDE = frozenset((
    "OK", "NotFound", "AlreadyExists", "InvalidArgument", "OutOfSpace",
    "FailedPrecondition", "Internal", "Unimplemented", "Corruption",
    "Overloaded", "status",
))

# Best-effort POSIX calls whose int result encodes failure: dropping one is
# legal only with a justification comment (the satellite audit of
# setsockopt/fsync drops rides on this set).
BEST_EFFORT_SYSCALLS = frozenset((
    "setsockopt", "fsync", "fdatasync", "ftruncate", "fclose", "close",
    "shutdown", "unlink", "fflush",
))


def collect_fallible_names(root, extra_files=()):
    """Names of Status/Result-returning APIs declared in src/ headers (plus
    any explicitly listed files -- fixtures declare their own)."""
    names = set()
    paths = []
    src = os.path.join(root, "src")
    if os.path.isdir(src):
        for dirpath, _, filenames in os.walk(src):
            for filename in sorted(filenames):
                if filename.endswith(".h"):
                    paths.append(os.path.join(dirpath, filename))
    paths.extend(extra_files)
    for path in paths:
        stripped = strip_comments(read_text(path))
        for match in _FALLIBLE_DECL_RE.finditer(stripped):
            names.add(match.group(1))
    return names - _REGISTRY_EXCLUDE


# ---------------------------------------------------------------------------
# Fingerprints + committed baseline gate
# ---------------------------------------------------------------------------

def stable_fingerprint(obj):
    """sha256 over a canonical JSON encoding: key order and whitespace are
    pinned, so the fingerprint moves only when the *structure* moves."""
    encoded = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def load_keyvalue_file(path):
    """Parse `key=value` lines (the committed fingerprint format)."""
    if not os.path.exists(path):
        return None
    out = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_keyvalue_file(path, header_lines, mapping):
    with open(path, "w", encoding="utf-8") as handle:
        for line in header_lines:
            handle.write(f"# {line}\n")
        for key in sorted(mapping):
            handle.write(f"{key}={mapping[key]}\n")


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

class Diagnostic:
    def __init__(self, rel, line, message):
        self.rel = rel
        self.line = line
        self.message = message

    def render(self):
        return f"{self.rel}:{self.line}: {self.message}"


def finish(noun, diagnostics, ok_message):
    """Print findings in the house format and return the exit code."""
    if diagnostics:
        print(f"{len(diagnostics)} {noun}(s):")
        for diag in sorted(diagnostics, key=lambda d: (d.rel, d.line)):
            print(f"  {diag.render()}")
        return 1
    print(f"OK: {ok_message}")
    return 0


def rel_path(path, root):
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
