#!/usr/bin/env python3
"""Protocol exhaustiveness lint: the wire enums and their handlers agree.

The wire protocol has three surfaces that must stay closed over the same
sets, and nothing but convention keeps them aligned when an opcode or an
error category is added:

  P1 (opcode density). `Opcode` members are contiguous -- OpcodeKnown is a
      range check, so a gap would admit a value no switch handles.
  P2 (range bounds). OpcodeKnown's bounds name the *first and last enum
      members* (not copied literals), so the range moves with the enum.
  P3 (dispatch exhaustiveness). Every `Opcode` member appears as a case
      label in each opcode switch: DecodeRequest, DecodeResponse and
      EncodeResponse (protocol.cc) and the server's ExecuteOne dispatch
      (server.cc). The switches carry no `default:`, so clang's
      -Wswitch backstops this at compile time; the lint holds even for
      switches a later refactor might give a default arm.
  P4 (client encodability). Every opcode `kX` has a client-side
      `EncodeX(...)` declared in the protocol header -- an opcode the
      client cannot emit is untestable dead protocol.
  P5 (wire-status closure). Every `Status::Code` member is carriable in
      the response status byte: the Code enum is dense, fits uint8, and
      `WireStatusKnown` -- the single choke point for the range check --
      names the *last* Code member as its bound. Raw
      `> static_cast<uint8_t>(Status::Code::...)` comparisons anywhere
      else in protocol.cc are flagged: they are copies of the choke point
      that will rot when a tenth error category lands.

Usage:
  python3 scripts/lint/protocol_exhaustiveness_lint.py [--root DIR]
      [--protocol-header H] [--protocol-source CC] [--server-source CC]
      [--status-header H]

The overrides exist for the self-test fixtures.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_framework as fw  # noqa: E402

DEFAULT_PROTOCOL_H = os.path.join("src", "server", "protocol.h")
DEFAULT_PROTOCOL_CC = os.path.join("src", "server", "protocol.cc")
DEFAULT_SERVER_CC = os.path.join("src", "server", "server.cc")
DEFAULT_STATUS_H = os.path.join("src", "util", "status.h")

# (file attribute, function) pairs whose switch must cover every opcode.
OPCODE_SWITCHES = (
    ("protocol_source", "DecodeRequest"),
    ("protocol_source", "DecodeResponse"),
    ("protocol_source", "EncodeResponse"),
    ("server_source", "ExecuteOne"),
)

_CASE_RE = re.compile(r"\bcase\s+(?:[A-Za-z_]\w*::)*(k\w+)\s*:")
_RAW_STATUS_CMP_RE = re.compile(
    r">\s*static_cast<\s*uint8_t\s*>\s*\(\s*Status::Code::")


def find_bodies(stripped, fn_name):
    """Definitions of `fn_name`, free or out-of-class qualified
    (PnwServer::ExecuteOne defines ExecuteOne)."""
    bodies = list(fw.find_function_bodies(stripped, fn_name))
    for match in re.finditer(
            r"\b([A-Za-z_]\w*::" + re.escape(fn_name) + r")\s*\(", stripped):
        bodies.extend(fw.find_function_bodies(stripped, match.group(1)))
    return bodies


def case_labels(stripped, fn_name):
    labels = set()
    for start, end, _ in find_bodies(stripped, fn_name):
        for match in _CASE_RE.finditer(stripped, start, end):
            labels.add(match.group(1))
    return labels


def check_density(members, enum_desc, rel, diagnostics):
    values = [v for _, v in members]
    for (name, value), prev in zip(members[1:], values):
        if value != prev + 1:
            diagnostics.append(fw.Diagnostic(
                rel, 1,
                f"{enum_desc} member {name} = {value} leaves a gap after "
                f"{prev} -- the range check would admit an unhandled "
                f"value"))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None)
    parser.add_argument("--protocol-header", default=None)
    parser.add_argument("--protocol-source", default=None)
    parser.add_argument("--server-source", default=None)
    parser.add_argument("--status-header", default=None)
    args = parser.parse_args()
    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))

    paths = {
        "protocol_header": os.path.abspath(
            args.protocol_header or os.path.join(root, DEFAULT_PROTOCOL_H)),
        "protocol_source": os.path.abspath(
            args.protocol_source or os.path.join(root, DEFAULT_PROTOCOL_CC)),
        "server_source": os.path.abspath(
            args.server_source or os.path.join(root, DEFAULT_SERVER_CC)),
        "status_header": os.path.abspath(
            args.status_header or os.path.join(root, DEFAULT_STATUS_H)),
    }

    try:
        stripped = {key: fw.strip_comments(fw.read_text(path))
                    for key, path in paths.items()}
        rel = {key: fw.rel_path(path, root) for key, path in paths.items()}
        diagnostics = []

        # --- Opcode enum ---------------------------------------------------
        opcodes = fw.parse_enum(stripped["protocol_header"], "Opcode")
        if not opcodes:
            raise fw.LintError(
                f"enum Opcode not found in {rel['protocol_header']}")
        check_density(opcodes, "Opcode", rel["protocol_header"], diagnostics)

        # P2: OpcodeKnown brackets the enum with its first/last members.
        bodies = fw.find_function_bodies(stripped["protocol_source"],
                                         "OpcodeKnown")
        if not bodies:
            diagnostics.append(fw.Diagnostic(
                rel["protocol_source"], 1,
                "OpcodeKnown is not defined -- unknown opcodes would reach "
                "the dispatch switches"))
        else:
            start, end, line = bodies[0]
            body = stripped["protocol_source"][start:end]
            for which, member in (("lower", opcodes[0][0]),
                                  ("upper", opcodes[-1][0])):
                if not re.search(r"\bOpcode::" + member + r"\b", body):
                    diagnostics.append(fw.Diagnostic(
                        rel["protocol_source"], line,
                        f"OpcodeKnown's {which} bound does not reference "
                        f"Opcode::{member} (the {which}most enum member) -- "
                        f"the range check will not move with the enum"))

        # P3: every opcode switch handles every member.
        for key, fn_name in OPCODE_SWITCHES:
            labels = case_labels(stripped[key], fn_name)
            if not labels:
                diagnostics.append(fw.Diagnostic(
                    rel[key], 1,
                    f"{fn_name} has no opcode switch (or the function is "
                    f"missing) -- cannot prove dispatch exhaustiveness"))
                continue
            for member, _ in opcodes:
                if member not in labels:
                    diagnostics.append(fw.Diagnostic(
                        rel[key], 1,
                        f"{fn_name} does not handle Opcode::{member} -- "
                        f"add a case (even an explicit reject) so the "
                        f"switch stays exhaustive"))

        # P4: client-side encoder per opcode.
        for member, _ in opcodes:
            encoder = "Encode" + (member[1:] if member.startswith("k")
                                  else member)
            if not re.search(r"\bvoid\s+" + encoder + r"\s*\(",
                             stripped["protocol_header"]):
                diagnostics.append(fw.Diagnostic(
                    rel["protocol_header"], 1,
                    f"Opcode::{member} has no client encoder `void "
                    f"{encoder}(...)` in the protocol header -- the opcode "
                    f"cannot be emitted or round-trip tested"))

        # --- Status::Code / wire status ------------------------------------
        codes = fw.parse_enum(stripped["status_header"], "Code")
        if not codes:
            raise fw.LintError(
                f"enum Status::Code not found in {rel['status_header']}")
        check_density(codes, "Status::Code", rel["status_header"],
                      diagnostics)
        last_code, last_value = codes[-1]
        if codes[0][1] != 0 or last_value > 255:
            diagnostics.append(fw.Diagnostic(
                rel["status_header"], 1,
                f"Status::Code must span 0..<=255 to ride the response "
                f"status byte (found {codes[0][1]}..{last_value})"))

        wire_bodies = fw.find_function_bodies(stripped["protocol_source"],
                                              "WireStatusKnown")
        if not wire_bodies:
            diagnostics.append(fw.Diagnostic(
                rel["protocol_source"], 1,
                "WireStatusKnown is not defined -- wire-status validation "
                "has no choke point"))
        else:
            start, end, line = wire_bodies[0]
            body = stripped["protocol_source"][start:end]
            if not re.search(r"\bStatus::Code::" + last_code + r"\b", body):
                diagnostics.append(fw.Diagnostic(
                    rel["protocol_source"], line,
                    f"WireStatusKnown's bound does not reference "
                    f"Status::Code::{last_code} (the last member) -- a new "
                    f"error category would be rejected as corruption"))
            # P5b: no ad-hoc copies of the range check elsewhere.
            src = stripped["protocol_source"]
            for match in _RAW_STATUS_CMP_RE.finditer(src):
                if start <= match.start() < end:
                    continue
                diagnostics.append(fw.Diagnostic(
                    rel["protocol_source"],
                    fw.line_of(src, match.start()),
                    "raw wire-status range comparison outside "
                    "WireStatusKnown -- route it through the choke point "
                    "so the bound cannot fork"))
    except fw.LintError as exc:
        print(f"protocol_exhaustiveness_lint: {exc}")
        return 2
    return fw.finish(
        "protocol-exhaustiveness violation", diagnostics,
        f"{len(opcodes)} opcode(s) x {len(OPCODE_SWITCHES)} switch(es) "
        f"handled, {len(codes)} status code(s) wire-mappable")


if __name__ == "__main__":
    sys.exit(main())
