"""Every public function under ``src/repro`` is named by some other code.

The inventory is derived, not listed: each ``def`` in ``src/repro`` whose
name has no leading underscore must be named somewhere in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` other than at its own
``def`` — a call, an attribute read, a re-export, a string handed to
``getattr``.  A function left behind by the deletion of its last caller
fails here.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Called only by a framework, by name: ``http.server`` handler hooks.
FRAMEWORK = {"do_GET", "do_POST", "log_message"}


def test_no_public_function_is_left_without_a_reader():
    named = collections.Counter()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (REPO / top).rglob("*.py"):
            if path != pathlib.Path(__file__).resolve():
                named.update(WORD.findall(path.read_text()))
    defined = [(f"{path.relative_to(REPO)}::{node.name}", node.name)
               for path in (REPO / "src" / "repro").rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    own_defs = collections.Counter(name for _, name in defined)
    dead = sorted(where for where, name in defined
                  if named[name] <= own_defs[name]
                  and name not in FRAMEWORK)
    assert not dead, "defined, never named:\n  " + "\n  ".join(dead)
