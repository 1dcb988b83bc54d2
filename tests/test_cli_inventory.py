"""The verbs the docs name are exactly the verbs the parser has.

The inventory is derived, not listed: the top-level subcommands of
``build_parser()``.  ``cli.py``'s module docstring and README.md each
name verbs as ``python -m repro <verb>`` (``a | b | c`` for a family);
a verb added without a line in both, or a line left behind by a deleted
(or never existing) verb, fails here.
"""

from __future__ import annotations

import argparse
import pathlib
import re

import pytest

from repro import cli

REPO = pathlib.Path(__file__).resolve().parent.parent
VERB = r"[a-z][a-z0-9-]*"
NAMED = re.compile(rf"python -m repro ({VERB}(?: \| {VERB})*)")


def parser_verbs() -> set:
    (sub,) = [action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return set(sub.choices)


def verbs_named_in(text: str) -> set:
    return {verb for family in NAMED.findall(text)
            for verb in family.split(" | ")}


@pytest.mark.parametrize("source", ["cli.py docstring", "README.md"])
def test_docs_name_exactly_the_verbs(source):
    text = (cli.__doc__ if source == "cli.py docstring"
            else (REPO / source).read_text())
    named, real = verbs_named_in(text), parser_verbs()
    assert named == real, (
        f"{source}: undocumented: {sorted(real - named)}; "
        f"documented but absent: {sorted(named - real)}")


ENGINE_SET = re.compile(r"--engine \{([a-z,]+)\}")


def test_engine_choices_are_exactly_the_engines():
    """The parser offers, and both docs name, ``gpu.machine.ENGINES``."""
    from repro.gpu.machine import ENGINES

    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["fig6", "--engine", "batched"])
    for engine in ENGINES:
        args = cli.build_parser().parse_args(["fig6", "--engine", engine])
        assert args.engine == engine
    for source, text in (("cli.py docstring", cli.__doc__),
                         ("README.md", (REPO / "README.md").read_text())):
        named = ENGINE_SET.findall(text)
        assert named, f"{source} no longer spells the --engine choices"
        assert all(set(choice.split(",")) == set(ENGINES)
                   for choice in named), (source, named)
