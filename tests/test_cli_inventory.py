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


def parsers(parser: argparse.ArgumentParser):
    """``parser`` and every (sub)parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from parsers(child)


def test_engine_choices_are_exactly_the_engines(capsys):
    """No verb offers an engine: ``gpu.machine.ENGINES`` is reachable
    only as a ``SimtMachine`` argument, and neither doc spells a flag
    for it."""
    from repro.gpu.machine import ENGINES

    offering = [p.prog for p in parsers(cli.build_parser())
                if "--engine" in p._option_string_actions]
    assert offering == []
    for argv in (["fig6"], ["submit", "--app", "complex"]):
        for engine in ENGINES:
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv + ["--engine", engine])
            assert "unrecognized arguments: --engine" in \
                capsys.readouterr().err
    for source, text in (("cli.py docstring", cli.__doc__),
                         ("README.md", (REPO / "README.md").read_text())):
        assert "--engine" not in text, source
