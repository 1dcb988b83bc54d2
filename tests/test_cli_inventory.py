"""The verbs and flags the docs name are the ones the parser has.

The inventory is derived, not listed: the top-level subcommands of
``build_parser()``.  ``cli.py``'s module docstring and README.md each
name verbs as ``python -m repro <verb>`` (``a | b | c`` for a family);
a verb added without a line in both, or a line left behind by a deleted
(or never existing) verb, fails here.  Every ``--flag`` on such a line,
in those two and in EXPERIMENTS.md, DESIGN.md and the verify skill, must
be an option of that verb's (sub)parser: a line left behind by a deleted
flag fails too.
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


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """``parser``'s subcommand parsers by name (empty when it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def parser_verbs() -> set:
    return set(subcommands(cli.build_parser()))


def verbs_named_in(text: str) -> set:
    return {verb for family in NAMED.findall(text)
            for verb in family.split(" | ")}


def doc_text(source: str) -> str:
    return (cli.__doc__ if source == "cli.py docstring"
            else (REPO / source).read_text())


@pytest.mark.parametrize("source", ["cli.py docstring", "README.md"])
def test_docs_name_exactly_the_verbs(source):
    named, real = verbs_named_in(doc_text(source)), parser_verbs()
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


#: Where ``python -m repro`` lines with flags live.
FLAG_SOURCES = ("cli.py docstring", "README.md", "EXPERIMENTS.md",
                "DESIGN.md", ".claude/skills/verify/SKILL.md")
#: One command: the verb family, then its words up to the end of the line,
#: an inline-code backtick, a comment, or a shell pipe or separator.
COMMAND = re.compile(rf"python -m repro ({VERB}(?: \| {VERB})*)([^`#|;&\n]*)")
FLAG = re.compile(r"--[a-z][a-z0-9-]*")


def flag_uses(text: str):
    """``(command, parser, flag)`` for every ``--flag`` on a
    ``python -m repro`` line of ``text``; a subcommand (``fuzz run``,
    ``similarity build|stats``) resolves to its own parser."""
    verbs = subcommands(cli.build_parser())
    for family, rest in COMMAND.findall(text.replace("\\\n", " ")):
        words = rest.split()
        for verb in family.split(" | "):
            parser = verbs.get(verb)
            if parser is None:
                continue    # An unknown verb fails the test above.
            targets = [parser]
            children = subcommands(parser)
            if children and words:
                named = words[0].split("|")
                if all(name in children for name in named):
                    targets = [children[name] for name in named]
            for word in words:
                flag = FLAG.fullmatch(word.strip("[]()").split("=")[0])
                if flag is None:
                    continue
                for target in targets:
                    yield f"{verb} {rest.strip()}", target, flag.group()


@pytest.mark.parametrize("source", FLAG_SOURCES)
def test_docs_name_only_real_flags(source):
    unknown = [f"{command!r}: {flag}"
               for command, parser, flag in flag_uses(doc_text(source))
               if flag not in parser._option_string_actions]
    assert not unknown, f"{source}: flags no parser takes: {unknown}"


def test_the_flag_scan_resolves_subcommands():
    """The scan itself: flags are found, a subcommand's flag is checked
    against the subcommand's parser, and a wrapped line is one command."""
    text = ("python -m repro fuzz run --seed 0 --count 200   # --out\n"
            "`python -m repro submit --app X` and `--nope`\n"
            "python -m repro ptx --app XSBench \\\n    --config uu\n")
    found = [(parser.prog, flag) for _, parser, flag in flag_uses(text)]
    assert [flag for _, flag in found] == ["--seed", "--count", "--app",
                                           "--app", "--config"]
    assert found[0][0].endswith("fuzz run")


def test_summary_takes_no_profile_flag(capsys):
    """``summary --profile`` is gone: speed is measured by the perf
    benchmark, and no exhibit reads a per-category cycle split."""
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["summary", "--profile"])
    assert "unrecognized arguments: --profile" in capsys.readouterr().err
