"""README's environment table names exactly the ``REPRO_*`` variables in use.

The inventory is derived, not listed: every ``REPRO_*`` name that appears
in a source, test or benchmark file.  A variable added without a README
row, or a row left behind by a deleted variable, fails here.
"""

from __future__ import annotations

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"\bREPRO_[A-Z0-9]+(?:_[A-Z0-9]+)*\b")
SECTION = re.compile(r"^## Environment variables\n(.*?)(?=^## )",
                     re.MULTILINE | re.DOTALL)
ENGINES_SECTION = re.compile(r"^## Execution engines\n(.*?)(?=^##)",
                             re.MULTILINE | re.DOTALL)
ENGINE_BULLET = re.compile(r"^\* \*\*`([a-z]+)`\*\*", re.MULTILINE)


def names_in(text: str) -> set:
    return set(NAME.findall(text))


def inventory() -> set:
    found = set()
    for top in ("src", "tests", "benchmarks"):
        for path in (REPO / top).rglob("*"):
            if (path.suffix in (".py", ".md", ".json", ".toml")
                    and path != pathlib.Path(__file__).resolve()):
                found |= names_in(path.read_text(errors="replace"))
    return found


def test_readme_environment_section_names_exactly_the_inventory():
    section = SECTION.search((REPO / "README.md").read_text())
    assert section, "README.md lost its '## Environment variables' section"
    documented = names_in(section.group(1))
    used = inventory()
    assert documented == used, (
        f"undocumented: {sorted(used - documented)}; "
        f"documented but unused: {sorted(documented - used)}")



def test_readme_engine_row_names_exactly_the_engines():
    """README's "Execution engines" section has one bullet per engine
    of ``gpu.machine.ENGINES`` and none for an engine that is gone."""
    from repro.gpu.machine import ENGINES

    section = ENGINES_SECTION.search((REPO / "README.md").read_text())
    assert section, "README.md lost its '## Execution engines' section"
    assert sorted(ENGINE_BULLET.findall(section.group(1))) == \
        sorted(ENGINES)
