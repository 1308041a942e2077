"""README examples run, and its tables name code and tests that exist."""

import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from tpcma import StrategyParams

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def table(heading: str) -> list[list[str]]:
    """The cells of the first table under a ``## heading``, header and rule dropped."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]


def names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


PAPER_TABLE = table("Paper to code")


def test_quickstart_reaches_the_target():
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    namespace = {"my_function": lambda x: float(np.dot(x, x))}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].termination == "target_f"
    assert namespace["opt"].should_stop() == "target_f"


def test_paper_table_has_a_row_per_setting():
    fields = dataclasses.fields(StrategyParams)
    listed = {name for row in PAPER_TABLE for name in names(row[2])}
    assert listed <= {f.name for f in fields}
    assert {f.name for f in fields if f.init} <= listed
    quantities = {row[0] for row in PAPER_TABLE}
    assert {"stall gate of the covariance path", "legacy downward width"} <= quantities


@pytest.mark.parametrize("heading, column", [("Paper to code", 3),
                                             ("Where each contract is kept", 1)])
def test_table_code_names_resolve(heading, column):
    dotted = [name for row in table(heading) for name in names(row[column]) if "." in name]
    assert dotted
    for name in dotted:  # module.attr, looked up on tpcma.module
        module, attr = name.split(".", 1)
        getattr(importlib.import_module(f"tpcma.{module}"), attr)


def test_paper_table_cites_existing_tests():
    defined = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        defined |= set(re.findall(r"^\s*def (test_\w+)\(", path.read_text(), flags=re.MULTILINE))
    cited = {name for row in PAPER_TABLE for name in names(row[4])}
    assert cited
    assert cited <= defined, sorted(cited - defined)
