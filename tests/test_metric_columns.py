"""Only the station model pairs a percentage with its count columns.

Every analysis reads turnout and the leader's result through
ElectionDataset.metric, so the rule "turnout = given / registered,
result = leader / cast" is written in model.py alone. The modules that
make or store the columns (ingest, synth) read them directly; no other
module may. registered stays free: it is also every analysis's voter
weight.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pollheap"

COLUMNS = {"given", "leader", "cast"}
READERS = {"model", "ingest", "synth"}


def _column_reads(tree: ast.Module) -> list[str]:
    return [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in COLUMNS
    ]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.stem not in READERS],
    ids=lambda p: p.stem,
)
def test_metric_columns_are_read_through_the_model(path):
    assert _column_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_model_still_pairs_them():
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    assert _column_reads(tree)
