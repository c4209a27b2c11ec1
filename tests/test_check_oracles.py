"""The oracle sweep of ``tools/check_oracles.py`` runs on the test helpers.

The tool imports its comparisons from the test modules, so a renamed or
changed helper shows here first.  Each oracle runs once, on the smallest
table it covers.
"""

import collections
import importlib.util
import pathlib

TOOL = (pathlib.Path(__file__).resolve().parents[1] / "tools"
        / "check_oracles.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("check_oracles", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_each_oracle_counts_on_its_smallest_table():
    tool = load_tool()
    smallest = {}
    for label, t, oracles in tool.tables():
        for oracle in oracles:
            if oracle not in smallest or t.dim < smallest[oracle][1].dim:
                smallest[oracle] = label, t
    assert len(smallest) == 5
    n = collections.Counter()
    assert tool.run([(label, t, (oracle,))
                     for oracle, (label, t) in smallest.items()], n) == 0
    for key in ("pairs", "words", "rows", "modules", "radicals", "maps",
                "builds", "grams", "products_tables", "rows_tables",
                "top_tables", "syzygies_tables", "form_tables"):
        assert n[key] > 0, key
