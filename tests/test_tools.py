"""The key-path diff that ``tools/compare_outputs.py`` prints for reports."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

from compare_outputs import key_diffs  # noqa: E402


def test_key_diffs_name_every_differing_leaf():
    old = {"a": {"b": 1.0, "c": [1, 2]}, "d": 3, "same": {"x": [0.5]}}
    new = {"a": {"b": 1.5, "c": [1, 3]}, "e": 3, "same": {"x": [0.5]}}
    assert key_diffs(old, new) == [
        "report.a.b: 1.0 -> 1.5",
        "report.a.c[1]: 2 -> 3",
        "report.d: 3 -> '<absent>'",
        "report.e: '<absent>' -> 3",
    ]


def test_key_diffs_compare_lists_of_other_lengths_whole():
    assert key_diffs({"w": [1, 2]}, {"w": [1]}) == ["report.w: [1, 2] -> [1]"]
    assert key_diffs({"w": [1, {"p": 0}]}, {"w": [1, {"p": 0}]}) == []
