"""Every command line of `capture_cli_goldens.py`, replayed: stdout, stderr
and exit code must equal, byte for byte, what the recorded commit printed."""

import json

import pytest

from capture_cli_goldens import GOLDENS, argv_list, compare, run

GOLDEN_RUNS = json.loads(GOLDENS.read_text(encoding="utf-8"))["runs"]


def test_goldens_cover_the_capture_list():
    assert [r["argv"] for r in GOLDEN_RUNS] == argv_list()


@pytest.mark.parametrize("golden", GOLDEN_RUNS, ids=range(len(GOLDEN_RUNS)))
def test_cli_output_matches_golden(golden):
    assert run(golden["argv"]) == golden


def test_a_refresh_reports_changed_added_and_removed_runs():
    def result(argv, out="", code=0):
        return {"argv": argv, "stdout": out, "stderr": "", "exit": code}

    old = [result(["a"]), result(["b"], "x"), result(["c"])]
    new = [result(["a"]), result(["d"]), result(["b"], "x", 1), result(["e"])]
    assert compare(old, new) == ([(2, ["b"])], 2, 1)
    assert compare(new, new) == ([], 0, 0)
