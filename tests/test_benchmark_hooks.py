"""The benchmark wraps named functions of the package from outside `src/`
(`perfbench/tracer.py`); a refactor that moves or rebinds one of them breaks
the traced runs.  This runs the benchmark's own wrapper test in the suite,
without copying its assertions, and checks one pass of each workload
against the benchmark's goldens.  Each test leaves the process as it found
it."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_tests():
    """perfbench's test module; afterwards, the fresh `noethops` copy it
    imports and the perfbench modules are dropped again."""
    saved_path = list(sys.path)
    saved = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "noethops"}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import test_perfbench

        yield test_perfbench
    finally:
        sys.path[:] = saved_path
        for name, mod in list(sys.modules.items()):
            path = getattr(mod, "__file__", None) or ""
            if name.split(".")[0] == "noethops" or Path(path).parent == PERFBENCH:
                del sys.modules[name]
        sys.modules.update(saved)


def test_benchmark_wrappers_reach_names_imported_elsewhere(perfbench_tests):
    perfbench_tests.test_wrappers_reach_names_imported_elsewhere()


@pytest.mark.parametrize("name", ["paper_suite", "colon_3var", "groebner_powers", "dual_ops"])
def test_benchmark_pass_matches_goldens(perfbench_tests, name):
    # one untraced pass at seed 0 (the inputs as written): every witness,
    # shift and certificate equals the one captured in perfbench/goldens.json
    workload = perfbench_tests.WORKLOADS[name]
    p = perfbench_tests.run.one_pass(workload, 0, perfbench_tests.GOLDENS[name], traced=False)
    assert p.attempted > 0
    assert p.failed == []
