"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import tracer  # noqa: E402


def test_smoke_emits_every_metric():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert json.loads(out.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": []}


def test_tracer_sees_internal_and_imported_calls():
    from fractions import Fraction as F

    import msn.cli  # noqa: F401  (the whole package)
    import msn.lp
    import msn.seminorms

    solve_lp = msn.lp.solve_lp
    tr = tracer.Tracer().install()
    try:
        assert msn.lp.solve_lp is not solve_lp
        # from_functionals -> seminorms._in_symmetric_hull -> lp.gauge_scale (a from-import)
        # -> lp.solve_lp (a module-internal call) -> _kernel.bland_min -> _kernel.pivot
        msn.seminorms.PolyhedralSeminorm.from_functionals(
            2, [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))])
        rep = tr.report()
    finally:
        tr.remove()
    assert msn.lp.solve_lp is solve_lp
    fn = rep["functions"]
    assert fn["seminorms.PolyhedralSeminorm.from_functionals"]["calls"] == 1
    assert fn["lp.gauge_scale"]["calls"] == fn["lp.solve_lp"]["calls"] >= 3
    assert fn["_kernel.pivot"]["calls"] > 0
    assert rep["counters"]["seminorms.functionals_offered"] == 3
    assert rep["counters"]["seminorms.functionals_kept"] == 2
    # Self time from the boundary spans equals the per-function accounting.
    import run

    by_spans = run.span_self_times(rep["spans"])
    for layer, s in run.layer_self_times(rep).items():
        assert abs(by_spans[layer] - s) < 1e-9


def test_compare_refuses_mixed_backends(tmp_path):
    def record(backend):
        return {"workload": "amalgam", "trace": 0, "env": {"backend": backend, "python": "3",
                                                           "nproc": 2},
                "result": {"metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}}

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sink = (tmp_path / "out.txt").open("w")
    assert compare.compare([record("pure")], [record("compiled")], spec, out=sink) == 2
    assert compare.compare([record("pure")], [record("pure")], spec, out=sink) == 0
