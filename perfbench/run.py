"""End-to-end benchmark for msn, with a separate traced run for per-layer figures.

    python3 perfbench/run.py --workload {amalgam,certify,tower} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --smoke              # tiny sizes, all workloads, both modes

One client, closed loop: the next operation starts when the previous one
has finished and been timed.  Inputs come from the seed alone and are made
in batches outside the timed region; every result is checked exactly after
its batch, also outside the timed region.  ``--seconds`` is the op time
measured (at least ``min_ops`` operations).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs an untraced pass for a third of the time, then replays exactly the
same operations twice with the package wrapped by ``tracer.py``; it prints
the per-layer metrics of the first traced pass, ``trace.overhead`` (traced
over untraced ops/s) and fails if the two traced passes differ in any
count.  Every run writes a record (environment, all figures) under
``.perfbench_out/records`` and traced runs their spans under
``.perfbench_out/spans``; ``compare.py`` compares two sets of records.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 7
PROBE_INTERVAL_S = 0.25
TRACE_SHARE = 1 / 3
WALL_LIMIT_S = 100  # stop starting new ops after this, whatever --seconds says
MIN_OPS = {"amalgam": 100, "certify": 100, "tower": 3}
# Peak RSS is read after this many ops (or at the end of a shorter run): the
# package's caches grow with every distinct input, so a later reading would
# grow with throughput.
MEM_OPS = {"amalgam": 1000, "certify": 150}
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import msn.cli; print(time.perf_counter() - t)")

# Reported and recorded with every run but not gated: wall-clock figures
# (the gated timings are the same figures in reference units), figures that
# do not exist on every workload (p90 needs 100 ops, build and verify exist
# on tower only), and error_rate, which is zero at a correct commit.
EXTRA = {"amalgam": ("ops_per_s", "op_p50_ms", "op_p90_ms", "op_p90_ref_ms", "error_rate"),
         "certify": ("ops_per_s", "op_p50_ms", "op_p90_ms", "op_p90_ref_ms", "error_rate"),
         "tower": ("ops_per_s", "op_p50_ms", "build_p50_s", "verify_p50_s", "error_rate")}
EXTRA_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "op_p90_ref_ms": "ref_ms",
               "build_p50_s": "s", "verify_p50_s": "s", "error_rate": "ratio",
               "reference_ms": "ms"}
_PROBE_TERMS = [Fraction(i, i + 1) for i in range(1, 60)]


def reference_ms() -> float:
    """Duration in ms of a fixed exact-rational computation, best of three.

    One such duration is the unit ``ref_ms`` of the gated timings.  The
    computation is Fraction arithmetic, where msn spends its time, sized to
    take about 1 ms on the 2-vCPU machine the bounds were set on.  That
    machine's speed drifts by tens of percent within seconds; timing ops
    against the reference, re-measured between ops, cancels most of it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = Fraction(0)
        for _ in range(4):
            for a in _PROBE_TERMS:
                s = s * a + a
            s = Fraction(s.numerator % 1000003, s.denominator % 1000 + 1)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class RefClock:
    """Converts op wall times into ref_ms.

    The reference is measured between ops, at most every PROBE_INTERVAL_S;
    the ops between two measurements are divided by their mean.
    """

    def __init__(self):
        self.last = reference_ms()
        self.probes = [self.last]
        self.at = time.monotonic()
        self.pending: list[float] = []
        self.ref_ms: list[float] = []

    def add(self, seconds: float):
        self.pending.append(seconds)
        if time.monotonic() - self.at >= PROBE_INTERVAL_S:
            self.flush()

    def flush(self):
        now = reference_ms()
        unit = (self.last + now) / 2
        self.ref_ms += [s * 1e3 / unit for s in self.pending]
        self.pending = []
        self.last = now
        self.probes.append(now)
        self.at = time.monotonic()


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_msn():
    if not (SRC / "msn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no msn sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import msn
    import msn.cli  # the whole package, as the import probe and the tracer see it

    if Path(msn.__file__).resolve().parent != (SRC / "msn").resolve():
        raise SystemExit(f"perfbench: msn imported from {msn.__file__}, not from {SRC}")
    return msn


def environment(msn, seed) -> dict:
    return {"backend": msn.kernel_backend, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)), "seed": seed,
            "machine": platform.machine()}


def import_seconds() -> float:
    """Import time of the whole package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def set_up(cls, seed, workdir, tiny):
    """Import plus first input batch, repeated; returns the last set-up and all times."""
    times, wl, first = [], None, None
    for _ in range(2 if tiny else SETUP_REPS):
        imported = import_seconds()
        if wl is not None:
            wl.close()
        t0 = time.perf_counter()
        wl = cls(seed, workdir, tiny)
        first = wl.batch(0)
        times.append(imported + time.perf_counter() - t0)
    return wl, first, times


class Pass:
    """One closed-loop pass: latencies (s and ref_ms), per-command phases,
    failures, batches run."""

    def __init__(self):
        self.lat, self.phases, self.batches = [], [], []
        self.failed = 0
        self.rss_mb = None
        self.clock = RefClock()


def rss_mb(children=False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_pass(wl, next_batch, seconds, min_ops, deadline, tracer=None, mem_ops=None,
             keep=False) -> Pass:
    """Runs batches until ``seconds`` of op time and ``min_ops`` ops (all batches
    when ``seconds`` is None); ``keep`` retains the inputs run, for replay."""
    p = Pass()
    busy, k, done = 0.0, 0, False
    clock = time.perf_counter
    while not done:
        batch = next_batch(k)
        if batch is None:
            break
        results = []
        for inp in batch:
            wl.op = len(p.lat)
            if tracer is not None:
                tracer.op, tracer.active = wl.op, True
            t0 = clock()
            try:
                res, err = wl.run(inp), None
            except Exception as e:  # counted as a failed op
                res, err = None, e
            dt = clock() - t0
            if tracer is not None:
                tracer.active = False
            p.lat.append(dt)
            p.clock.add(dt)
            busy += dt
            results.append((inp, res, err))
            if len(p.lat) == mem_ops:
                p.rss_mb = rss_mb()
            if seconds is not None and ((busy >= seconds and len(p.lat) >= min_ops)
                                        or time.monotonic() > deadline):
                done = True
                break
        if keep:
            p.batches.append([inp for inp, _, _ in results])
        for inp, res, err in results:
            ok = False
            if err is None:
                try:
                    ok = wl.check(inp, res)
                except Exception:
                    traceback.print_exc()
            else:
                print("".join(traceback.format_exception(err)), file=sys.stderr)
            p.failed += not ok
            if ok and hasattr(wl, "phases"):
                p.phases.append(wl.phases(res))
        k += 1
    p.clock.flush()
    return p


def end_to_end(name, p: Pass, setup_times) -> tuple[dict, dict]:
    lat, ref = p.lat, p.clock.ref_ms
    gated = {
        "setup_s": statistics.median(setup_times),
        "ops_per_ref_s": len(ref) / sum(ref) * 1e3,
        "op_p50_ref_ms": statistics.median(ref),
        "peak_rss_mb": rss_mb(children=True) if name == "tower" else p.rss_mb or rss_mb(),
    }
    extra = {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": statistics.median(lat) * 1e3,
             "error_rate": p.failed / len(lat)}
    if name == "tower":
        if p.phases:
            extra["build_p50_s"] = statistics.median(b for b, _ in p.phases)
            extra["verify_p50_s"] = statistics.median(v for _, v in p.phases)
    elif len(lat) >= 2:
        extra["op_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1e3
        extra["op_p90_ref_ms"] = statistics.quantiles(ref, n=10)[8]
    extra["reference_ms"] = statistics.median(p.clock.probes)
    counts = {"ops": len(lat), "setups": len(setup_times), "phase_samples": len(p.phases)}
    return gated, {**extra, **counts}


def merge_reports(reports) -> dict:
    """Sum child and in-process tracer reports; spans are concatenated."""
    out = {"functions": {}, "counters": {}, "caches": {}, "startup_s": [], "backends": set(),
           "spans": {"name": [], "parent": [], "start": [], "end": [], "op": []}}
    index = {}
    for rep in reports:
        for name, f in rep["functions"].items():
            cur = out["functions"].setdefault(name, {"layer": f["layer"], "calls": 0, "raised": 0,
                                                     "self_s": 0.0, "total_s": 0.0})
            for key in ("calls", "raised", "self_s", "total_s"):
                cur[key] += f[key]
        for name, v in rep["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        for name, (h, m) in rep["caches"].items():
            ch, cm = out["caches"].get(name, (0, 0))
            out["caches"][name] = (ch + h, cm + m)
        out["startup_s"] += rep.get("startup_s", [])
        if "backend" in rep:
            out["backends"].add(rep["backend"])
        s, spans = rep["spans"], out["spans"]
        fids = [index.setdefault(n, len(index)) for n in s["names"]]
        base = len(spans["name"])
        spans["name"] += [fids[i] for i in s["name"]]
        spans["parent"] += [q + base if q >= 0 else -1 for q in s["parent"]]
        for k in ("start", "end", "op"):
            spans[k] += s[k]
    out["spans"]["names"] = list(index)
    out["backends"] = sorted(out["backends"])
    return out


def deterministic_counts(rep) -> dict:
    return {"functions": {n: (f["calls"], f["raised"]) for n, f in rep["functions"].items()},
            "counters": rep["counters"], "caches": rep["caches"],
            "spans": len(rep["spans"]["name"])}


def layer_self_times(rep) -> dict:
    out = {}
    for f in rep["functions"].values():
        out[f["layer"]] = out.get(f["layer"], 0.0) + f["self_s"]
    return out


def span_self_times(spans) -> dict:
    """Layer self time from spans alone: duration minus child-span cover."""
    names, layers = spans["names"], {}
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, q in enumerate(spans["parent"]):
        if q >= 0:
            child[q] += dur[i]
    for i, fid in enumerate(spans["name"]):
        layer = names[fid].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + dur[i] - child[i]
    return layers


def per_layer(rep, overhead) -> dict:
    fn, c, caches = rep["functions"], rep["counters"], rep["caches"]
    layer_self = layer_self_times(rep)

    def get(name, key="calls"):
        return fn.get(name, {}).get(key, 0)

    def layer_calls(layer):
        return sum(f["calls"] for f in fn.values() if f["layer"] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(cache):
        h, m = caches.get(cache, (0, 0))
        return ratio(h, h + m)

    return {
        "_kernel.echelon_int.calls": get("_kernel.echelon_int"),
        "_kernel.echelon_int.s": get("_kernel.echelon_int", "total_s"),
        "_kernel.bland_min.calls": get("_kernel.bland_min"),
        "_kernel.bland_min.s": get("_kernel.bland_min", "total_s"),
        "_kernel.pivots": get("_kernel.pivot"),
        "_kernel.self_s": layer_self.get("_kernel", 0.0),
        "linalg.calls": layer_calls("linalg"),
        "linalg.self_s": layer_self.get("linalg", 0.0),
        "lp.solve_lp.calls": get("lp.solve_lp"),
        "lp.solve_lp.self_s": get("lp.solve_lp", "self_s"),
        "lp.self_s": layer_self.get("lp", 0.0),
        "lp.rows_per_solve": ratio(c.get("lp.rows", 0), get("lp.solve_lp")),
        "lp.raised": get("lp.solve_lp", "raised"),
        "polytope.polytope_vertices.calls": get("polytope.polytope_vertices"),
        "polytope.polytope_facets.calls": get("polytope.polytope_facets"),
        "polytope.self_s": layer_self.get("polytope", 0.0),
        "polytope.vertices_out": c.get("polytope.vertices_out", 0),
        "seminorms.from_functionals.calls": get("seminorms.PolyhedralSeminorm.from_functionals"),
        "seminorms.self_s": layer_self.get("seminorms", 0.0),
        "seminorms.kept_ratio": ratio(c.get("seminorms.functionals_kept", 0),
                                      c.get("seminorms.functionals_offered", 0)),
        "seminorms.dual_ball_facets.hit_ratio": hit_ratio("seminorms.dual_ball_facets"),
        "spaces.calls": layer_calls("spaces"),
        "spaces.self_s": layer_self.get("spaces", 0.0),
        "maps.is_embedding.calls": get("maps.is_embedding"),
        "maps.self_s": layer_self.get("maps", 0.0),
        "maps.operator_seminorm.hit_ratio": hit_ratio("maps._op_seminorm_cached"),
        "maps.lower_constant.hit_ratio": hit_ratio("maps._lower_constant_cached"),
        "amalgam.pushout.calls": get("amalgam.pushout"),
        "amalgam.self_s": layer_self.get("amalgam", 0.0),
        "amalgam.functionals_out": c.get("amalgam.functionals_out", 0),
        "tower.self_s": layer_self.get("tower", 0.0),
        "tower.checks": c.get("tower.checks", 0),
        "ramsey.build_net.calls": get("ramsey.build_net"),
        "ramsey.self_s": layer_self.get("ramsey", 0.0),
        "ramsey.net_points": c.get("ramsey.net_points", 0),
        "io.self_s": layer_self.get("io", 0.0),
        "io.space_from_doc.calls": get("io.space_from_doc"),
        "io.bytes_written": c.get("io.bytes_written", 0),
        "cli.startup_s": statistics.median(rep["startup_s"]) if rep["startup_s"] else 0.0,
        "cli.self_s": layer_self.get("cli", 0.0),
        "trace.overhead": overhead,
    }


def traced(name, wl, first, seconds, min_ops, deadline, msn, workdir):
    """Untraced pass, then two traced replays of the same operations."""
    import tracer as tracing

    caches = tracing.lru_caches()

    def clear():
        for c in caches.values():
            c.cache_clear()

    def generate(k):
        return first if k == 0 else wl.batch(k)

    clear()
    base = run_pass(wl, generate, seconds * TRACE_SHARE, max(1, min_ops // 10), deadline,
                    keep=True)
    tr = tracing.Tracer().install()
    tr.active = False
    if name == "tower":
        wl.trace_dir = Path(workdir) / "trace"
        wl.trace_dir.mkdir(parents=True, exist_ok=True)
    passes = []
    try:
        for _ in range(2):
            clear()
            tr.reset()
            wl.child_reports = []
            p = run_pass(wl, lambda k: base.batches[k] if k < len(base.batches) else None,
                         None, 0, deadline, tracer=tr)
            rep = merge_reports([{**tr.report(caches), "backend": msn.kernel_backend}]
                                + wl.child_reports)
            by_command = {}
            for child in wl.child_reports:
                by_command.setdefault(child["command"], []).append(child)
            passes.append((p, rep, by_command))
    finally:
        tr.remove()
    (p1, rep1, by_command), (p2, rep2, _) = passes
    overhead = sum(base.clock.ref_ms) / sum(p1.clock.ref_ms)
    mismatch = deterministic_counts(rep1) != deterministic_counts(rep2)
    backends_ok = rep1["backends"] == [msn.kernel_backend]
    failed = base.failed + p1.failed + p2.failed + mismatch + (not backends_ok)
    attempted = len(base.lat) + len(p1.lat) + len(p2.lat)
    details = {
        "ops_per_pass": len(base.lat),
        "deterministic": not mismatch,
        "backends": rep1["backends"],
        "layer_self_s": layer_self_times(rep1),
        "layer_self_s_by_command": {c: layer_self_times(merge_reports(reps))
                                    for c, reps in by_command.items()},
        "span_layer_self_s": span_self_times(rep1["spans"]),
        "functions": rep1["functions"],
        "counters": rep1["counters"],
        "caches": rep1["caches"],
    }
    return per_layer(rep1, overhead), attempted, failed, details, rep1["spans"]


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the reference
    is always measured where the work runs (the children inherit it)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(name, seed, seconds, trace, tiny=False) -> tuple[dict, dict]:
    """Returns the result line and the full record of one run."""
    msn = import_msn()
    from workloads import WORKLOADS

    spec = load_spec()
    started = time.monotonic()
    deadline = started + WALL_LIMIT_S
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    min_ops = 2 if tiny else MIN_OPS[name]
    wl, first, setup_times = set_up(WORKLOADS[name], seed, workdir, tiny)
    try:
        if trace:
            metrics, attempted, failed, details, spans = traced(
                name, wl, first, seconds, min_ops, deadline, msn, workdir)
            extra = {}
            names = spec["per_layer"]
            spans_dir = OUT / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            (spans_dir / f"{name}-s{seed}.json").write_text(json.dumps(spans))
        else:
            p = run_pass(wl, lambda k: first if k == 0 else wl.batch(k), seconds, min_ops, deadline,
                         mem_ops=None if tiny else MEM_OPS.get(name))
            metrics, extra = end_to_end(name, p, setup_times)
            attempted, failed, details = len(p.lat), p.failed, {}
            names = spec["end_to_end"]
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in names}
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics do not match BENCHMARK.json: {sorted(missing)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
              "env": environment(msn, seed), "wall_s": time.monotonic() - started,
              "setup_times_s": setup_times, "result": result, "extra": extra, "details": details}
    return result, record


def print_run(record):
    env = record["env"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"backend={env['backend']} python={env['python']} nproc={env['nproc']}")
    res = record["result"]
    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, v in record["extra"].items():
        unit = EXTRA_UNITS.get(name, "count")
        print(f"{name:40s} {v:>16.6g} {unit}")
    det = record["details"]
    if "layer_self_s" in det:
        total = sum(det["layer_self_s"].values()) or 1.0
        shares = sorted(det["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("# layer self-time shares, traced pass: "
              + ", ".join(f"{k} {v / total:.1%}" for k, v in shares if v > 0))
        print(f"# traced passes deterministic: {det['deterministic']}")
    print(f"# attempted {res['attempted']}, failed {res['failed']}")


def save_record(record, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{record['workload']}-s{record['seed']}-t{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


def smoke() -> int:
    """Tiny sizes: every workload in both modes; every metric name must appear."""
    spec = load_spec()
    problems = []
    for name in ("amalgam", "certify", "tower"):
        for trace in (0, 1):
            result, record = run_workload(name, 1, 0.05, trace, tiny=True)
            print_run(record)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if not trace:
                want |= set(EXTRA[name])
            have = set(result["metrics"]) | set(record["extra"])
            if want - have:
                problems.append(f"{name} trace={trace}: missing {sorted(want - have)}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print(json.dumps({"smoke": "ok" if not problems else "fail", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["amalgam", "certify", "tower", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, default=OUT / "records", help="directory for run records")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    names = ["amalgam", "certify", "tower"] if args.workload == "all" else [args.workload]
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, args.trace)
        save_record(record, args.out)
        print_run(record)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
