"""Layered benchmark of rieszdrop: ledger, tables and potential workloads.

    python3 bench/run.py --workload ledger --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the library is imported from
the checkout's `src/`, never from an installed copy.

Each repetition runs in a fresh interpreter (worker.py) that imports only
the standard library and rieszdrop, performs the workload's fixed set of
calls once, and hands back raw timings and outputs.  This driver spawns
repetitions until `--seconds` have passed, checks every output against the
oracles in oracle.py outside all timed regions, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are in reference-speed seconds: raw wall time * C_ref / cal, where
cal is the mean time of the reference-kernel samples interleaved with the
timed chunk (worker.Calibrator) and C_ref (reference.json) is that sample's
time on the reference machine.  Each workload has the kernel closest to its
own inner loop (KERNEL).  On the 2-vCPU guest the benchmark was built
on, the same job's raw wall time ranged from 1.5 to 2.8 s within a minute;
normalized run medians over ten seeds stay within a few percent.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("ledger", "tables", "potential")
KERNEL = {"ledger": "solver", "tables": "solver", "potential": "series"}  # see worker.KERNELS

SETUP_PROBES = 9  # fresh interpreters timed for setup_s in every untraced run
WORKER_TIMEOUT_S = 150.0
LIMIT_S = 0.2  # potential: per-call latency limit
# potential: alpha bands and their fixed profile counts
BANDS = (
    ("generic", 8, ((0.05, 0.95), (1.05, 1.95))),
    ("low", 4, ((0.0, 0.05),)),
    ("near_one", 2, ((0.95, 1.05),)),
    ("near_two", 2, ((1.95, 2.0),)),
)
NEAR_ONE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-8)  # distances from r = 1; 1e-5, 1e-6 left out
GRID = 60  # potential: radial grid points on (0, 3]
PROFILES_PER_CHUNK = 4


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------- inputs


def _stratified(rng: random.Random, n: int, spans) -> list[float]:
    """n points, one per equal stratum of the union of the spans."""
    total = sum(hi - lo for lo, hi in spans)
    out = []
    for k in range(n):
        x = total * (k + rng.uniform(0.25, 0.75)) / n
        for lo, hi in spans:
            if x < hi - lo:
                out.append(lo + x)
                break
            x -= hi - lo
    return out


def make_job(workload: str, seed: int) -> dict:
    """The workload's fixed call set; argv paths are relative to the rep dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ledger":
        alpha_max = "%.6f" % rng.uniform(0.030, 0.034)
        return {
            "warmup": ["verify", "--alpha-max", "0.034", "--grid", "2", "--out", "warmup.json"],
            "chunks": [["verify", "--alpha-max", alpha_max, "--grid", "1000", "--out", "verify.json"]],
        }
    if workload == "tables":
        lo = rng.uniform(0.005, 0.095)
        return {
            "warmup": ["eval", "--alpha", "0.034", "--out", "warmup.json"],
            "chunks": [
                ["sweep", "--alpha-min", "%.6f" % lo, "--alpha-max", "%.6f" % (lo + 0.4),
                 "--steps", "201", "--format", "json", "--out", "sweep.json"],
                ["envelope", "--alpha", "%.6f" % rng.uniform(0.02, 0.06), "--r-max", "40",
                 "--steps", "4000", "--format", "json", "--out", "envelope.json"],
                ["alpha0", "--out", "alpha0.json"],
                ["eval", "--alpha", "%.6f" % rng.uniform(0.01, 0.5), "--out", "eval.json"],
            ],
        }
    if workload == "potential":
        profiles = []
        for _, count, spans in BANDS:
            for alpha in _stratified(rng, count, spans):
                shift = rng.uniform(0.2, 0.8)  # keeps grid points >= 0.01 from r = 1
                rs = [3.0 * (i - shift) / GRID for i in range(1, GRID + 1)]
                rs += [1.0 + s * d for d in NEAR_ONE for s in (-1.0, 1.0)]
                profiles.append([[r, alpha] for r in rs])
        rng.shuffle(profiles)
        chunks = [
            sum(profiles[i:i + PROFILES_PER_CHUNK], [])
            for i in range(0, len(profiles), PROFILES_PER_CHUNK)
        ]
        return {"warmup": [0.5, 0.5], "chunks": chunks, "limit_s": LIMIT_S}
    raise BenchError(f"unknown workload {workload!r}")


# ------------------------------------------------------------ repetitions


class Runner:
    def __init__(self, workload: str, job: dict, tmp: str) -> None:
        self.workload = workload
        self.job = job
        self.tmp = tmp
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "RIESZDROP_THREADS"}

    def _spec(self, mode: str, trace: bool, rep_dir: str) -> dict:
        def local(argv):
            return argv[:-1] + [os.path.join(rep_dir, argv[-1])]

        spec = {"workload": self.workload, "kernel": KERNEL[self.workload], "mode": mode, "trace": trace}
        if self.workload == "potential":
            spec.update(self.job)
        else:
            spec["warmup"] = local(self.job["warmup"])
            spec["chunks"] = [local(argv) for argv in self.job["chunks"]]
        return spec

    def rep(self, mode: str = "job", trace: bool = False) -> dict:
        """Spawn one worker; returns its result plus setup time and rep dir."""
        self.count += 1
        rep_dir = os.path.join(self.tmp, f"rep{self.count}")
        os.makedirs(rep_dir)
        spec = json.dumps(self._spec(mode, trace, rep_dir))
        with open(os.path.join(rep_dir, "stderr.txt"), "w+", encoding="utf-8") as err:
            # perf_counter is CLOCK_MONOTONIC, shared with the worker process
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-I", WORKER],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=ROOT, text=True,
            )
            try:
                out, _ = proc.communicate(spec, timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            if proc.returncode != 0:
                err.seek(0)
                raise BenchError(
                    f"worker exited with {proc.returncode}: {err.read().strip()[-2000:]}"
                )
        result = json.loads(out)
        result["setup"] = result.pop("ready_at") - t0
        result["dir"] = rep_dir
        return result


def _c_ref(workload: str) -> float:
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["c_ref_s"][KERNEL[workload]]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------- checking


class Outcome:
    """Operation counts over all repetitions of one run, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def _outputs(workload: str, result: dict) -> list:
    """Per-operation outputs of one repetition, comparable across reps."""
    if workload == "potential":
        return [[value, status] for chunk in result["chunks"] for value, status, _ in chunk["calls"]]
    outs = []
    for chunk in result["chunks"]:
        path = os.path.join(result["dir"], f"{chunk['op']}.json")
        text = None
        if chunk["code"] == 0 and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        outs.append([text, chunk["code"]])
    return outs


def _oracle_verdicts(workload: str, job: dict, outputs: list) -> tuple[list[bool], list[str]]:
    """Check one repetition's outputs; returns per-op ok flags and problems."""
    problems: list[str] = []
    if workload == "potential":
        calls = [call for chunk in job["chunks"] for call in chunk]
        ok = []
        for (r, alpha), (value, status) in zip(calls, outputs):
            good = status == "ok" and oracle.check_potential(r, alpha, value)
            if status == "ok" and not good:
                problems.append(f"disk_potential({r!r}, {alpha!r}) = {value!r} fails the mpmath oracle")
            ok.append(good)
        return ok, problems
    ok = []
    for argv, (text, code) in zip(job["chunks"], outputs):
        if text is None:
            ok.append(False)
            continue
        doc = json.loads(text)
        found = oracle.schema_problems(ROOT, doc, argv[0])
        opt = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
        if not found:
            if argv[0] == "verify":
                found = oracle.check_ledger(doc, float(opt["alpha-max"]), int(opt["grid"]))
            elif argv[0] == "sweep":
                found = oracle.check_sweep(
                    doc, float(opt["alpha-min"]), float(opt["alpha-max"]), int(opt["steps"])
                )
            elif argv[0] == "envelope":
                found = oracle.check_envelope(
                    doc, float(opt["alpha"]), float(opt["r-max"]), int(opt["steps"])
                )
            elif argv[0] == "alpha0":
                found = oracle.check_alpha0(doc)
            elif argv[0] == "eval":
                found = oracle.check_eval(doc, float(opt["alpha"]))
        problems += found
        ok.append(not found)
    return ok, problems


def judge(workload: str, job: dict, results: list[dict]) -> Outcome:
    """Oracles check the first repetition; later ones must repeat it exactly."""
    out = Outcome()
    first = _outputs(workload, results[0])
    first_ok, out.problems = _oracle_verdicts(workload, job, first)
    for result in results:
        for i, (got, want) in enumerate(zip(_outputs(workload, result), first)):
            out.attempted += 1
            if got != want:
                out.problems.append(f"operation {i} differs between repetitions")
            if got != want or not first_ok[i]:
                out.failed += 1
    return out


# ---------------------------------------------------------------- metrics


def _job_figures(result: dict, c_ref: float) -> dict:
    fig = {"job_s": 0.0, "job_cpu_s": 0.0, "job_wall_s": 0.0, "ops": {}, "latency_us": []}
    for chunk in result["chunks"]:
        k = c_ref / chunk["cal"]  # raw seconds -> reference-speed seconds
        fig["job_s"] += chunk["wall"] * k
        fig["job_cpu_s"] += chunk["cpu"] * k
        fig["job_wall_s"] += chunk["wall"]
        fig["ops"][chunk["op"]] = fig["ops"].get(chunk["op"], 0.0) + chunk["wall"] * k
        for _, _, dt in chunk.get("calls", ()):
            fig["latency_us"].append(dt * k * 1e6)
    fig["scale"] = fig["job_s"] / fig["job_wall_s"]
    return fig


def end_to_end(setups: list[dict], results: list[dict], outcome: Outcome, c_ref: float) -> dict:
    figs = [_job_figures(r, c_ref) for r in results]
    return {
        "setup_s": (statistics.median(s["setup"] * c_ref / s["setup_cal"] for s in setups), "s"),
        "job_s": (statistics.median(f["job_s"] for f in figs), "s"),
        "job_cpu_s": (statistics.median(f["job_cpu_s"] for f in figs), "s"),
        "max_rss_mb": (statistics.median(r["max_rss_kb"] / 1024.0 for r in results), "MB"),
        "ok_frac": ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"),
    }


def _trace_totals(trace: dict) -> tuple[dict, dict, dict]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    fails: dict[str, int] = {}
    for fn, _caller, n, s, f in trace["calls"]:
        calls[fn] = calls.get(fn, 0) + n
        self_s[fn] = self_s.get(fn, 0.0) + s
        fails[fn] = fails.get(fn, 0) + f
    return calls, self_s, fails


SOLVES = ("thresholds.solve_r0", "thresholds.solve_eps0", "thresholds.solve_eps1")
OBJECTIVES = ("thresholds.f1", "thresholds.f2", "thresholds.rho0")
CALL_COUNTERS = (
    "specfun.gamma", "specfun.hyp2f1", "specfun.disk_potential",
    "splitting.v0_const", "splitting.r_cn", "splitting.rho_c1", "splitting.rho_min",
    "thresholds.solve_m2", "thresholds.solve_eps0", "thresholds.solve_eps1",
    "thresholds.solve_alpha0", "thresholds.c0", "verify.run_ledger",
)
SELF_TIMES = ("specfun.gamma", "specfun.hyp2f1")
LAYER_SELF = ("splitting", "thresholds", "verify", "cli")
CLI_STAGES = ("sweep", "envelope", "alpha0", "eval", "verify")


def per_layer(plain: list[dict], traced: list[dict], job: dict, c_ref: float) -> tuple[dict, list[str]]:
    problems = []
    plain_figs = [_job_figures(r, c_ref) for r in plain]
    traced_figs = [_job_figures(r, c_ref) for r in traced]
    totals = [_trace_totals(r["trace"]) for r in traced]
    counts = [t[0] for t in totals]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced call counts differ between repetitions")
    calls, _, fails = totals[0]

    def med_self(select) -> float:
        return statistics.median(
            sum(s for fn, s in t[1].items() if select(fn)) * f["scale"]
            for t, f in zip(totals, traced_figs)
        )

    m: dict[str, tuple[float, str]] = {}
    for fn in CALL_COUNTERS:
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
    for fn in SELF_TIMES:
        m[f"{fn}.self_s"] = (med_self(lambda name, fn=fn: name == fn), "s")
    m["specfun.disk_potential.fail"] = (fails.get("specfun.disk_potential", 0), "count")
    latency = [us for f in plain_figs for us in f["latency_us"]]
    m["specfun.disk_potential.p50_us"] = (_percentile(latency, 0.50) if latency else 0.0, "us")
    m["specfun.disk_potential.p99_us"] = (_percentile(latency, 0.99) if latency else 0.0, "us")
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (med_self(lambda name, p=layer + ".": name.startswith(p)), "s")
    objective = sum(calls.get(fn, 0) for fn in OBJECTIVES)
    in_solves = sum(
        n for fn, caller, n, _, _ in traced[0]["trace"]["calls"]
        if fn in OBJECTIVES and caller in SOLVES
    )
    solves = sum(calls.get(fn, 0) for fn in SOLVES)
    m["thresholds.objective_evals"] = (objective, "count")
    m["thresholds.evals_per_solve"] = (in_solves / solves if solves else 0.0, "ratio")
    points = sum(int(argv[argv.index("--grid") + 1]) for argv in job["chunks"] if argv[0] == "verify")
    m["verify.gamma_calls_per_point"] = (
        calls.get("specfun.gamma", 0) / points if points else 0.0, "ratio"
    )
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = (statistics.median(f["ops"].get(stage, 0.0) for f in plain_figs), "s")
    m["cli.threads_started"] = (traced[0]["trace"]["threads_started"], "count")
    plain_job = statistics.median(f["job_s"] for f in plain_figs)
    m["bench.job_wall_s"] = (statistics.median(f["job_wall_s"] for f in plain_figs), "s")
    m["bench.cal_s"] = (statistics.median(c["cal"] for r in plain for c in r["chunks"]), "s")
    m["bench.trace_overhead"] = (
        statistics.median(f["job_s"] for f in traced_figs) / plain_job, "ratio"
    )
    return m, problems


# ---------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "rieszdrop", "__init__.py")):
        raise BenchError(f"no rieszdrop sources under {os.path.join(ROOT, 'src')}")
    c_ref = _c_ref(workload)
    job = make_job(workload, seed)
    tmp = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        runner = Runner(workload, job, tmp)
        setups = [] if trace else [runner.rep("setup") for _ in range(SETUP_PROBES)]
        plain: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
            use_trace = trace and len(traced) < len(plain)
            (traced if use_trace else plain).append(runner.rep(trace=use_trace))

        # oracles run here, after every timed region has ended
        outcome = judge(workload, job, plain + traced)
        if trace:
            metrics, problems = per_layer(plain, traced, job, c_ref)
            outcome.problems += problems
        else:
            metrics = end_to_end(setups, plain, outcome, c_ref)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    for problem in outcome.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
