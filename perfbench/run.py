"""magnls benchmark: three pipeline workloads, timed end to end or traced.

    python3 perfbench/run.py --workload stability-1d --seed 1 --seconds 20 --trace 0

Each iteration of a workload runs in a fresh interpreter (``worker.py``)
with the BLAS thread count pinned before numpy loads; iterations follow one
another in a closed loop, one client, until ``--seconds`` would be exceeded
(at least one runs).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
iterations alternate and it holds the per-layer metrics instead.  The lines
before it print every metric by name and unit with its median, the highest
percentile that has at least ten samples beyond it, and the sample count.
Times are in calibrated seconds (``speed.py``), with raw medians beside them.
A full result, with the environment, is written under ``.perfbench-out/``.

Every operation's outputs are checked against ``reference.json``; an
operation fails when it raises, exits 2, or its outputs leave the reference
tolerance.  ``--record-reference`` re-records that file at the reference
seed.  This script itself imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, workload  # noqa: E402

SETUP_PROBES = 3          # set-up-only processes per run, besides iterations
BLAS_THREADS = 1          # steadiest; never more than the usable cores
DEADLINE_S = 170.0        # a run must end within 180 s
REFERENCE_SEED = 0

# Gates that fail at the shortened windows of these workloads.  They test
# long-window properties (criteria 8 and 9 run to t = 4); the failing
# verdict is the expected reference value, so a change that flips one shows.
KNOWN_GATE_FAILURES = {
    "stability-1d/stability-run/adjusted_tv_halving":
        "over t = 0.5 the radiation has not left the well, so the "
        "gauge-adjusted amplitude still varies in the second half "
        "(ratio ~0.37 > 0.25); criterion 8 measures it to t = 4",
    "magnetic-2d/stability-run/adjusted_tv_halving":
        "over t = 0.3 the 2D modulation has not settled (ratio ~1.1 > 0.25)",
    "magnetic-2d/stability-run/scattering_cauchy":
        "over t = 0.3 the pulled-back radiation is still growing between "
        "checkpoints (ratio ~1.4 > 0.5); criterion 9 needs the long window",
}

# Gate values that measure solver error (residuals, drifts, orthogonality
# defects) sit at rounding level and are checked by their verdict alone.
RESIDUAL_GATES = {"eigen_residual", "eigen_problem_residual", "mass_drift",
                  "energy_drift", "orthogonality_rel", "family_residuals"}

TOLERANCES = {
    "solver": {
        "rtol": 1e-6, "atol": 1e-12,
        "why": "CN steps and fixed-point solves stop at relative residual "
               "1e-12 and eigenpairs at 1e-10; the stored scalars (energies, "
               "eigenvalues, gap norms, finite differences of z over frames "
               "0.05 apart) inherit at most ~1e-9 relative error from them, "
               "so 1e-6 admits an equally accurate solver and catches any "
               "change in what is computed"},
    "modulation": {
        "rtol": 1e-2, "atol": 1e-15,
        "why": "decompose stops at |B| <= 3e-11 ||eta||_H1 (~3e-14 here), "
               "so z is fixed to ~1e-13; l1_mod_resid and the total "
               "variations difference z over frames 0.004-0.05 apart and sit "
               "at 1e-9-1e-11, which leaves them ~1e-3 relative accuracy "
               "(gap norms ~1e-6); 1e-2 keeps a tenfold margin"},
    "power_iteration": {
        "rtol": 1e-3, "atol": 1e-3,
        "why": "resolvent norms come from power iteration stopped at 1e-4 "
               "relative change over GMRES solves at tol 1e-8 (strict=False); "
               "the estimate is good to ~1e-4, kept with a tenfold margin"},
    "verdict": {
        "why": "solver residuals and drifts are rounding-level; only their "
               "gate verdict is compared"},
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# statistics


def timing_summary(samples) -> dict:
    """Median, plus the highest whole percentile with >= 10 samples beyond
    it, and the sample count."""
    n = len(samples)
    out = {"p50": statistics.median(samples), "n": n}
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p >= 1:
        out[f"p{p}"] = statistics.quantiles(samples, n=100,
                                            method="inclusive")[p - 1]
    return out


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None      # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The environment of every worker: BLAS threads pinned before numpy loads."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------------------
# running


class _Runner:
    def __init__(self, run_dir: Path, env: dict, job: dict, deadline: float):
        self.run_dir = run_dir
        self.env = env
        self.job = job
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, traced: bool = False,
              spans_path: Path | None = None) -> dict:
        self.count += 1
        result_path = self.run_dir / f"result-{self.count}.json"
        out_dir = self.run_dir / f"it-{self.count}"
        job = dict(self.job, mode=mode, trace=traced,
                   result_path=str(result_path), out_dir=str(out_dir),
                   spans_path=str(spans_path) if spans_path else None)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("ran out of time before the next iteration")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(WORKER)], input=json.dumps(job),
                capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the run deadline") from exc
        if proc.returncode != 0 or not result_path.is_file():
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"{mode} process failed with exit status "
                             f"{proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        shutil.rmtree(out_dir, ignore_errors=True)
        result["raw_setup_s"] = result["ready"] - t0 - result["setup_probe_s"]
        result["setup_s"] = result["raw_setup_s"] * result["setup_speed"]
        result["traced"] = traced
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 size: str = "full", ops: list | None = None,
                 setup_probes: int = SETUP_PROBES) -> dict:
    """Set up, iterate for ``seconds``, and return the raw samples."""
    if not (SRC / "magnls" / "__init__.py").is_file():
        raise BenchError(f"no magnls package under {SRC}")
    wl = workload(name, size)
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{name}-{size}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    spans_path = (OUT / "results" /
                  f"spans-{name}-{size}-seed{seed}.csv.gz") if trace else None
    if spans_path:
        spans_path.parent.mkdir(exist_ok=True)
    config_path = run_dir / "exp.ini"
    config_path.write_text(wl["config"], encoding="utf-8")
    job = {"src": str(SRC), "config_path": str(config_path), "seed": seed,
           "ops": wl["ops"] if ops is None else ops}
    runner = _Runner(run_dir, child_env(), job,
                     time.monotonic() + DEADLINE_S)
    try:
        runner.spawn("setup")    # warm-up: bytecode and page cache, not timed
        setups = [runner.spawn("setup") for _ in range(setup_probes)]
        iterations = []
        start = time.monotonic()
        while True:
            t_round = time.monotonic()
            iterations.append(runner.spawn("iterate"))
            if trace:
                iterations.append(runner.spawn("iterate", True, spans_path))
            last = time.monotonic() - t_round
            if time.monotonic() - start + last > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"workload": name, "size": size, "seed": seed, "trace": trace,
            "main_stage": wl["main_stage"], "setups": setups,
            "iterations": iterations}


# ---------------------------------------------------------------------------
# checking outputs


def _close(value, ref, tol: dict) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(value, float) and math.isnan(value)
    return abs(value - ref) <= tol["atol"] + tol["rtol"] * abs(ref)


def check_op(res: dict, ref: dict | None, at_reference_seed: bool,
             tolerances: dict) -> list[str]:
    """Why one operation failed; an empty list when it passed."""
    if res.get("error"):
        return [res["error"]]
    if ref is None:
        return ["no reference recorded for this operation"]
    problems = []
    if res["rc"] != ref["rc"]:
        problems.append(f"exit status {res['rc']}, reference {ref['rc']}")
    for gate, expected in ref["gates"].items():
        got = res["gates"].get(gate)
        if got is None:
            problems.append(f"gate {gate} missing")
        elif got["passed"] != expected:
            problems.append(f"gate {gate} passed={got['passed']}, "
                            f"reference passed={expected}")
    if ref["seeded"] and not at_reference_seed:
        return problems   # seed-dependent values: verdicts only
    got_values = dict(res["values"])
    got_values.update({f"gate.{k}": g["value"] for k, g in res["gates"].items()})
    for key, entry in ref["values"].items():
        if entry["tol"] == "verdict":
            continue
        if key not in got_values:
            problems.append(f"{key} missing")
        elif not _close(got_values[key], entry["value"],
                        tolerances[entry["tol"]]):
            problems.append(f"{key} = {got_values[key]!r}, reference "
                            f"{entry['value']!r} ({entry['tol']} tolerance)")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def evaluate(raw: dict, reference: dict) -> dict:
    """Reference check, metrics and the result record of one run."""
    name, size = raw["workload"], raw["size"]
    ref_ops = reference["workloads"][name][size]
    at_ref_seed = raw["seed"] == reference["seed"]
    untraced = [it for it in raw["iterations"] if not it["traced"]]
    traced = [it for it in raw["iterations"] if it["traced"]]

    attempted = failed = 0
    problems = []
    for k, it in enumerate(raw["iterations"]):
        for res in it["ops"]:
            attempted += 1
            why = check_op(res, ref_ops.get(res["name"]), at_ref_seed,
                           reference["tolerances"])
            if why:
                failed += 1
                problems.append(f"iteration {k} {res['name']}: "
                                + "; ".join(why))

    def stage(label, key):
        return [op[key] for it in untraced for op in it["ops"]
                if op["name"] == label]

    setups = raw["setups"] + untraced
    summaries = {
        "setup_s": dict(timing_summary([it["setup_s"] for it in setups]),
                        raw_p50=statistics.median(
                            it["raw_setup_s"] for it in setups)),
        "wall_s": dict(timing_summary([it["wall_s"] for it in untraced]),
                       raw_p50=statistics.median(
                           it["raw_wall_s"] for it in untraced)),
        "peak_rss_mib": timing_summary(
            [it["peak_rss_mib"] for it in untraced]),
    }
    pipelines = {op["name"]: dict(timing_summary(stage(op["name"], "wall_s")),
                                  raw_p50=statistics.median(
                                      stage(op["name"], "raw_wall_s")))
                 for op in untraced[0]["ops"]}
    summaries["stage_s.main"] = pipelines[raw["main_stage"]]
    units = {"peak_rss_mib": "MiB"}
    end_to_end = {k: {"value": s["p50"], "unit": units.get(k, "s")}
                  for k, s in summaries.items()}

    trace_problems = []
    per_layer = {}
    if traced:
        layer_samples: dict[str, list] = {}
        layer_units = {}
        for it in traced:
            if not it["restored"]:
                trace_problems.append("a wrapped function was not restored")
            for key, (value, unit) in it["layers"].items():
                layer_samples.setdefault(key, []).append(value)
                layer_units[key] = unit
        for key, values in layer_samples.items():
            if layer_units[key] in ("count", "B") and len(set(values)) > 1:
                trace_problems.append(f"{key} differs between traced "
                                      f"iterations: {values}")
            per_layer[key] = {"value": statistics.median(values),
                              "unit": layer_units[key]}
        per_layer["trace_overhead_frac"] = {
            "value": statistics.median(it["wall_s"] for it in traced)
            / statistics.median(it["wall_s"] for it in untraced) - 1.0,
            "unit": "ratio"}
        for plain, it in zip(untraced, traced):
            if plain["digests"] != it["digests"]:
                trace_problems.append("traced and untraced artifacts differ")

    versions = raw["iterations"][0]["versions"]
    return {
        "workload": name, "size": size, "seed": raw["seed"],
        "trace": raw["trace"],
        "correct": failed == 0 and not trace_problems,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems + trace_problems,
        "main_stage": raw["main_stage"],
        "timings": {k: dict(s, unit=end_to_end[k]["unit"])
                    for k, s in summaries.items()},
        "pipelines_s": pipelines,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "iterations": [{"traced": it["traced"], "wall_s": it["wall_s"],
                        "raw_wall_s": it["raw_wall_s"],
                        "setup_s": it["setup_s"],
                        "ops": {op["name"]: {"rc": op["rc"],
                                             "wall_s": op["wall_s"],
                                             "raw_wall_s": op["raw_wall_s"]}
                                for op in it["ops"]}}
                       for it in raw["iterations"]],
        "setups": [{"setup_s": it["setup_s"], "raw_setup_s": it["raw_setup_s"]}
                   for it in raw["setups"]],
        "env": {"nproc": nproc(), "blas_threads": BLAS_THREADS,
                "git_commit": git_commit(), "platform": platform.platform(),
                **versions},
    }


# ---------------------------------------------------------------------------
# reference recording


def _tolerance_class(op_name: str, key: str) -> str:
    if key.startswith("gate.") and key[5:] in RESIDUAL_GATES:
        return "verdict"
    if op_name == "stability-run":
        return "modulation"
    if op_name == "resolvent-scan":
        return "power_iteration"
    return "solver"


def record_reference() -> dict:
    reference = {"seed": REFERENCE_SEED, "tolerances": TOLERANCES,
                 "expected_gate_failures": {}, "workloads": {}}
    for name in WORKLOADS:
        reference["workloads"][name] = {}
        for size in ("full", "smoke"):
            raw = run_workload(name, REFERENCE_SEED, 0, False, size=size,
                               setup_probes=0)
            ops = {}
            for res in raw["iterations"][0]["ops"]:
                if res.get("error"):
                    raise BenchError(f"{name}/{res['name']}: {res['error']}")
                op_def = next(o for o in workload(name, size)["ops"]
                              if o["name"] == res["name"])
                values = dict(res["values"])
                values.update({f"gate.{k}": g["value"]
                               for k, g in res["gates"].items()})
                ops[res["name"]] = {
                    "rc": res["rc"], "seeded": op_def["seeded"],
                    "gates": {k: g["passed"] for k, g in res["gates"].items()},
                    "values": {k: {"value": v,
                                   "tol": _tolerance_class(res["name"], k)}
                               for k, v in sorted(values.items())},
                }
                for gate, g in res["gates"].items():
                    if g["passed"]:
                        continue
                    key = f"{name}/{res['name']}/{gate}"
                    if size == "full" and key not in KNOWN_GATE_FAILURES:
                        raise BenchError(f"unexpected gate failure {key}")
                    reference["expected_gate_failures"][f"{key} ({size})"] = (
                        KNOWN_GATE_FAILURES.get(key) if size == "full" else
                        "smoke size: shortened window")
            reference["workloads"][name][size] = ops
    return reference


# ---------------------------------------------------------------------------
# command line


def report(result: dict) -> None:
    print(f"workload {result['workload']} ({result['size']}) seed "
          f"{result['seed']} trace {int(result['trace'])}: "
          f"{len(result['iterations'])} iterations")
    env = result["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    def line(key, s, unit):
        extra = "".join(f"; {k}={v:.6g}" for k, v in s.items()
                        if k not in ("p50", "n", "unit"))
        print(f"{key} = {s['p50']:.6g} {unit} (median of {s['n']}{extra})")

    for key, s in result["timings"].items():
        line(key, s, s["unit"])
    print(f"stage_s.main is {result['main_stage']}")
    for name, s in result["pipelines_s"].items():
        line(f"pipeline_s.{name}", s, "s")
    for key, m in result["per_layer"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {result['fail_frac']:.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print("reference check: " + ("ok" if result["correct"] else "FAILED"))


def _terminate(_signum, _frame):
    sys.exit(143)   # unwinds subprocess.run, which kills and reaps the worker


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"re-record {REFERENCE.name} at seed "
                             f"{REFERENCE_SEED} and exit")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    try:
        if args.record_reference:
            reference = record_reference()
            REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                                 encoding="utf-8")
            print(f"wrote {REFERENCE}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        reference = load_reference()
        raw = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), size=args.size)
        result = evaluate(raw, reference)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-{args.size}-seed{args.seed}-"
     f"trace{args.trace}.json").write_text(json.dumps(result, indent=1),
                                          encoding="utf-8")
    report(result)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
