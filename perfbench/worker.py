"""One benchmark iteration, or one set-up probe, in a fresh interpreter.

Reads a job (JSON) on stdin and writes its result (JSON) to the path the
job names.  The runner starts this script once per iteration so each one
pays the interpreter start, imports and operator construction a CLI user
pays; the BLAS thread count is pinned in the environment by the runner
before this process imports numpy.

Set-up ends at "ready": magnls imported, the config parsed and the
operator (potentials, HamiltonianSpec, grid caches) built.  The result
reports ``time.monotonic()`` at that point; the runner subtracts its own
clock reading taken just before it started this process.  The machine's
speed is probed when this script starts and at ready (for set-up) and every
few milliseconds during the body (see ``speed.py``, which imports numpy);
every time is reported both raw and calibrated.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import SpeedProbe, speed_now  # noqa: E402


def _build_operator(cfg):
    """The operator a CLI run builds from ``cfg``, through the public API."""
    from magnls import (GridSpec, build_gaussian_well, build_hamiltonian,
                        build_localized_loop_field, make_potential_pair)
    g = GridSpec(cfg.grid.dim, cfg.grid.sizes, cfg.grid.lengths)
    p = cfg.potential
    pot = build_gaussian_well(g, p.depth, p.width, decay_eps=p.decay_eps,
                              lq_exponent=p.lq_exponent)
    if p.kind == "loop":
        a = build_localized_loop_field(g, p.loop_amplitude, p.loop_radius,
                                       p.loop_width)
        pot = make_potential_pair(a, pot.v, decay_eps=p.decay_eps,
                                  lq_exponent=p.lq_exponent)
    elif p.kind != "gaussian_well":
        raise ValueError(f"benchmark configs use gaussian_well or loop, "
                         f"not {p.kind!r}")
    spec = build_hamiltonian(pot)
    g.coords, g.radius, g.k_mesh, g.k_squared  # fill the grid caches
    return spec


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _outputs_of_cli(subcommand: str, out: Path) -> dict:
    """Gate values and verdicts plus the key scalars of one CLI run."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    gates = {k: {"value": g["value"], "passed": g["passed"]}
             for k, g in manifest["gates"].items()}
    values: dict[str, float] = {}
    if subcommand == "ground-state":
        values["e0"] = json.loads((out / "ground_state.json").read_text())["e0"]
    elif subcommand == "bound-state":
        d = json.loads((out / "bound_state.json").read_text())
        values.update(energy=d["energy"], e_prime=d["e_prime"])
    elif subcommand == "evolve":
        last = _read_csv(out / "series.csv")[-1]
        values.update(mass_final=float(last["mass"]),
                      energy_final=float(last["energy"]))
    elif subcommand == "stability-run":
        for i, row in enumerate(_read_csv(out / "stability.csv")):
            for key in ("l1_mod_resid", "tv_ratio", "gap_01", "gap_12",
                        "gap_23"):
                values[f"amp{i}.{key}"] = float(row[key])
    elif subcommand == "strichartz-ratio":
        d = json.loads((out / "strichartz.json").read_text())
        values.update(max_ratio=d["max_ratio"], median_ratio=d["median_ratio"])
    elif subcommand == "resolvent-scan":
        d = json.loads((out / "resolvent.json").read_text())
        values.update(max_scaled=d["max_scaled"],
                      median_scaled=d["median_scaled"])
    elif subcommand == "norm-equivalence":
        for row in _read_csv(out / "norm_equivalence.csv"):
            values[f"p{row['p']}.r_min"] = float(row["r_min"])
            values[f"p{row['p']}.r_max"] = float(row["r_max"])
    return {"gates": gates, "values": values}


def _run_op(op: dict, job: dict, out: Path, spec) -> dict:
    if op["kind"] == "cli":
        from magnls.cli import main
        argv = [op["subcommand"], "--config", job["config_path"],
                "--output", str(out), "--seed", str(job["seed"])]
        for override in op["overrides"]:
            argv += ["--override", override]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        result = {"rc": rc}
        if rc == 2:
            result["error"] = err.getvalue().strip()
        else:
            result.update(_outputs_of_cli(op["subcommand"], out))
        return result
    if op["call"] == "low_spectrum_scan":
        from magnls import low_spectrum_scan
        scan = low_spectrum_scan(spec, op["count"])
        values = {f"eigenvalue_{i}": e for i, e in enumerate(scan.eigenvalues)}
        gates = {"unique_negative": {"value": scan.n_negative,
                                     "passed": scan.unique_negative}}
        return {"rc": 0, "gates": gates, "values": values}
    raise ValueError(f"unknown library call {op['call']!r}")


def _artifacts(run_dir: Path) -> tuple[int, dict[str, str]]:
    """Bytes of the artifacts written, and a digest of every CSV and field
    payload.  The manifests are left out: they record wall-clock time."""
    total = 0
    digests = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        total += path.stat().st_size
        if path.suffix in (".csv", ".fld"):
            digests[str(path.relative_to(run_dir))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return total, digests


def main() -> None:
    speed_start, probe_s = speed_now()
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])

    from magnls.config import parse_config
    cfg = parse_config(job["config_path"])
    spec = _build_operator(cfg)
    ready = time.monotonic()
    speed_ready, _ = speed_now()
    result = {"ready": ready, "setup_probe_s": probe_s,
              "setup_speed": 0.5 * (speed_start + speed_ready)}
    if job["mode"] == "iterate":
        result.update(_iterate(job, spec))
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")


def _iterate(job: dict, spec) -> dict:
    import numpy
    import scipy

    tracer = None
    probe = SpeedProbe()
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        probe.on_probe = tracer.exclude
    run_dir = Path(job["out_dir"])
    ops = []
    intervals = []
    probe.start()
    try:
        t_body = time.perf_counter()
        for i, op in enumerate(job["ops"]):
            out = run_dir / f"{i}-{op['name']}"
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = _run_op(op, job, out, spec)
                else:
                    res = tracer.region(f"op.{op['name']}", _run_op, op, job,
                                        out, spec)
            except Exception as exc:  # an operation that raises fails
                res = {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
            intervals.append((t0, time.perf_counter()))
            res["name"] = op["name"]
            ops.append(res)
        t_end = time.perf_counter()
    finally:
        probe.stop()
    for res, (t0, t1) in zip(ops, intervals):
        res["raw_wall_s"], res["wall_s"] = probe.calibrate(t0, t1)
    raw_wall, wall = probe.calibrate(t_body, t_end)
    artifact_bytes, digests = _artifacts(run_dir)
    result = {
        "ops": ops,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        from tracer import layer_metrics
        result["restored"] = tracer.restore()
        speed = wall / raw_wall
        metrics = {k: (v * speed if unit == "s" else v, unit)
                   for k, (v, unit) in layer_metrics(tracer).items()}
        metrics["cli.artifact_bytes"] = (artifact_bytes, "B")
        result["layers"] = metrics
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return result


if __name__ == "__main__":
    main()
