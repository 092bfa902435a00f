"""Config parsing contract and end-to-end command-line runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magnls
from magnls import ConfigError, GridSpec, cli, ground_state, parse_config
from magnls.cli import main
from magnls.grid import make_field, write_field, zero_vector_field
from magnls.hamiltonian import build_hamiltonian
from magnls.potentials import build_gaussian_well, make_potential_pair

MINIMAL = """\
[grid]
sizes = 256
lengths = 40.0

[potential]
kind = gaussian_well
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.grid.dim == 1
    assert cfg.grid.sizes == (256,)
    assert cfg.potential.depth == -2.0
    assert cfg.potential.width == 1.0
    assert cfg.solver.resolvent_eps == 1e-2
    assert cfg.nonlinearity.sign == 1
    assert cfg.nonlinearity.z == 0.05 + 0.0j
    assert cfg.nonlinearity.z_sweep == (0.01, 0.02, 0.04, 0.08)
    assert cfg.evolution.dt == 1e-4
    assert cfg.evolution.t_final == 4.0
    assert cfg.evolution.snapshot_stride == 500
    assert cfg.modulation.sigma == 4.1
    assert cfg.modulation.amplitudes == (1e-3, 2e-3, 4e-3)
    assert cfg.output.seed == 12345


def test_scalar_grid_entries_broadcast_to_dim(tmp_path):
    text = MINIMAL.replace("[grid]", "[grid]\ndim = 3").replace(
        "sizes = 256", "sizes = 16").replace("lengths = 40.0",
                                             "lengths = 20.0")
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.grid.sizes == (16, 16, 16)
    assert cfg.grid.lengths == (20.0, 20.0, 20.0)
    mixed = text.replace("sizes = 16", "sizes = 16, 8, 8")
    cfg = parse_config(write_config(tmp_path, mixed, "mixed.ini"))
    assert cfg.grid.sizes == (16, 8, 8)


def test_typo_in_section_is_named(tmp_path):
    text = MINIMAL.replace("[potential]", "[potental]")
    with pytest.raises(ConfigError,
                       match=r"\[potental\] is not a recognized section"):
        parse_config(write_config(tmp_path, text))


def test_typo_in_key_is_named(tmp_path):
    # tol is a typo; max_iter and tol_rel were keys once and are gone
    for key in ("tol", "max_iter", "tol_rel"):
        text = MINIMAL + f"\n[solver]\n{key} = 1e-9\n"
        with pytest.raises(ConfigError,
                           match=f"solver.{key} is not recognized"):
            parse_config(write_config(tmp_path, text))


def test_missing_required_section(tmp_path):
    text = "[grid]\nsizes = 256\nlengths = 40.0\n"
    with pytest.raises(ConfigError,
                       match=r"must contain a \[potential\] section"):
        parse_config(write_config(tmp_path, text))


def test_malformed_line_reports_position(tmp_path):
    text = "sizes = 256\n" + MINIMAL
    with pytest.raises(ConfigError, match="config parse error") as err:
        parse_config(write_config(tmp_path, text))
    assert "line" in str(err.value)


def test_bad_number_is_named(tmp_path):
    text = MINIMAL.replace("sizes = 256", "sizes = twelve")
    with pytest.raises(ConfigError,
                       match="grid.sizes must be an integer, got 'twelve'"):
        parse_config(write_config(tmp_path, text))


def test_power_of_two_rule(tmp_path):
    text = MINIMAL.replace("sizes = 256", "sizes = 100")
    with pytest.raises(ConfigError,
                       match="powers of two >= 8, got 100"):
        parse_config(write_config(tmp_path, text))


def test_sigma_floor_message(tmp_path):
    text = MINIMAL + "\n[modulation]\nsigma = 4.0\n"
    with pytest.raises(ConfigError, match="modulation.sigma must exceed 4"):
        parse_config(write_config(tmp_path, text))


def test_time_step_rules(tmp_path):
    big = MINIMAL + "\n[evolution]\ndt = 0.2\n"
    with pytest.raises(ConfigError,
                       match=r"evolution.dt must lie in \(0, 0.1\]"):
        parse_config(write_config(tmp_path, big))
    # stride * dt caps the spacing between tracked frames
    sparse = MINIMAL + "\n[evolution]\ndt = 1e-3\nsnapshot_stride = 500\n"
    with pytest.raises(ConfigError, match="snapshot_stride \\* dt"):
        parse_config(write_config(tmp_path, sparse, "sparse.ini"))


def test_a_partial_step_window_is_rejected_before_any_run(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL.replace("sizes = 256",
                                                  "sizes = 128"))
    out = tmp_path / "run"
    code = main(["linear-evolve", "--config", str(path), "--output", str(out),
                 "--override", "evolution.t_final=0.00015",
                 "--override", "evolution.initial=gaussian"])
    assert code == 2
    assert ("evolution.t_final 0.00015 is not a whole number of steps"
            in capsys.readouterr().err)
    assert not out.exists()


LOOP_2D = ("[grid]\ndim = 2\nsizes = 16\nlengths = 20.0\n\n"
           "[potential]\nkind = loop\n")


@pytest.mark.parametrize("loop, overrides, message", [
    (False, ["potential.width=10"], "potential.width 10.0 too large"),
    (True, ["potential.width=4"], "potential.width 4.0 too large"),
    (False, ["potential.width=0"], "potential.width must be positive"),
    (False, ["evolution.initial=gaussian", "evolution.init_width=0"],
     "evolution.init_width must be positive"),
    (True, ["potential.loop_width=0"], "potential.loop_width must be positive"),
    (True, ["potential.loop_radius=-1"], "potential.loop_radius must be >= 0"),
    (False, ["potential.kind=gauge", "potential.chi_width=0"],
     "potential.chi_width must be positive"),
    (True, ["potential.kind=file", "potential.v_file=v.fld",
            "potential.a_files=a.fld"], "potential.a_files needs 2 components"),
    (False, ["modulation.perturb_width=0"],
     "modulation.perturb_width must be positive"),
    (False, ["potential.kind=loop"], "potential.kind = loop needs grid.dim >= 2"),
])
def test_a_builder_rule_rejects_its_value_at_parse_time(tmp_path, capsys, loop,
                                                        overrides, message):
    # each builder check runs on the config, so a value the run would
    # reject exits 2 before any operator is built: no output directory
    path = write_config(tmp_path, LOOP_2D if loop else MINIMAL)
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_config(path, tuple(overrides))
    out = tmp_path / "run"
    args = ["ground-state", "--config", str(path), "--output", str(out)]
    for override in overrides:
        args += ["--override", override]
    assert main(args) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_builder_rule_skips_a_value_its_run_does_not_read(tmp_path):
    # the gauge width, the loop ring and the Gaussian start's width are read
    # only by their kind or start, and a file potential reads no well width
    path = write_config(tmp_path, MINIMAL)
    cfg = parse_config(path, ("potential.chi_width=0", "potential.loop_width=0",
                              "potential.loop_radius=-1",
                              "evolution.init_width=0"))
    assert cfg.potential.kind == "gaussian_well"
    cfg = parse_config(path, ("potential.kind=file", "potential.v_file=v.fld",
                              "potential.width=0"))
    assert cfg.potential.width == 0.0


def test_overrides_apply_after_file(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    cfg = parse_config(path, overrides=("potential.depth=-1.5",
                                        "output.seed=7"))
    assert cfg.potential.depth == -1.5
    assert cfg.output.seed == 7
    with pytest.raises(ConfigError, match="override must look like"):
        parse_config(path, overrides=("depth=-1.5",))
    with pytest.raises(ConfigError, match="is not recognized"):
        parse_config(path, overrides=("potential.dep=-1.5",))


def test_echo_resolves_tuples_and_renames_sign(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    echo = cfg.echo()
    assert echo["nonlinearity"]["sign"] == "defocusing"
    assert echo["grid"]["sizes"] == [256]
    assert echo["modulation"]["amplitudes"] == [1e-3, 2e-3, 4e-3]


def test_cli_pass_run_and_manifest_inventory(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "run"
    code = main(["ground-state", "--config", str(path),
                 "--output", str(out), "--seed", "99"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "pass"
    assert manifest["seed"] == 99
    assert manifest["gates"]["eigen_residual"]["passed"]
    # the manifest inventory is exactly the files on disk
    assert sorted(p.name for p in out.iterdir()) == manifest["outputs"]
    payload = json.loads((out / "ground_state.json").read_text())
    assert payload["e0"] < -0.9


def test_cli_gate_failure_exits_one(tmp_path):
    flat = make_field(GridSpec(1, (256,), (40.0,)),
                      np.full(256, -0.5, dtype=np.complex128))
    vfile = tmp_path / "flat.fld"
    write_field(vfile, flat)
    text = MINIMAL.replace(
        "kind = gaussian_well", f"kind = file\nv_file = {vfile}")
    out = tmp_path / "run"
    code = main(["validate-potentials", "--config",
                 str(write_config(tmp_path, text)), "--output", str(out)])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-failed"
    assert not manifest["gates"]["potential_checks"]["passed"]


def test_cli_config_error_exits_two(tmp_path, capsys):
    code = main(["ground-state", "--config", str(tmp_path / "missing.ini")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    bad = write_config(tmp_path, MINIMAL.replace("[potential]", "[potental]"))
    assert main(["ground-state", "--config", str(bad)]) == 2


@pytest.mark.parametrize("subcommand, overrides", [
    ("linear-evolve", ["evolution.t_final=nan", "evolution.initial=gaussian"]),
    ("ground-state", ["potential.depth=nan"]),
    ("bound-state", ["nonlinearity.z_re=inf"]),
])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, subcommand,
                                             overrides):
    # a NaN or an infinity is rejected with the key it was given for,
    # before any run starts: no output directory, no manifest
    out = tmp_path / "run"
    args = [subcommand, "--config", str(write_config(tmp_path, MINIMAL)),
            "--output", str(out)]
    for override in overrides:
        args += ["--override", override]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert f"{overrides[0].split('=')[0]} must be finite" in err
    assert not out.exists()


def test_repeated_stability_amplitudes_are_a_config_error(tmp_path, capsys):
    # the mod_resid_slope gate fits a line through the amplitudes: a
    # repeated one would fit it through fewer distinct points
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "run"
    assert main(["stability-run", "--config", str(path), "--output", str(out),
                 "--override", "modulation.amplitudes=2e-3,2e-3"]) == 2
    err = capsys.readouterr().err
    assert "config error: modulation.amplitudes must be positive and " \
           "pairwise distinct" in err
    assert not out.exists()
    # one amplitude is a sweep without a slope gate
    cfg = parse_config(path, ("modulation.amplitudes=2e-3",))
    assert cfg.modulation.amplitudes == (2e-3,)


def test_cli_numeric_error_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "run"
    code = main(["ground-state", "--config", str(path), "--output", str(out),
                 "--override", "potential.depth=-1e-12"])
    assert code == 2
    assert "error" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"]


def test_cli_reruns_are_byte_identical(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["resolvent-scan", "--config", str(path),
                     "--output", str(out)]) == 0
        blobs.append(((out / "resolvent.csv").read_bytes(),
                      (out / "resolvent.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_strichartz_ratio_passes_and_reruns_byte_identical(tmp_path):
    # the default scan: 4 homogeneous and 2 Duhamel sources, 3 pairs each
    path = write_config(tmp_path, MINIMAL)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["strichartz-ratio", "--config", str(path),
                     "--output", str(out)]) == 0
        lines = (out / "strichartz.csv").read_text().splitlines()
        assert len(lines) == 1 + 18
        gates = json.loads((out / "manifest.json").read_text())["gates"]
        assert gates["strichartz_spread"]["passed"]
        blobs.append(((out / "strichartz.csv").read_bytes(),
                      (out / "strichartz.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_resolvent_scan_passes_on_a_2d_loop_grid(tmp_path):
    # on 1,024 points the default lambda grid sits in the gaps of the box
    # levels, as in 1D; a uniform grid puts lambda = 2.8 within 1.5e-3 of a
    # level, and the scaled norm there grows 2.00 -> 8.93 from eps to eps/10
    loop = ("[grid]\ndim = 2\nsizes = 32\nlengths = 20.0\n\n"
            "[potential]\nkind = loop\n")
    out = tmp_path / "run"
    assert main(["resolvent-scan", "--config",
                 str(write_config(tmp_path, loop)), "--output", str(out),
                 "--seed", "0"]) == 0
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert gates["resolvent_eps_stability"]["passed"]
    assert gates["resolvent_flatness"]["passed"]


def test_file_potential_matches_direct_construction(tmp_path):
    g = GridSpec(1, (256,), (40.0,))
    well = build_gaussian_well(g, -2.0, 1.0)
    vfile = tmp_path / "well.fld"
    write_field(vfile, well.v)
    text = MINIMAL.replace(
        "kind = gaussian_well", f"kind = file\nv_file = {vfile}")
    out = tmp_path / "run"
    assert main(["ground-state", "--config",
                 str(write_config(tmp_path, text)),
                 "--output", str(out)]) == 0
    payload = json.loads((out / "ground_state.json").read_text())
    spec = build_hamiltonian(
        make_potential_pair(zero_vector_field(g), well.v))
    direct = ground_state(spec)
    assert abs(payload["e0"] - direct.e0) <= 1e-12


@pytest.mark.parametrize("key", ["potential.v_file", "potential.a_files",
                                 "evolution.init_file", "cut-header"])
def test_field_file_on_another_grid_is_a_config_error(tmp_path, key):
    # a field on another grid is an error naming its key and file; a
    # v_file whose header is cut short (the last case) is one naming the file
    g = GridSpec(1, (256,), (40.0,))
    good, bad = tmp_path / "good.fld", tmp_path / "bad.fld"
    write_field(good, build_gaussian_well(g, -2.0, 1.0).v)
    write_field(bad, build_gaussian_well(GridSpec(1, (128,), (40.0,)),
                                         -2.0, 1.0).v)
    files = {"potential.v_file": good, "potential.a_files": good,
             "evolution.init_file": good}
    if key == "cut-header":
        bad.write_bytes(b"MNLSFLD1\x01")
        files["potential.v_file"] = bad
    else:
        files[key] = bad
    text = MINIMAL.replace(
        "kind = gaussian_well",
        f"kind = file\nv_file = {files['potential.v_file']}\n"
        f"a_files = {files['potential.a_files']}") + (
        "\n[evolution]\ninitial = file\n"
        f"init_file = {files['evolution.init_file']}\n")
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(write_config(tmp_path, text)),
                 "--output", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert str(bad) in manifest["error"]
    if key != "cut-header":
        assert key in manifest["error"]


@pytest.mark.parametrize("sweep", ["0.02", "0.02, 0.02"])
def test_bound_family_sweep_needs_two_distinct_amplitudes(tmp_path, capsys,
                                                          sweep):
    # the bound-family slopes are fits through the sweep: one amplitude, or
    # several equal ones, would fit a line through one point
    path = write_config(tmp_path, MINIMAL)
    override = f"nonlinearity.z_sweep={sweep}"
    with pytest.raises(ConfigError,
                       match=r"^nonlinearity\.z_sweep needs at least two"):
        parse_config(path, overrides=(override,))
    assert main(["bound-family", "--config", str(path), "--output",
                 str(tmp_path / "run"), "--override", override]) == 2
    assert "z_sweep needs at least two" in capsys.readouterr().err
    cfg = parse_config(path, overrides=("nonlinearity.z_sweep=0.02, 0.04",))
    assert cfg.nonlinearity.z_sweep == (0.02, 0.04)


def test_resolvent_eps_floor_covers_the_fine_scan(tmp_path):
    # resolvent-scan also runs at eps / 10, and every resolvent solve needs
    # |Im zeta| >= 1e-8, so 1e-8 itself must be rejected before any scan
    path = write_config(tmp_path, MINIMAL)
    with pytest.raises(ConfigError, match=r"^solver\.resolvent_eps must be"):
        parse_config(path, overrides=("solver.resolvent_eps=1e-8",))
    cfg = parse_config(path, overrides=("solver.resolvent_eps=1e-7",))
    assert cfg.solver.resolvent_eps == 1e-7


def test_cli_seed_goes_through_config_validation(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    code = main(["ground-state", "--config", str(path),
                 "--output", str(tmp_path / "run"),
                 "--seed", "18446744073709551616"])
    assert code == 2
    assert "output.seed" in capsys.readouterr().err


def assert_one_drift_gate_failed(code, out, capsys):
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-failed"
    # which quantity breaches first depends on the BLAS thread count
    (name, gate), = [(k, g) for k, g in manifest["gates"].items()
                     if k in ("mass_drift", "energy_drift")]
    assert not gate["passed"]
    assert gate["value"] > 1e-300
    assert f"[FAIL] {name}" in capsys.readouterr().out


def test_cli_conservation_breach_fails_its_gate(tmp_path, capsys):
    # a drift tolerance below round-off: the run reports a failed gate (exit
    # 1) instead of a numerical error (exit 2).  A Gaussian, not the bound
    # state: a bound state only turns its phase, and over these ten steps
    # its mass and energy can come out exact to the last bit
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "run"
    code = main(["evolve", "--config", str(path), "--output", str(out),
                 "--override", "evolution.initial=gaussian",
                 "--override", "evolution.conserve_tol=1e-300",
                 "--override", "evolution.t_final=0.01",
                 "--override", "evolution.dt=1e-3",
                 "--override", "evolution.snapshot_stride=10"])
    assert_one_drift_gate_failed(code, out, capsys)


def test_stability_run_conservation_breach_fails_its_gate(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "run"
    code = main(["stability-run", "--config", str(path), "--output", str(out),
                 "--override", "evolution.conserve_tol=1e-300",
                 "--override", "evolution.t_final=0.05",
                 "--override", "evolution.dt=1e-3",
                 "--override", "evolution.snapshot_stride=10",
                 "--override", "modulation.amplitudes=1e-3"])
    assert_one_drift_gate_failed(code, out, capsys)


@pytest.mark.parametrize("amplitudes, tracked", [("1e-3, 0.1", 1),
                                                   ("0.1, 1e-3", 0)])
def test_stability_run_stops_at_the_first_breached_amplitude(
        tmp_path, capsys, amplitudes, tracked):
    # at this tolerance the energy drift of amplitude 0.1 breaches its limit
    # 1e-8 at the first snapshot (7.7e-8), and that of 1e-3 stays below
    # 6e-10 to the end: the amplitudes before the first breached one are
    # tracked and written, and its failed drift gate ends the run
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "run"
    code = main(["stability-run", "--config", str(path), "--output", str(out),
                 "--override", "evolution.conserve_tol=1e-9",
                 "--override", "evolution.t_final=0.5",
                 "--override", "evolution.dt=1e-2",
                 "--override", "evolution.snapshot_stride=10",
                 "--override", f"modulation.amplitudes={amplitudes}"])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "gate-failed"
    assert list(manifest["gates"]) == ["energy_drift"]
    gate = manifest["gates"]["energy_drift"]
    assert not gate["passed"] and gate["value"] > 1e-8
    assert [(out / f"track_{i}.csv").exists() for i in range(2)] == \
        [i < tracked for i in range(2)]
    assert "[FAIL] energy_drift" in capsys.readouterr().out


def test_manifest_records_the_linear_backend(tmp_path):
    loop = ("[grid]\ndim = 2\nsizes = 32\nlengths = 20.0\n\n"
            "[potential]\nkind = loop\n")
    for name, text, backend in (("well", MINIMAL, "dense"),
                                ("loop", loop, "krylov")):
        out = tmp_path / name
        assert main(["ground-state", "--config",
                     str(write_config(tmp_path, text, f"{name}.ini")),
                     "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["linear_backend"] == backend
        assert set(manifest["platform"]["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def test_gauge_kind_adds_a_gradient_field_to_the_well(tmp_path):
    # kind = gauge pairs A = grad(chi), chi the Gaussian bump of chi_amplitude
    # and chi_width, with the well's own V.  That is not gauge_transform's
    # pair, which also adds |grad chi|^2 to V and keeps the spectrum: here
    # e0 moves from the plain well's.  A != 0 puts it on the Krylov backend
    path = write_config(tmp_path, MINIMAL.replace("sizes = 256",
                                                  "sizes = 128"))
    e0 = {}
    for kind, backend in (("gaussian_well", "dense"), ("gauge", "krylov")):
        out = tmp_path / kind
        assert main(["ground-state", "--config", str(path), "--output",
                     str(out), "--override", f"potential.kind={kind}"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["linear_backend"] == backend
        e0[kind] = json.loads((out / "ground_state.json").read_text())["e0"]
    assert e0["gaussian_well"] == pytest.approx(-0.95478, abs=1e-5)
    assert e0["gauge"] == pytest.approx(-0.96146, abs=1e-5)


def test_ground_state_start_is_z_times_the_ground_state(tmp_path):
    # the linear flow keeps the start's mass |z|^2 and its energy e0 |z|^2;
    # a bound-state start would carry the correction's mass too
    path = write_config(tmp_path, MINIMAL.replace("sizes = 256",
                                                  "sizes = 128"))
    out = tmp_path / "run"
    assert main(["linear-evolve", "--config", str(path), "--output", str(out),
                 "--override", "evolution.initial=ground_state",
                 "--override", "evolution.dt=1e-3",
                 "--override", "evolution.t_final=0.05",
                 "--override", "evolution.snapshot_stride=10"]) == 0
    _, first = (out / "series.csv").read_text().splitlines()[:2]
    _, mass, energy, _ = map(float, first.split(","))
    assert mass == pytest.approx(0.05**2, rel=1e-12)
    assert energy / mass == pytest.approx(-0.95478, abs=1e-5)


def test_resolvent_scan_without_a_bound_state_warns_and_scans(tmp_path):
    # a repulsive well has no bound state: the scan runs without the
    # spectral projection and the manifest says so
    path = write_config(tmp_path, MINIMAL.replace("sizes = 256",
                                                  "sizes = 128"))
    out = tmp_path / "run"
    assert main(["resolvent-scan", "--config", str(path), "--output",
                 str(out), "--override", "potential.depth=1.0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == [
        "no bound state; scanning without spectral projection"]
    assert len((out / "resolvent.csv").read_text().splitlines()) == 1 + 32


@pytest.mark.parametrize("subcommand", ["evolve", "linear-evolve"])
def test_gaussian_start_needs_no_bound_state(tmp_path, subcommand):
    # a repulsive well has no bound state; a Gaussian start must not ask
    # for the ground state, so the run completes and records its drifts
    path = write_config(tmp_path, MINIMAL.replace("sizes = 256",
                                                  "sizes = 128"))
    out = tmp_path / "run"
    code = main([subcommand, "--config", str(path), "--output", str(out),
                 "--override", "potential.depth=1.0",
                 "--override", "evolution.initial=gaussian",
                 "--override", "evolution.dt=1e-3",
                 "--override", "evolution.t_final=0.05",
                 "--override", "evolution.snapshot_stride=10"])
    assert code == 0
    gates = json.loads((out / "manifest.json").read_text())["gates"]
    assert sorted(gates) == ["energy_drift", "mass_drift"]
    assert gates["mass_drift"]["value"] <= 1e-12


# Every subcommand and the gates its manifest records.
SUBCOMMAND_GATES = {
    "validate-potentials": ["potential_checks"],
    "ground-state": ["bound_below", "eigen_residual"],
    "bound-state": ["eigen_problem_residual"],
    "bound-family": ["decay_beta_positive", "decay_fit_quality",
                     "family_residuals", "slope_e_prime", "slope_q_h2"],
    "evolve": ["energy_drift", "mass_drift"],
    "linear-evolve": ["energy_drift", "mass_drift"],
    "stability-run": ["adjusted_tv_halving", "mod_resid_slope",
                      "orthogonality_rel", "scattering_cauchy"],
    "resolvent-scan": ["resolvent_eps_stability", "resolvent_flatness"],
    "norm-equivalence": ["ratio_floor", "ratio_spread"],
    "strichartz-ratio": ["strichartz_spread"],
}


def reject_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


def test_every_subcommand_records_its_gates_and_exits_by_them(tmp_path):
    # a short evolution window keeps stability-run to a fraction of a
    # second; on it some stability gates may fail, and the exit status
    # must say exactly that
    assert sorted(SUBCOMMAND_GATES) == sorted(cli._DISPATCH)
    path = write_config(tmp_path, MINIMAL.replace("sizes = 256",
                                                  "sizes = 128"))
    for subcommand, names in SUBCOMMAND_GATES.items():
        out = tmp_path / subcommand
        code = main([subcommand, "--config", str(path), "--output", str(out),
                     "--override", "evolution.t_final=0.5",
                     "--override", "evolution.dt=1e-3",
                     "--override", "evolution.snapshot_stride=50"])
        manifest = json.loads((out / "manifest.json").read_text())
        gates = manifest["gates"]
        assert sorted(gates) == names, subcommand
        ok = all(gate["passed"] for gate in gates.values())
        assert code == (0 if ok else 1), subcommand
        assert manifest["status"] == ("pass" if ok else "gate-failed")
        assert sorted(p.name for p in out.iterdir()) == manifest["outputs"]
        # every JSON artifact is strict JSON: no NaN or Infinity
        for name in manifest["outputs"]:
            if name.endswith(".json"):
                json.loads((out / name).read_text(),
                           parse_constant=reject_constant)
    assert {"stability.csv", "stability.json"} <= set(
        json.loads((tmp_path / "stability-run" / "manifest.json")
                   .read_text())["outputs"])


def test_cli_owns_no_gate_threshold():
    # each threshold and its comparison live beside the quantity they gate;
    # the runners only record the verdicts they get back
    def numeric(node) -> bool:
        # a number, or arithmetic on numbers, or a tuple of those
        return all(
            isinstance(n, (ast.Tuple, ast.UnaryOp, ast.BinOp, ast.unaryop,
                           ast.operator, ast.expr_context))
            or (isinstance(n, ast.Constant) and type(n.value) in (int, float))
            for n in ast.walk(node))

    tree = ast.parse(Path(cli.__file__).read_text())
    found = [f"{node.lineno} assignment" for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and node.value is not None and numeric(node.value)]
    found += [f"{node.lineno} import {alias.name}"
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names
              if alias.name.endswith(("_CAP", "_FLOOR"))
              or alias.name in ("within", "at_least")]
    assert found == []


def test_stability_experiment_lives_in_modulation():
    # the perturbation, the stacked evolution and the tracking of
    # stability-run are modulation.stability_sweep; the CLI only writes
    tree = ast.parse(Path(cli.__file__).read_text())
    found = [f"{node.lineno} import {alias.name}"
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names
             if alias.name in ("track", "decompose", "project_continuous",
                               "norm_h1")]
    assert found == []


def package_env(**overrides) -> dict:
    """The environment of a subprocess that imports this magnls."""
    src = str(Path(magnls.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src,
                                               os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=pythonpath, **overrides)


# Run in a new interpreter: its last line of output lists the scipy modules
# loaded after importing the CLI, after a dense 1D bound-state run, and after
# building a Krylov (loop-field) operator.
IMPORT_PROBE = """
import json, sys
seen = []
def loaded():
    seen.append([m for m in ("scipy", "scipy.linalg", "scipy.sparse",
                             "scipy.sparse.linalg") if m in sys.modules])
from magnls.cli import main
loaded()
assert main(["bound-state", "--config", sys.argv[1],
             "--output", sys.argv[2]]) == 0
loaded()
from magnls import (GridSpec, build_gaussian_well, build_hamiltonian,
                    build_localized_loop_field, make_potential_pair)
g = GridSpec(2, (16, 16), (20.0, 20.0))
spec = build_hamiltonian(make_potential_pair(
    build_localized_loop_field(g, 0.3, 1.5, 1.0),
    build_gaussian_well(g, -2.0, 1.0).v))
assert spec.linear_backend == "krylov"
loaded()
print(json.dumps(seen))
"""


def test_dense_runs_load_no_scipy_solver_and_krylov_operators_load_gmres(
        tmp_path):
    config = MINIMAL.replace("sizes = 256", "sizes = 128")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE,
         str(write_config(tmp_path, config)), str(tmp_path / "out")],
        env=package_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    after_import, after_bound_state, after_krylov = json.loads(
        proc.stdout.splitlines()[-1])
    # a dense run loads no scipy at all, and its manifest says so
    assert after_import == after_bound_state == []
    assert "scipy.sparse.linalg" in after_krylov
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["platform"]["scipy"] is None


# Run in a new interpreter: each argument after the config and the output
# directory is a subcommand run on that config; the last line of output
# lists, after each run, which of scipy.fft and scipy.special are loaded.
FFT_IMPORT_PROBE = """
import json, sys
from magnls.cli import main
seen = []
for sub in sys.argv[3:]:
    code = main([sub, "--config", sys.argv[1], "--output", sys.argv[2] + sub])
    seen.append([sub, code, [m for m in ("scipy.fft", "scipy.special")
                             if m in sys.modules]])
print(json.dumps(seen))
"""


def fft_imports(tmp_path, config, subcommands) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", FFT_IMPORT_PROBE,
         str(write_config(tmp_path, config)), str(tmp_path / "out-"),
         *subcommands],
        env=package_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_dense_1d_runs_load_no_scipy_fft_and_2d_runs_do(tmp_path):
    # a one-axis transform runs numpy.fft, so no 1D run pays the scipy.fft
    # import; a 2D run transforms two axes from its first solve on
    config = MINIMAL.replace("sizes = 256", "sizes = 128")
    runs = fft_imports(tmp_path, config, ("ground-state", "bound-state",
                                          "norm-equivalence",
                                          "strichartz-ratio",
                                          "resolvent-scan"))
    assert all(code == 0 and loaded == [] for _, code, loaded in runs), runs
    loop = ("[grid]\ndim = 2\nsizes = 16\nlengths = 20.0\n\n"
            "[potential]\nkind = loop\n")
    [(_, code, loaded)] = fft_imports(tmp_path, loop, ("ground-state",))
    assert code == 0
    assert "scipy.fft" in loaded


def concurrent_evolve_reruns(path, tmp_path, tag, env) -> list[dict]:
    """Two ``magnls evolve`` runs of one config in new interpreters, started
    together; the bytes of each run's .csv and .fld outputs by name."""
    outs = [tmp_path / f"{tag}{rerun}" for rerun in ("a", "b")]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "magnls.cli", "evolve", "--config", str(path),
         "--output", str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for out in outs]
    for proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
    return [{p.name: p.read_bytes() for p in sorted(out.iterdir())
             if p.suffix in (".csv", ".fld")} for out in outs]


def test_evolve_is_byte_identical_under_each_blas_thread_count(tmp_path):
    # the dense eigenbasis may differ bitwise between BLAS thread counts;
    # reruns under one setting must not
    path = write_config(tmp_path, MINIMAL)
    for threads in ("1", "2"):
        payloads = concurrent_evolve_reruns(
            path, tmp_path, f"threads{threads}",
            package_env(OPENBLAS_NUM_THREADS=threads))
        assert payloads[0] == payloads[1]
        assert "series.csv" in payloads[0]


def test_krylov_evolve_reruns_are_byte_identical(tmp_path):
    # criterion 13 on the Krylov backend: A != 0, so every Crank-Nicolson
    # step is a Richardson sweep on the kernel kept for its shift
    loop = ("[grid]\ndim = 2\nsizes = 16\nlengths = 20.0\n\n"
            "[potential]\nkind = loop\n\n"
            "[evolution]\ndt = 1e-3\nt_final = 0.05\nsnapshot_stride = 10\n")
    payloads = concurrent_evolve_reruns(write_config(tmp_path, loop),
                                        tmp_path, "loop", package_env())
    assert payloads[0] == payloads[1]
    assert "series.csv" in payloads[0]
    assert any(name.endswith(".fld") for name in payloads[0])
