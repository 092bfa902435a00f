"""INI experiment configuration: parsing, validation, defaults.

A minimal file needs only [grid] and [potential]; every other section has
defaults tuned so the shipped 1D suite passes its gates.  Every validation
failure names the offending section.key, and unknown sections or keys are
rejected outright (a typo should never silently fall back to a default).

The section dataclasses below are the schema: their fields give the keys,
their annotations the value types, their defaults the defaults.  Each
section checks its values by calling the library code that enforces the
same rule at run time (for the potential builders, the checks beside them
in ``potentials``), so a rule is written once and a config is rejected at
parse time for exactly what a run would reject.  A value is checked only
where the potential kind or the initial state in use reads it, and the
three rules that need the grid (a loop field's dimension, a well's width
and the number of ``a_files``) are checked by ``ExperimentConfig``.  Two
things only a run can check: the contents of the field files, and
|z| <= z_max, which depends on the ground state.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import scan_offsets
from .errors import ConfigError, MagnlsError
from .evolution import EvolveConfig
from .grid import DIMENSIONS, GridSpec
from .modulation import check_amplitudes, check_frame_spacing
from .norms import DEFAULT_SIGMA, check_sigma
from .potentials import (check_components, check_decay_hypotheses,
                         check_loop_dim, check_loop_ring, check_well_width,
                         check_width)


def _words(*names: str) -> dict:
    """Field metadata for a key that takes one of a fixed set of words."""
    return {"words": {name: name for name in names}}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class GridConfig:
    dim: int = 1
    sizes: tuple[int, ...] = (256,)
    lengths: tuple[float, ...] = (40.0,)

    def __post_init__(self):
        GridSpec(self.dim, self.sizes, self.lengths)


@dataclass(frozen=True)
class PotentialConfig:
    kind: str = field(default="gaussian_well", metadata=_words(
        "gaussian_well", "gauge", "loop", "file"))
    depth: float = -2.0
    width: float = 1.0
    decay_eps: float = 1.0
    lq_exponent: float = 4.0
    chi_amplitude: float = 0.3
    chi_width: float = 2.0
    loop_amplitude: float = 0.3
    loop_radius: float = 1.5
    loop_width: float = 1.0
    v_file: str = ""
    a_files: tuple[str, ...] = ()

    def __post_init__(self):
        check_decay_hypotheses(self.decay_eps, self.lq_exponent)
        if self.kind == "gauge":
            check_width(self.chi_width, "chi_width")
        if self.kind == "loop":
            check_loop_ring(self.loop_radius, self.loop_width, "loop_")
        _require(self.kind != "file" or self.v_file,
                 "v_file is required when kind = file")


@dataclass(frozen=True)
class SolverConfig:
    resolvent_eps: float = 1e-2

    def __post_init__(self):
        scan_offsets(self.resolvent_eps)


@dataclass(frozen=True)
class NonlinearityConfig:
    sign: int = field(default=1, metadata={
        "words": {"defocusing": 1, "focusing": -1}})
    z_re: float = 0.05
    z_im: float = 0.0
    z_sweep: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08)

    def __post_init__(self):
        for zv in self.z_sweep:
            _require(zv > 0, f"z_sweep entries must be positive, got {zv}")
        _require(len(set(self.z_sweep)) > 1, "z_sweep needs at least two "
                 f"distinct entries for its slope fits, got {self.z_sweep}")

    @property
    def z(self) -> complex:
        return complex(self.z_re, self.z_im)


@dataclass(frozen=True)
class EvolutionConfig(EvolveConfig):
    """The time-step fields and their rules come from ``EvolveConfig``, so
    this section is what ``evolve`` takes."""

    dt: float = 1e-4
    t_final: float = 4.0
    snapshot_stride: int = 500
    conserve_tol: float = 1e-6
    initial: str = field(default="bound_state", metadata=_words(
        "bound_state", "ground_state", "gaussian", "file"))
    init_amplitude: float = 0.01
    init_width: float = 2.0
    init_file: str = ""

    def __post_init__(self):
        super().__post_init__()
        check_frame_spacing(self.snapshot_stride * self.dt)
        if self.initial == "gaussian":
            check_width(self.init_width, "init_width")
        _require(self.initial != "file" or self.init_file,
                 "init_file is required when initial = file")


@dataclass(frozen=True)
class ModulationConfig:
    amplitudes: tuple[float, ...] = (1e-3, 2e-3, 4e-3)
    sigma: float = DEFAULT_SIGMA
    perturb_width: float = 2.0

    def __post_init__(self):
        check_sigma(self.sigma)
        check_amplitudes(self.amplitudes)
        check_width(self.perturb_width, "perturb_width")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "magnls-out"
    seed: int = 12345

    def __post_init__(self):
        _require(0 <= self.seed < 2**64,
                 f"seed must fit in 64 bits, got {self.seed}")
        _require(bool(self.directory), "directory must not be empty")


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    potential: PotentialConfig = field(default_factory=PotentialConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    nonlinearity: NonlinearityConfig = field(default_factory=NonlinearityConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    modulation: ModulationConfig = field(default_factory=ModulationConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        p = self.potential
        with _section("potential"):
            if p.kind == "loop":
                check_loop_dim(self.grid.dim, "kind = loop")
            if p.kind != "file":
                check_well_width(self.grid.lengths, p.width)
            elif p.a_files:
                check_components(len(p.a_files), self.grid.dim, "a_files")

    def echo(self) -> dict:
        """Resolved values, section by section, for the run manifest."""
        out: dict[str, dict] = {}
        for sect in dataclasses.fields(self):
            obj = getattr(self, sect.name)
            vals = {}
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                words = f.metadata.get("words")
                if words:
                    value = next(w for w, v in words.items() if v == value)
                vals[f.name] = (list(value) if isinstance(value, tuple)
                                else value)
            out[sect.name] = vals
        return out


_SECTIONS = typing.get_type_hints(ExperimentConfig)
# section -> key -> (value type, the words it accepts or None)
_KEYS = {
    sect: {f.name: (typing.get_type_hints(cls)[f.name],
                    f.metadata.get("words"))
           for f in dataclasses.fields(cls)}
    for sect, cls in _SECTIONS.items()
}


@contextmanager
def _section(name: str):
    """Name the section in any error its values raise."""
    try:
        yield
    except MagnlsError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def _scalar(kind: type, sect: str, key: str, raw: str):
    if kind is str:
        return raw.strip()
    try:
        value = kind(raw)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{sect}.{key} must be {what}, got {raw!r}") from exc
    _require(math.isfinite(value), f"{sect}.{key} must be finite, got {raw!r}")
    return value


def _convert(sect: str, key: str, raw: str):
    if sect not in _KEYS:
        raise ConfigError(f"[{sect}] is not a recognized section")
    if key not in _KEYS[sect]:
        raise ConfigError(f"{sect}.{key} is not recognized")
    kind, words = _KEYS[sect][key]
    if words:
        word = raw.strip()
        if word not in words:
            raise ConfigError(f"{sect}.{key} must be one of "
                              f"{', '.join(words)}, got {word!r}")
        return words[word]
    if typing.get_origin(kind) is not tuple:
        return _scalar(kind, sect, key, raw)
    item = typing.get_args(kind)[0]
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items and item is not str:
        raise ConfigError(f"{sect}.{key} must be a comma-separated list")
    return tuple(_scalar(item, sect, key, s) for s in items)


def _assemble(values: dict[str, dict[str, object]]) -> ExperimentConfig:
    # a single sizes or lengths entry applies to every axis; an invalid dim
    # is left for GridSpec to reject, without building a tuple that long
    grid = values.setdefault("grid", {})
    dim = grid.get("dim", GridConfig.dim)
    for key in ("sizes", "lengths"):
        axes = grid.get(key, getattr(GridConfig, key))
        if len(axes) == 1 and dim in DIMENSIONS:
            grid[key] = axes * dim
    sections = {}
    for sect, cls in _SECTIONS.items():
        with _section(sect):
            sections[sect] = cls(**values.get(sect, {}))
    return ExperimentConfig(**sections)


def parse_config(path: str | Path,
                 overrides: tuple[str, ...] = ()) -> ExperimentConfig:
    """Load, override, validate.

    ``overrides`` are ``section.key=value`` strings applied after the file,
    passing through exactly the same validation.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    for sect in parser.sections():
        for key, raw in parser.items(sect):
            values.setdefault(sect, {})[key] = _convert(sect, key, raw)
    for sect in ("grid", "potential"):
        if sect not in values:
            raise ConfigError(f"config must contain a [{sect}] section")

    for text in overrides:
        if "=" not in text or "." not in text.split("=", 1)[0]:
            raise ConfigError(
                f"override must look like section.key=value, got {text!r}")
        target, raw = text.split("=", 1)
        sect, key = target.split(".", 1)
        sect, key = sect.strip(), key.strip()
        values.setdefault(sect, {})[key] = _convert(sect, key, raw)

    return _assemble(values)
