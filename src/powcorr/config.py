"""Flat key=value experiment configuration with flag overrides.

Experiments are parameter grids, so the configuration is a single flat
namespace: every key can live in a config file, be overridden on the
command line, and is embedded verbatim in every emitted report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .dyadic import DyadicRational
from .errors import DomainError, PowcorrError

__all__ = ["ExperimentConfig", "UsageError", "parse_rational",
           "parse_config_file", "resolve_config"]


class UsageError(PowcorrError, ValueError):
    """Bad command-line or config-file input; maps to exit code 2."""


def parse_rational(text) -> DyadicRational:
    """Dyadic value in the grammar of `DyadicRational.parse`; anything it
    refuses is a usage error."""
    if isinstance(text, DyadicRational):
        return text
    try:
        return DyadicRational.parse(str(text))
    except DomainError as exc:
        raise UsageError(f"cannot parse rational {text!r}: {exc}") from None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected true or false")


def _list_of(kind):
    """Parser of comma-separated values of one type."""
    return lambda text: tuple(kind(v) for v in text.split(",") if v.strip())


def _rational(text: str) -> str:
    """The text itself, once `DyadicRational.parse` accepts it."""
    DyadicRational.parse(text)
    return text


def _one_of(*names):
    """Parser of one name from a fixed set."""
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return text
    return parse


def _setting(default, parse, help, flag=None):
    """A field with its one parser of flag and file text, its help text and
    its flag (None: --name, underscores as dashes)."""
    return field(default=default,
                 metadata={"parse": parse, "help": help, "flag": flag})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a command needs; unset optionals fall back to defaults.

    The fields are the one list of settings: each is a config-file key and
    a flag, and flag text and file text go through the same parser."""

    A: str = _setting("3/2", _rational, "left endpoint of [A, A+1]")
    x: str | None = _setting(None, _rational, "pin the base x (rational)")
    xi: str = _setting("1", _rational, "multiplier xi (rational)")
    mantissa_bits: int = _setting(64, int, "dyadic depth of each drawn x")
    seed: int = _setting(1, int, "seed of sample 0; sample i uses seed + i")
    n_values: tuple = _setting((1024,), _list_of(int),
                               "comma-separated N values", "--N")
    s_grid: tuple = _setting((1.0,), _list_of(float),
                             "comma-separated window scales", "--s")
    guard_bits: int | None = _setting(None, int,
                                      "ladder guard bits (default: budgeted)")
    delta: str | None = _setting(None, _rational, "window ramp width")
    flavor: str = _setting("outer", _one_of("inner", "outer"),
                           "inner (below) or outer (above) smoothed window")
    smoothed: bool = _setting(False, _parse_bool,
                              "also report smoothed pair statistics")
    control: str = _setting("none", _one_of("none", "uniform", "nalpha"),
                            "none (powers), uniform or nalpha points")
    samples: int = _setting(10, int, "point sets per N")
    q: float = _setting(0.9, float,
                        "required fraction of samples within tolerance")
    tol: float = _setting(0.15, float, "tolerance on r2 / 2s around 1")
    work_cap: int = _setting(2 ** 34, int, "cap, >= 0, on the plan's summed "
                             "hpgen.ladder_work, in modelled bit operations")
    k: int = _setting(1, int, "block index")
    j: int = _setting(1, int, "coarser block index")
    atom_index: int = _setting(0, int, "filtration atom of probe z")
    parity: str = _setting("odd", _one_of("odd", "even"),
                           "odd or even blocks in probe moment")
    mc_samples: int = _setting(200, int, "Monte Carlo draws of probe moment")
    sample_count: int = _setting(10, int, "atoms sampled by probe condexp")
    l_values: tuple = _setting((1,), _list_of(int),
                               "comma-separated frequency multipliers", "--l")
    n_powers: tuple = _setting((2,), _list_of(int),
                               "comma-separated larger exponents")
    m_powers: tuple = _setting((1,), _list_of(int),
                               "comma-separated smaller exponents")
    m1: int = _setting(2, int, "first smaller exponent")
    m2: int = _setting(1, int, "second smaller exponent")
    a: str = _setting("3/2", _rational, "interval left endpoint")
    b: str = _setting("5/2", _rational, "interval right endpoint")
    out: str | None = _setting(
        None, str, "output path (sample file for gen, else JSON/CSV prefix)")
    workers: int | None = _setting(
        None, int, "worker processes for multi-sample runs, or threads of "
        "the counting pass for one sample (0 or unset: every allowed CPU)")

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.s_grid):
            raise UsageError(f"s grid must be positive, got {self.s_grid}")
        if any(u >= v for u, v in zip(self.s_grid, self.s_grid[1:])):
            raise UsageError(
                f"s grid must be strictly increasing, got {self.s_grid}")
        if not self.n_values:
            raise UsageError("need at least one N value")
        if any(n < 1 for n in self.n_values):
            raise UsageError(f"N values must be positive: {self.n_values}")
        if self.samples < 1:
            raise UsageError(f"samples must be >= 1, got {self.samples}")
        if not 0.0 < self.q <= 1.0:
            raise UsageError(f"q must be in (0, 1], got {self.q}")
        if not 0.0 <= self.tol < float("inf"):
            raise UsageError(f"tol must be finite and >= 0, got {self.tol}")
        if self.work_cap < 0:
            raise UsageError(f"work_cap must be >= 0, got {self.work_cap}")
        if self.workers is not None and self.workers < 0:
            raise UsageError(f"workers must be >= 0, got {self.workers}")


_PARSERS = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)}


def _parse_setting(key: str, text: str):
    """The value of setting `key` written as `text`, by its one parser."""
    if key not in _PARSERS:
        raise UsageError(f"unknown key {key!r}")
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise UsageError(f"bad value {text!r} for {key}: {exc}") from None


def parse_config_file(path) -> dict:
    """key = value lines; '#' starts a comment; unknown keys rejected."""
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(
                    f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            try:
                values[key] = _parse_setting(key, val.strip())
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(file_values: dict, flag_values: dict) -> ExperimentConfig:
    """Defaults, then config file, then explicit flags; flag text is parsed
    as a file line would be."""
    merged = dict(file_values)
    for key, val in flag_values.items():
        if val is not None:
            merged[key] = (_parse_setting(key, val) if isinstance(val, str)
                           else val)
    return ExperimentConfig(**merged)

