"""Flat key=value experiment configuration with flag overrides.

Experiments are parameter grids, so the configuration is a single flat
namespace: every key can live in a config file, be overridden on the
command line, and is embedded verbatim in every emitted report.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, fields

from .dyadic import DyadicRational
from .errors import DomainError, PowcorrError

__all__ = ["ExperimentConfig", "UsageError", "parse_rational",
           "parse_config_file", "resolve_config", "is_power",
           "subsequence_index"]


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
    raise UsageError(f"cannot parse boolean {text!r}")


def _list_of(kind):
    """Parser of comma-separated values of one type."""
    return lambda text: tuple(kind(v) for v in text.split(",") if v.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a command needs; unset optionals fall back to defaults."""

    A: str = "3/2"
    x: str | None = None
    xi: str = "1"
    mantissa_bits: int = 64
    seed: int = 1
    n_values: tuple = (1024,)
    s_grid: tuple = (1.0,)
    guard_bits: int | None = None
    delta: str | None = None
    flavor: str = "outer"
    smoothed: bool = False
    control: str = "none"
    samples: int = 10
    q: float = 0.9
    tol: float = 0.15
    subsequence: bool = False
    work_cap: int = 2 ** 34
    k: int = 1
    j: int = 1
    atom_index: int = 0
    parity: str = "odd"
    mc_samples: int = 200
    sample_count: int = 10
    l_values: tuple = (1,)
    n_powers: tuple = (2,)
    m_powers: tuple = (1,)
    m1: int = 2
    m2: int = 1
    a: str = "3/2"
    b: str = "5/2"
    out: str | None = None
    workers: int | None = None

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
        if self.workers is not None and self.workers < 0:
            raise UsageError(f"workers must be >= 0, got {self.workers}")

    def to_json_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in asdict(self).items()}


_FIELD_PARSERS = {
    "A": str, "x": str, "xi": str, "a": str, "b": str,
    "delta": str, "flavor": str, "control": str, "parity": str, "out": str,
    "mantissa_bits": int, "seed": int, "samples": int, "k": int, "j": int,
    "atom_index": int, "mc_samples": int, "sample_count": int, "m1": int,
    "m2": int, "guard_bits": int, "work_cap": int, "workers": int,
    "q": float, "tol": float,
    "smoothed": _parse_bool, "subsequence": _parse_bool,
    "n_values": _list_of(int), "l_values": _list_of(int),
    "n_powers": _list_of(int), "m_powers": _list_of(int),
    "s_grid": _list_of(float),
}


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
            if key not in _FIELD_PARSERS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](val.strip())
            except UsageError:
                raise
            except (ValueError, TypeError) as exc:
                raise UsageError(
                    f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def resolve_config(file_values: dict, flag_values: dict) -> ExperimentConfig:
    """Defaults, then config file, then explicit flags."""
    merged = dict(file_values)
    valid = {f.name for f in fields(ExperimentConfig)}
    for key, val in flag_values.items():
        if val is None:
            continue
        if key not in valid:
            raise UsageError(f"unknown option {key!r}")
        try:
            merged[key] = (_FIELD_PARSERS[key](val) if isinstance(val, str)
                           else val)
        except ValueError as exc:
            raise UsageError(f"bad value {val!r} for {key}: {exc}") from None
    return ExperimentConfig(**merged)


def is_power(N: int, exponent: int) -> bool:
    """True when N = M^exponent for some integer M >= 1."""
    if N < 1:
        return False
    M = round(N ** (1.0 / exponent))
    return any(c >= 1 and c ** exponent == N for c in (M - 1, M, M + 1))


def subsequence_index(N: int) -> int:
    """The M with M^20 <= N < (M+1)^20."""
    if N < 1:
        raise UsageError(f"N must be positive, got {N}")
    M = max(1, round(N ** 0.05))
    while M ** 20 > N:
        M -= 1
    while (M + 1) ** 20 <= N:
        M += 1
    return M
