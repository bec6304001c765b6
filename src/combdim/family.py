"""Finite function families on a weighted finite domain.

A family is an m x n matrix: row f is a function on the domain
{0, ..., n-1}, entry (f, i) is the value f(i).  Real-valued families are
bounded by 1 in absolute value; integer families take values in
{0, ..., range_max}.  An atomic probability measure on the domain turns
the rows into points of L2(mu).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import FamilyError, RationalizationError

WEIGHT_SUM_TOL = 1e-12
GENERATOR_KINDS = ("uniform-real", "sign-vectors", "integer-grid", "convex-hull-sections")


@dataclass(frozen=True, eq=False)
class ProbabilityMeasure:
    """Atomic probability measure on {0, ..., n-1}."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise FamilyError("measure weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise FamilyError(f"non-finite weight at coordinate {int(np.argmin(np.isfinite(w)))}")
        if np.any(w < 0):
            bad = int(np.argmin(w))
            raise FamilyError(f"negative weight at coordinate {bad}: {w[bad]!r}")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise FamilyError(f"weights sum to {total!r}, not 1 (tolerance {WEIGHT_SUM_TOL})")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityMeasure":
        return cls(np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class FunctionFamily:
    """m functions on an n-point domain, stored as an m x n value matrix.

    kind "real" keeps every entry in [-1, 1]; kind "integer" keeps every
    entry an integer in {0, ..., range_max}.  Duplicate rows are allowed.
    """

    values: np.ndarray
    kind: str = "real"
    range_max: int | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise FamilyError("values must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(vals)):
            r, c = np.argwhere(~np.isfinite(vals))[0]
            raise FamilyError(f"non-finite value at row {r}, column {c}")
        if self.kind == "real":
            if self.range_max is not None:
                raise FamilyError("real families carry no range_max")
            bad = np.argwhere(np.abs(vals) > 1.0)
            if bad.size:
                r, c = bad[0]
                raise FamilyError(
                    f"value out of [-1, 1] at row {r}, column {c}: {vals[r, c]!r}"
                )
        elif self.kind == "integer":
            if self.range_max is None or int(self.range_max) < 0:
                raise FamilyError("integer families need range_max >= 0")
            object.__setattr__(self, "range_max", int(self.range_max))
            bad = np.argwhere(vals != np.rint(vals))
            if bad.size:
                r, c = bad[0]
                raise FamilyError(f"non-integer value at row {r}, column {c}: {vals[r, c]!r}")
            bad = np.argwhere((vals < 0) | (vals > self.range_max))
            if bad.size:
                r, c = bad[0]
                raise FamilyError(
                    f"value outside {{0,...,{self.range_max}}} at row {r}, column {c}: "
                    f"{vals[r, c]!r}"
                )
        else:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        """Number of functions m."""
        return int(self.values.shape[0])

    @property
    def domain_size(self) -> int:
        """Number of coordinates n."""
        return int(self.values.shape[1])

    @property
    def is_integer(self) -> bool:
        return self.kind == "integer"

    def int_values(self) -> np.ndarray:
        if not self.is_integer:
            raise FamilyError("int_values() requires an integer family")
        return np.rint(self.values).astype(np.int64)

    def subfamily(self, rows) -> "FunctionFamily":
        """Family restricted to the given row indices (order preserved)."""
        idx = list(rows)
        if not idx:
            raise FamilyError("subfamily needs at least one row")
        return FunctionFamily(self.values[idx, :], self.kind, self.range_max)

    def restrict(self, coords) -> "FunctionFamily":
        """Family restricted to a subset of coordinates (order preserved)."""
        idx = list(coords)
        if not idx:
            raise FamilyError("restrict needs at least one coordinate")
        return FunctionFamily(self.values[:, idx], self.kind, self.range_max)


@dataclass(frozen=True)
class CoordinateSubset:
    """Strictly increasing tuple of coordinate indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise FamilyError(f"coordinate subset not strictly increasing: {idx}")
        if idx and idx[0] < 0:
            raise FamilyError(f"negative coordinate index: {idx[0]}")
        object.__setattr__(self, "indices", idx)

    def validate_against(self, domain_size: int) -> None:
        if self.indices and self.indices[-1] >= domain_size:
            raise FamilyError(
                f"coordinate {self.indices[-1]} out of range for domain size {domain_size}"
            )

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def row_masks(sel: np.ndarray) -> list[int]:
    """Bitmask of each line of a boolean matrix, bit r set when column r is
    (the columns are the rows of a family)."""
    packed = np.packbits(sel, axis=-1, bitorder="little")
    return [int.from_bytes(line.tobytes(), "little") for line in packed]


# ---------------------------------------------------------------------------
# File I/O.  write_json writes every file; decimal_rows writes numbers as
# decimal strings (repr of the float) so that save -> load reproduces the
# exact same doubles.
# ---------------------------------------------------------------------------

def write_json(path, doc) -> None:
    """Write a file as JSON with a one-space indent, no trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=1))


def decimal_rows(rows) -> list[list[str]]:
    """Rows of numbers as repr strings, which read_rows reads back bit-exact."""
    return [[repr(float(v)) for v in row] for row in rows]


def read_json(path, kind: str, keys: tuple[str, ...] | None):
    """The JSON document in a family, polytope, norm, vectors or tree
    file.  FamilyError names the file when it does not parse, nests
    too deep, or is not an object holding all of `keys` (the first one
    missing); keys=None takes any document."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FamilyError(f"cannot parse {kind} file {path}: {exc}") from None
    except RecursionError:
        raise FamilyError(f"{kind} file {path} nests too deep to load") from None
    if keys is not None and not isinstance(doc, dict):
        raise FamilyError(f"{kind} file {path} does not hold a JSON object")
    missing = [key for key in keys or () if key not in doc]
    if missing:
        raise FamilyError(f"missing key {missing[0]!r} in {kind} file {path}")
    return doc


def read_size(doc: dict, key: str, where: str) -> int:
    """The size field doc[key] of an input file: a JSON integer >= 0, not a bool."""
    value = doc[key]
    if type(value) is not int or value < 0:
        raise FamilyError(f"{key!r} in {where} is not a nonnegative integer: {value!r}")
    return value


def read_rows(raw, width: int, where: str) -> np.ndarray:
    """The rows of numbers in an input file, as a float matrix.

    `raw` must be a nonempty list of `width`-entry lists, each entry a
    finite JSON number or a decimal string (the form save_* writes).
    FamilyError names `where` and the first row that is not.
    """
    if not isinstance(raw, list) or not raw:
        raise FamilyError(f"{where} does not hold a nonempty list of rows")
    rows = []
    for r, row in enumerate(raw):
        values = list(map(_entry, row)) if isinstance(row, list) else [math.nan]
        if len(values) != width or not all(map(math.isfinite, values)):
            raise FamilyError(f"row {r} of {where} is not a list of {width} numbers")
        rows.append(values)
    return np.array(rows, dtype=np.float64)


def read_number(value, where: str) -> float:
    """One number of an input file, held to the rules of a row entry.
    FamilyError names `where` when it is not a finite number."""
    if not math.isfinite(number := _entry(value)):
        raise FamilyError(f"{where} is not a finite number: {value!r}")
    return number


def _entry(value) -> float:
    """A number of an input file as a float; NaN, which every reader
    rejects, for a bool or for anything float() refuses."""
    try:
        return math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def load_family(path) -> tuple[FunctionFamily, ProbabilityMeasure]:
    """Load a (family, measure) pair from a JSON file.

    Schema: {"domain_size": n, "value_kind": "real" | {"integer": p},
    "values": [[...], ...], "measure": [w_0, ..., w_{n-1}]}.  The measure
    key is optional and defaults to the uniform measure.
    """
    doc = read_json(path, "family", ("domain_size", "value_kind", "values"))
    where = f"family file {path}"
    n = read_size(doc, "domain_size", where)
    kind_spec = doc["value_kind"]
    if kind_spec == "real":
        kind, range_max = "real", None
    elif isinstance(kind_spec, dict) and set(kind_spec) == {"integer"}:
        kind, range_max = "integer", read_size(kind_spec, "integer", where)
    else:
        raise FamilyError(f"bad value_kind {kind_spec!r} in {where}")
    family = FunctionFamily(read_rows(doc["values"], n, f"'values' in {where}"), kind, range_max)
    if doc.get("measure") is None:
        return family, ProbabilityMeasure.uniform(n)
    return family, ProbabilityMeasure(read_rows([doc["measure"]], n, f"'measure' in {where}")[0])


def save_family(path, family: FunctionFamily, measure: ProbabilityMeasure | None = None) -> None:
    kind_spec = "real" if family.kind == "real" else {"integer": family.range_max}
    doc = {
        "domain_size": family.domain_size,
        "value_kind": kind_spec,
        "values": decimal_rows(family.values),
    }
    if measure is not None:
        doc["measure"] = decimal_rows([measure.weights])[0]
    write_json(path, doc)


# ---------------------------------------------------------------------------
# Measure uniformization by atom splitting.
# ---------------------------------------------------------------------------

def uniformize(
    family: FunctionFamily,
    measure: ProbabilityMeasure,
    denominator_bound: int,
) -> tuple[FunctionFamily, ProbabilityMeasure]:
    """Split atoms so the measure becomes exactly uniform.

    Every weight must be (within 1e-12) a rational k_i / M with a common
    denominator M <= denominator_bound and k_i >= 1.  Coordinate i is then
    replicated k_i times, which preserves every pairwise L2 distance
    exactly and leaves the shattering dimension unchanged at every scale.
    """
    if denominator_bound < 1:
        raise RationalizationError("denominator bound must be >= 1")
    weights = measure.weights
    fracs = [Fraction(float(w)).limit_denominator(denominator_bound) for w in weights]
    residual = max(abs(float(fr) - float(w)) for fr, w in zip(fracs, weights))
    if residual > 1e-12:
        raise RationalizationError(
            f"weights not representable with denominator <= {denominator_bound} "
            f"(residual {residual:.3e})",
            residual=residual,
        )
    if any(fr <= 0 for fr in fracs):
        bad = min(range(len(fracs)), key=lambda i: fracs[i])
        raise RationalizationError(
            f"weight at coordinate {bad} is zero; drop zero-mass atoms before uniformizing",
            residual=0.0,
        )
    common = math.lcm(*(fr.denominator for fr in fracs))
    if common > denominator_bound:
        raise RationalizationError(
            f"common denominator {common} exceeds bound {denominator_bound}",
            residual=residual,
        )
    total = sum(fracs)
    if total != 1:
        raise RationalizationError(
            f"rationalized weights sum to {total}, not 1 (residual {float(total - 1):.3e})",
            residual=float(total - 1),
        )
    counts = [int(fr * common) for fr in fracs]
    new_values = np.repeat(family.values, counts, axis=1)
    out_family = FunctionFamily(new_values, family.kind, family.range_max)
    return out_family, ProbabilityMeasure.uniform(common)


# ---------------------------------------------------------------------------
# Grid discretization.
# ---------------------------------------------------------------------------

def discretize(family: FunctionFamily, t: float) -> FunctionFamily:
    """Map a real family onto the integer grid at scale t.

    Entry f(i) becomes floor(7 * (f(i) + 1) / t); the +1 shift keeps the
    grid nonnegative, so range_max = floor(14 / t).  Shifts change neither
    pairwise separation nor shattering.  If the input is s-separated in
    L2(mu) with s >= t (any mu), the image is (7s/t - 1)-separated, hence
    6-separated when s = t: per entry the floor loses strictly less than 1.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"scale t must lie in (0, 1], got {t!r}")
    if family.is_integer:
        raise FamilyError("discretize expects a real-valued family")
    grid = np.floor(7.0 * (family.values + 1.0) / t)
    return FunctionFamily(grid, "integer", int(math.floor(14.0 / t)))


# ---------------------------------------------------------------------------
# Random instance generation (pure function of the arguments).
# ---------------------------------------------------------------------------

def gen_random_family(
    m: int,
    n: int,
    kind: str,
    seed,
    grid_max: int | None = None,
) -> FunctionFamily:
    """Deterministic random family of m functions on n coordinates.

    Kinds: "uniform-real" (iid uniform on [-1, 1]), "sign-vectors"
    (entries in {-1, +1}), "integer-grid" (entries in {0, ..., grid_max}),
    "convex-hull-sections" (rows are random convex combinations of a
    random vertex set, so the family sits inside a polytope in [-1, 1]^n).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    rng = np.random.default_rng(seed)
    if kind == "uniform-real":
        vals = rng.uniform(-1.0, 1.0, size=(m, n))
        return FunctionFamily(vals, "real")
    if kind == "sign-vectors":
        vals = rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0
        return FunctionFamily(vals, "real")
    if kind == "integer-grid":
        if grid_max is None or grid_max < 0:
            raise ValueError("integer-grid needs grid_max >= 0")
        vals = rng.integers(0, grid_max + 1, size=(m, n)).astype(np.float64)
        return FunctionFamily(vals, "integer", grid_max)
    # convex-hull-sections
    n_vertices = max(n + 2, 3)
    vertices = rng.uniform(-1.0, 1.0, size=(n_vertices, n))
    coeffs = rng.dirichlet(np.ones(n_vertices), size=m)
    vals = np.clip(coeffs @ vertices, -1.0, 1.0)
    return FunctionFamily(vals, "real")
