"""Shared domain types and deterministic randomness.

Conventions used across the package:

* a feature vector ``z`` is a 1-D float64 array of length ``m``,
* a cost vector ``c`` is a 1-D float64 array of length ``n``,
* a decision ``x`` is a 1-D float64 array of zeros and ones; feasibility is
  defined by the problem instance that owns the variable ordering.

Everything numeric is 64-bit floating point so that regret differences near
ties are not lost to precision, and every random draw comes from an
explicitly seeded :class:`RngStream` so experiments replay exactly.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

# One stream id per purpose.  Using distinct ids guarantees that draws made
# for one purpose never overlap draws made for another.
STREAM_GEN_MODEL = 0
STREAM_TRAIN_SAMPLES = 1
STREAM_VAL_SAMPLES = 2
STREAM_TEST_SAMPLES = 3
STREAM_SHUFFLE = 4
STREAM_PFYL = 5
STREAM_BIAS_DEMO = 6
STREAM_INSTANCE = 7


class DimensionError(ValueError):
    """Vector length disagrees with the owning instance or dataset."""


def exact_int(value) -> int:
    """``int(value)`` for a config value, refusing a bool and a number the
    cast would change (``2.7``); ``3.0`` and the string ``"3"`` convert."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def exact_float(value) -> float:
    """``float(value)`` for a config value, refusing a bool (``true`` is not 1.0)."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


# A class's resolved annotations, evaluated once: get_type_hints re-evaluates
# every annotation string on each call.  Callers must not mutate the dict.
_type_hints = functools.cache(get_type_hints)


def field_cast(kind):
    """The config cast for a field annotated ``kind``: `exact_int`,
    `exact_float`, item by item for ``Tuple[X, ...]`` (refusing a string or
    an object, whose characters or keys would pass as items), else the value
    as is."""
    if get_origin(kind) is tuple:
        item = field_cast(get_args(kind)[0])
        def items(value):
            if isinstance(value, (str, dict)):
                raise TypeError(f"expected a list, got {type(value).__name__}")
            return tuple(map(item, value))
        return items
    return {int: exact_int, float: exact_float}.get(kind, lambda value: value)


def from_fields(cls, d, casts: Optional[dict] = None):
    """The dataclass ``cls`` built from the JSON object ``d``: each value is
    cast by ``casts[name]`` if given, else by `field_cast` of its annotation,
    and absent keys keep their defaults.  A missing field, an unknown key or
    a value that does not convert raises a ``ValueError`` naming the field."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    kinds = _type_hints(cls)
    for key in d:
        if key not in kinds:
            raise ValueError(f"unknown field {key!r}")
    values = {}
    for f in fields(cls):
        if f.name in d:
            cast = (casts or {}).get(f.name) or field_cast(kinds[f.name])
            try:
                values[f.name] = cast(d[f.name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{f.name}: {exc}") from None
        elif f.default is MISSING:
            raise ValueError(f"missing field {f.name!r}")
    return cls(**values)


class RngStream:
    """Deterministic random stream keyed by ``(seed, stream_id)``.

    The underlying bit generator is PCG64 seeded through
    ``SeedSequence(entropy=seed, spawn_key=(stream_id,))``, so equal keys give
    bit-identical raw doubles on every platform and process.  ``normal``
    maps them through numpy's ``log`` and ``cos``, whose last bits follow
    numpy's SIMD dispatch: its draws replay on the same numpy build and CPU
    features.

    Draw contract (fixed forever):

    * ``uniform(lo, hi, size)`` consumes one raw double ``u`` in ``[0, 1)``
      per element, in row-major order, and returns ``lo + (hi - lo) * u``.
    * ``normal(size)`` consumes two consecutive raw doubles ``(u1, u2)`` per
      element, in row-major order, and applies the cosine Box-Muller map
      ``z = sqrt(-2 ln(1 - u1)) * cos(2 pi u2)``; the sine mate is discarded.
    * ``bernoulli_array(p, size)`` consumes one raw double ``u`` per element,
      in row-major order, and returns ``u < p`` as 0.0/1.0.
    * ``permutation(count)`` consumes ``count - 1`` raw doubles
      ``u_1 .. u_{count-1}`` and runs a Fisher-Yates pass: for
      ``i = count - 1 .. 1`` it swaps slot ``i`` with slot
      ``floor(u_{count-i} * (i + 1))``.

    ``uniform`` and ``normal`` without ``size`` make the one-element array
    draw and return it as a float, so ``k`` draws one at a time equal one
    ``size=k`` draw bit for bit.

    A stream is single-owner: never share one instance across workers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.stream_id = int(stream_id)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        if lo > hi:
            raise ValueError(f"uniform bounds reversed: lo={lo} > hi={hi}")
        return lo + (hi - lo) * self._gen.random(size)

    def normal(self, size=None):
        """Standard normal draw(s) via the documented Box-Muller variant."""
        shape = (1,) if size is None else (size,) if np.isscalar(size) else tuple(size)
        u = self._gen.random(2 * int(np.prod(shape)))
        z = np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        return float(z[0]) if size is None else z.reshape(shape)

    def bernoulli_array(self, p: float, size) -> np.ndarray:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli probability out of range: {p}")
        return (self._gen.random(size) < p).astype(np.float64)

    def permutation(self, count: int) -> np.ndarray:
        """Fisher-Yates permutation of ``range(count)`` using uniform draws."""
        idx = np.arange(count)
        draws = self._gen.random(max(count - 1, 0)).tolist()
        for i, u in zip(range(count - 1, 0, -1), draws):
            j = int(u * (i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        return idx


@dataclass(frozen=True)
class DatasetMeta:
    problem: str          # "grid" | "tsp" | "select"
    instance: str         # instance descriptor string, e.g. "grid:5x5"
    m: int
    n: int
    t: int
    seed: int
    noise_halfwidth: float
    degree: int
    split: str = ""
    noise_shared: bool = False

    @staticmethod
    def from_dict(d: dict) -> "DatasetMeta":
        """Inverse of ``dataclasses.asdict`` through `from_fields`, with a strict
        cast: a value must already have its field's type.  ``7.0`` loads as an
        int; ``2.7``, ``"7"`` and ``true`` do not, nor ``0`` as a bool."""
        def strict(raw, kind):
            if kind(raw) != raw or isinstance(raw, bool) != (kind is bool):
                raise ValueError(f"{raw!r} is not of type {kind.__name__}")
            return kind(raw)
        return from_fields(DatasetMeta, d, {name: lambda raw, kind=kind: strict(raw, kind)
                                            for name, kind in _type_hints(DatasetMeta).items()})


def _frozen_matrix(values, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.shape != (rows, cols):
        raise DimensionError(f"{name} has shape {arr.shape}, expected {(rows, cols)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable sample collection.

    ``features`` is ``(t, m)``, ``costs`` is ``(t, n)`` and ``clean_costs``
    is either ``None`` or ``(t, n)``.  Arrays are marked read-only on
    construction and safe to share across concurrent readers.
    """

    features: np.ndarray
    costs: np.ndarray
    clean_costs: Optional[np.ndarray]
    meta: DatasetMeta

    def __post_init__(self):
        if self.meta.t < 1:
            raise ValueError("dataset must contain at least one sample")
        object.__setattr__(
            self, "features",
            _frozen_matrix(self.features, self.meta.t, self.meta.m, "features"))
        object.__setattr__(
            self, "costs",
            _frozen_matrix(self.costs, self.meta.t, self.meta.n, "costs"))
        if self.clean_costs is not None:
            object.__setattr__(
                self, "clean_costs",
                _frozen_matrix(self.clean_costs, self.meta.t, self.meta.n, "clean_costs"))

    def __len__(self) -> int:
        return self.meta.t
