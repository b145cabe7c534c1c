"""Synthetic data generation and dataset persistence.

Cost model: a fixed binary mixing matrix ``B`` (entries Bernoulli(0.5)) maps
features to clean costs

    c_clean_i = (max((B z)_i / sqrt(m) + 3, 0)) ** deg + 1

and observed costs multiply each clean coefficient by an independent
``Uniform(1 - eps, 1 + eps)`` factor, so ``E[c | z] = c_clean`` exactly.
The base is clamped at zero before exponentiation so odd degrees cannot flip
signs.  Noise is drawn per coefficient by default; ``noise_shared=True``
draws one factor per sample instead.

Draw order per split (fixed contract): all feature vectors first (row-major
normals), then all noise factors.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from .core import (Dataset, DatasetMeta, DimensionError, RngStream, STREAM_GEN_MODEL,
                   STREAM_TEST_SAMPLES, STREAM_TRAIN_SAMPLES, STREAM_VAL_SAMPLES)


@dataclass(frozen=True)
class GenParams:
    m: int = 5
    deg: int = 6
    noise_halfwidth: float = 0.5
    t_train: int = 100
    t_val: int = 100
    t_test: int = 1000
    seed: int = 0
    noise_shared: bool = False

    def __post_init__(self):
        if self.deg < 1:
            raise ValueError("polynomial degree must be at least 1")
        if not 0 <= self.noise_halfwidth < math.inf:
            raise ValueError(
                f"noise half-width must be non-negative and finite, got {self.noise_halfwidth}")
        if self.m < 1:
            raise ValueError("need at least one feature")
        if min(self.t_train, self.t_val, self.t_test) < 1:
            raise ValueError("need at least one sample in each split")


@dataclass(frozen=True)
class GenModel:
    B: np.ndarray   # (n, m) binary mixing matrix, fixed per dataset family
    inst: object

    def __post_init__(self):
        if self.B.shape[0] != self.inst.n:
            raise DimensionError("mixing matrix rows must equal instance size")


def make_gen_model(inst, m: int, seed: int) -> GenModel:
    stream = RngStream(seed, STREAM_GEN_MODEL)
    B = stream.bernoulli_array(0.5, (inst.n, m))
    return GenModel(B=B, inst=inst)


def clean_costs(gm: GenModel, features: np.ndarray, deg: int) -> np.ndarray:
    """Noiseless costs for the given feature rows (see module docstring)."""
    m = gm.B.shape[1]
    base = features @ gm.B.T / math.sqrt(m) + 3.0
    return np.maximum(base, 0.0) ** deg + 1.0


def apply_noise(clean: np.ndarray, halfwidth: float, stream: RngStream,
                shared: bool = False) -> np.ndarray:
    size = (clean.shape[0], 1) if shared else clean.shape
    return clean * stream.uniform(1.0 - halfwidth, 1.0 + halfwidth, size)


def generate_samples(gm: GenModel, count: int, params: GenParams,
                     stream: RngStream, split: str = "") -> Dataset:
    if count < 1:
        raise ValueError("need at least one sample")
    Z = stream.normal((count, params.m))
    clean = clean_costs(gm, Z, params.deg)
    costs = apply_noise(clean, params.noise_halfwidth, stream, params.noise_shared)
    meta = DatasetMeta(
        problem=gm.inst.kind,
        instance=gm.inst.descriptor(),
        m=params.m,
        n=gm.inst.n,
        t=count,
        seed=params.seed,
        noise_halfwidth=params.noise_halfwidth,
        degree=params.deg,
        split=split,
        noise_shared=params.noise_shared,
    )
    return Dataset(features=Z, costs=costs, clean_costs=clean, meta=meta)


def generate_splits(inst, params: GenParams) -> Tuple[Dataset, Dataset, Dataset]:
    """``(train, val, test)`` of ``params.t_train/t_val/t_test`` samples, each
    drawn from its own seeded stream under one mixing matrix."""
    gm = make_gen_model(inst, params.m, params.seed)
    return tuple(
        generate_samples(gm, count, params, RngStream(params.seed, stream_id), split)
        for split, count, stream_id in (
            ("train", params.t_train, STREAM_TRAIN_SAMPLES),
            ("val", params.t_val, STREAM_VAL_SAMPLES),
            ("test", params.t_test, STREAM_TEST_SAMPLES)))


# ---------------------------------------------------------------------------
# On-disk layout: features.csv / costs.csv / clean_costs.csv + meta.json.
# Floats are written in shortest round-trip decimal form, so a save/load
# cycle is bit-identical for every numeric field.  A canonical file (the
# header line ``save_dataset`` writes, then lines of finite values) is
# parsed in one numpy pass.  Any other CSV that the csv.reader loop accepts
# still loads through that loop, and every malformed file keeps its message.
# ---------------------------------------------------------------------------

# Characters on which the numpy pass could read a line differently from the
# loop: csv.reader treats CR and quotes specially, and np.loadtxt strips
# \x1c-\x1f as whitespace where float() refuses them.
_NOT_CANONICAL = ("\r", '"', "\x1c", "\x1d", "\x1e", "\x1f")


def _header(prefix: str, cols: int) -> list:
    return [f"{prefix}_{j}" for j in range(cols)]


def _write_matrix(path: Path, header_prefix: str, matrix: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_header(header_prefix, matrix.shape[1])) + "\n")
        for row in matrix:  # one row at a time: a whole-matrix tolist() costs memory
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _canonical_lines(fh):
    """The lines of ``fh``, refusing with a ``ValueError`` any line that is
    blank (np.loadtxt skips it, the loop does not) or not canonical."""
    for line in fh:
        if not line.strip() or any(map(line.__contains__, _NOT_CANONICAL)):
            raise ValueError("not a canonical line")
        yield line


def _read_matrix(path: Path, header_prefix: str, rows: int, cols: int) -> np.ndarray:
    """The ``(rows, cols)`` matrix in ``path``: one np.loadtxt pass over a
    canonical file, else `_read_matrix_csv`.  Both parse each value with
    the routine behind ``float()``, so the loaded bits do not depend on the
    path."""
    with open(path, newline="") as fh:
        if fh.readline() == ",".join(_header(header_prefix, cols)) + "\n":
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # e.g. loadtxt's empty-input warning
                    arr = np.loadtxt(_canonical_lines(fh), delimiter=",", comments=None,
                                     dtype=np.float64, ndmin=2)
                if arr.shape == (rows, cols) and np.isfinite(arr).all():
                    return arr
            except (ValueError, Warning):
                pass
    return _read_matrix_csv(path, header_prefix, rows, cols)


def _read_matrix_csv(path: Path, header_prefix: str, rows: int, cols: int) -> np.ndarray:
    """Row-by-row reader: loads any CSV of finite values that csv.reader and
    ``float()`` accept, and names the file and line of a malformed one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header row")
        expected = _header(header_prefix, cols)
        if header != expected:
            raise ValueError(f"{path.name}: unexpected header {header[:3]}...")
        data = []
        for line, row in enumerate(reader, start=2):
            try:
                if len(row) != cols:
                    raise ValueError(f"{len(row)} values, header has {cols}")
                values = [float(x) for x in row]
                if not all(map(math.isfinite, values)):
                    bad = next(x for x, v in zip(row, values) if not math.isfinite(v))
                    raise ValueError(f"non-finite value {bad!r}")
                data.append(values)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
    arr = np.array(data, dtype=np.float64)
    if arr.shape != (rows, cols):
        raise DimensionError(
            f"{path.name}: shape {arr.shape} disagrees with meta {(rows, cols)}")
    return arr


def save_dataset(ds: Dataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_matrix(directory / "features.csv", "z", ds.features)
    _write_matrix(directory / "costs.csv", "c", ds.costs)
    if ds.clean_costs is not None:
        _write_matrix(directory / "clean_costs.csv", "c", ds.clean_costs)
    with open(directory / "meta.json", "w") as fh:
        json.dump(asdict(ds.meta), fh, sort_keys=True, indent=1)


def load_dataset(directory) -> Dataset:
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no meta.json under {directory}")
    with open(meta_path) as fh:
        fields = json.load(fh)
    if not isinstance(fields, dict):
        raise ValueError(f"{meta_path}: expected a JSON object, got {type(fields).__name__}")
    try:
        meta = DatasetMeta.from_dict(fields)
    except KeyError as exc:
        raise ValueError(f"{meta_path}: missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    features = _read_matrix(directory / "features.csv", "z", meta.t, meta.m)
    costs = _read_matrix(directory / "costs.csv", "c", meta.t, meta.n)
    clean_path = directory / "clean_costs.csv"
    clean = (_read_matrix(clean_path, "c", meta.t, meta.n)
             if clean_path.exists() else None)
    return Dataset(features=features, costs=costs, clean_costs=clean, meta=meta)
