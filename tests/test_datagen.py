import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dflkit import datagen
from dflkit.core import (Dataset, DatasetMeta, RngStream, STREAM_TEST_SAMPLES,
                         STREAM_TRAIN_SAMPLES, STREAM_VAL_SAMPLES)
from dflkit.datagen import (GenParams, apply_noise, clean_costs, generate_samples,
                            generate_splits, load_dataset, make_gen_model, save_dataset)
from dflkit.oracles import GridShortestPath, SelectOne


class TestGenModel:
    def test_same_seed_identical(self):
        inst = SelectOne(6)
        a = make_gen_model(inst, 5, seed=3)
        b = make_gen_model(inst, 5, seed=3)
        assert np.array_equal(a.B, b.B)
        c = make_gen_model(inst, 5, seed=4)
        assert not np.array_equal(a.B, c.B)

    def test_grid_10x10_shape(self):
        inst = GridShortestPath(10, 10)
        gm = make_gen_model(inst, 5, seed=0)
        assert gm.B.shape == (180, 5)

    def test_density_near_half(self):
        inst = SelectOne(2000)
        gm = make_gen_model(inst, 5, seed=1)
        assert abs(gm.B.mean() - 0.5) < 0.02  # 10^4 Bernoulli draws


class TestGenerateSamples:
    def test_zero_noise_costs_equal_clean(self):
        inst = SelectOne(4)
        gm = make_gen_model(inst, 3, seed=0)
        for shared in (False, True):
            params = GenParams(m=3, deg=6, noise_halfwidth=0.0, seed=0, noise_shared=shared)
            ds = generate_samples(gm, 20, params, RngStream(0, STREAM_TRAIN_SAMPLES))
            assert ds.costs.tobytes() == ds.clean_costs.tobytes()

    def test_zero_features_closed_form(self):
        inst = SelectOne(4)
        gm = make_gen_model(inst, 3, seed=0)
        clean = clean_costs(gm, np.zeros((1, 3)), 6)
        assert np.array_equal(clean, np.full((1, 4), 730.0))  # 3**6 + 1

    def test_negative_base_clamped(self):
        inst = SelectOne(2)
        gm = make_gen_model(inst, 1, seed=2)
        gm = type(gm)(B=np.ones((2, 1)), inst=inst)
        z = np.array([[-10.0]])  # base = -10 + 3 < 0 -> clamp -> 0**deg + 1
        for deg in (5, 6):
            assert np.array_equal(clean_costs(gm, z, deg), np.ones((1, 2)))

    def test_noise_ratio_mean(self):
        clean = np.ones((1, 100_000))
        noisy = apply_noise(clean, 0.5, RngStream(5, STREAM_TRAIN_SAMPLES))
        assert abs(noisy.mean() - 1.0) < 0.005

    def test_conditional_mean_identity(self):
        inst = SelectOne(3)
        gm = make_gen_model(inst, 2, seed=6)
        z = RngStream(1, 0).normal((1, 2))
        clean = clean_costs(gm, z, 6)
        reps = np.repeat(clean, 100_000, axis=0)
        noisy = apply_noise(reps, 1.0, RngStream(9, STREAM_TRAIN_SAMPLES))
        rel = np.abs(noisy.mean(axis=0) - clean[0]) / clean[0]
        assert np.all(rel < 0.005)

    def test_clean_positive(self):
        inst = SelectOne(5)
        gm = make_gen_model(inst, 5, seed=7)
        params = GenParams(m=5, deg=6, noise_halfwidth=1.0, seed=7)
        ds = generate_samples(gm, 500, params, RngStream(7, STREAM_TRAIN_SAMPLES))
        assert np.all(ds.clean_costs > 0)

    def test_shared_noise_flag(self):
        inst = SelectOne(4)
        gm = make_gen_model(inst, 2, seed=8)
        params = GenParams(m=2, deg=2, noise_halfwidth=0.5, seed=8, noise_shared=True)
        ds = generate_samples(gm, 10, params, RngStream(8, STREAM_TRAIN_SAMPLES))
        ratios = ds.costs / ds.clean_costs
        assert np.allclose(ratios, ratios[:, :1])  # one factor per sample

    def test_distinct_split_streams(self):
        inst = SelectOne(3)
        gm = make_gen_model(inst, 2, seed=9)
        params = GenParams(m=2, deg=3, noise_halfwidth=0.5, seed=9)
        a = generate_samples(gm, 5, params, RngStream(9, STREAM_TRAIN_SAMPLES))
        b = generate_samples(gm, 5, params, RngStream(9, STREAM_VAL_SAMPLES))
        assert not np.array_equal(a.features, b.features)

    def test_splits_match_per_split_streams(self):
        inst = GridShortestPath(2, 3)
        params = GenParams(m=2, deg=3, noise_halfwidth=0.5, t_train=4, t_val=3,
                           t_test=5, seed=6)
        gm = make_gen_model(inst, 2, seed=6)
        splits = generate_splits(inst, params)
        for ds, split, count, stream_id in zip(
                splits, ("train", "val", "test"), (4, 3, 5),
                (STREAM_TRAIN_SAMPLES, STREAM_VAL_SAMPLES, STREAM_TEST_SAMPLES)):
            ref = generate_samples(gm, count, params, RngStream(6, stream_id), split)
            assert ds.meta == ref.meta and ds.meta.split == split
            assert np.array_equal(ds.features, ref.features)
            assert np.array_equal(ds.costs, ref.costs)


def _edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _edit_row(text, line, edit):
    lines = text.split("\n")
    lines[line - 1] = edit(lines[line - 1])
    return "\n".join(lines)


def _edit_line(path, line, edit):
    path.write_text(_edit_row(path.read_text(), line, edit))


def _outcome(load):
    """The loaded array's bits, or the type and message of the error."""
    try:
        return load().tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _edit_value(text, line, edit):
    """``text`` with the first value of row ``line`` replaced by ``edit(value)``."""
    return _edit_row(text, line, lambda row: edit(row.partition(",")[0]) + row[row.index(","):])


class TestPersistence:
    def _random_ds(self, seed=0):
        inst = GridShortestPath(3, 3)
        gm = make_gen_model(inst, 4, seed=seed)
        params = GenParams(m=4, deg=4, noise_halfwidth=0.7, seed=seed)
        return generate_samples(gm, 13, params, RngStream(seed, STREAM_TRAIN_SAMPLES), "train")

    def test_roundtrip_bit_identical(self, tmp_path):
        ds = self._random_ds()
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.costs, ds.costs)
        assert np.array_equal(back.clean_costs, ds.clean_costs)
        assert back.meta == ds.meta

    def test_row_count(self, tmp_path):
        ds = self._random_ds()
        save_dataset(ds, tmp_path / "d")
        lines = (tmp_path / "d" / "costs.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + ds.meta.t

    def test_tampered_meta_rejected(self, tmp_path):
        ds = self._random_ds()
        save_dataset(ds, tmp_path / "d")
        meta_path = tmp_path / "d" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["n"] = meta["n"] + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(Exception):
            load_dataset(tmp_path / "d")

    def test_missing_file_rejected(self, tmp_path):
        ds = self._random_ds()
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "costs.csv").unlink()
        with pytest.raises(Exception):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("tamper, message", [
        (lambda d: _edit_json(d / "meta.json", lambda meta: {**meta, "m": "five"}),
         r"meta\.json: field 'm' is 'five', not int"),
        (lambda d: _edit_json(d / "meta.json", lambda meta: {**meta, "m": 2.7}),
         r"meta\.json: field 'm' is 2\.7, not int"),
        (lambda d: _edit_json(d / "meta.json", lambda meta: {**meta, "m": True}),
         r"meta\.json: field 'm' is True, not int"),
        (lambda d: _edit_json(d / "meta.json", lambda meta: {**meta, "seed": "7"}),
         r"meta\.json: field 'seed' is '7', not int"),
        (lambda d: _edit_json(d / "meta.json", lambda meta: {**meta, "noise_shared": "false"}),
         r"meta\.json: field 'noise_shared' is 'false', not bool"),
        (lambda d: _edit_json(d / "meta.json", lambda meta: {**meta, "noise_shared": 0}),
         r"meta\.json: field 'noise_shared' is 0, not bool"),
        (lambda d: _edit_json(d / "meta.json", lambda meta: [1, 2]),
         r"meta\.json: expected a JSON object, got list"),
        (lambda d: _edit_line(d / "costs.csv", 3, lambda s: "abc" + s[s.index(","):]),
         r"costs\.csv: line 3: could not convert string to float: 'abc'"),
        (lambda d: _edit_line(d / "costs.csv", 2, lambda s: s[:s.rindex(",")]),
         r"costs\.csv: line 2: 11 values, header has 12"),
        (lambda d: _edit_line(d / "costs.csv", 4, lambda s: s[:s.rindex(",") + 1] + "nan"),
         r"costs\.csv: line 4: non-finite value 'nan'"),
        (lambda d: _edit_line(d / "features.csv", 3, lambda s: "-Infinity" + s[s.index(","):]),
         r"features\.csv: line 3: non-finite value '-Infinity'"),
        (lambda d: _edit_line(d / "costs.csv", 14, lambda s: s + "\n" + s),
         r"costs\.csv: shape \(14, 12\) disagrees with meta \(13, 12\)"),
    ], ids=["meta_field_type", "meta_int_from_float", "meta_int_from_bool", "meta_int_from_str",
            "meta_bool_from_str", "meta_bool_from_int", "meta_not_object", "non_numeric_cell",
            "ragged_row", "nan_cell", "infinite_cell", "extra_row"])
    def test_malformed_file_is_named(self, tmp_path, tamper, message):
        save_dataset(self._random_ds(), tmp_path / "d")
        tamper(tmp_path / "d")
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path / "d")

    def test_meta_casts_that_keep_the_value_load(self, tmp_path):
        ds = self._random_ds()
        save_dataset(ds, tmp_path / "d")
        _edit_json(tmp_path / "d" / "meta.json", lambda meta: {**meta, "m": 4.0, "degree": 4.0,
                                                                 "noise_halfwidth": 1})
        assert load_dataset(tmp_path / "d").meta == replace(ds.meta, noise_halfwidth=1.0)

    def test_optional_clean_costs(self, tmp_path):
        ds = self._random_ds()
        stripped = type(ds)(features=ds.features.copy(), costs=ds.costs.copy(),
                            clean_costs=None, meta=ds.meta)
        save_dataset(stripped, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.clean_costs is None

    def _saved(self, tmp_path):
        ds = self._random_ds()
        save_dataset(ds, tmp_path / "d")
        return ds, tmp_path / "d"

    # load_dataset parses a canonical file in one numpy pass; every other
    # file must load to the same bits, or fail with the same message, as
    # through the csv.reader loop
    @pytest.mark.parametrize("edit", [
        lambda s: s.replace("\n", "\r\n"),
        lambda s: s.replace("\n", "\r"),
        lambda s: _edit_row(s, 4, lambda row: "\n" + row),
        lambda s: s + "\n",
        lambda s: _edit_row(s, 4, lambda row: "  \n" + row),
        lambda s: _edit_value(s, 3, lambda v: f'"{v}"'),
        lambda s: _edit_value(s, 3, lambda v: "1_5"),
        lambda s: s.rstrip("\n"),
        lambda s: _edit_value(s, 3, lambda v: "nan"),
        lambda s: _edit_value(s, 3, lambda v: "-Infinity"),
        lambda s: _edit_value(s, 3, lambda v: "1e999"),
        lambda s: _edit_row(s, 2, lambda row: row[:row.rindex(",")]),
        lambda s: s + s[s.rindex("\n", 0, -1) + 1:],
        lambda s: _edit_value(s, 3, lambda v: f" {v}\t"),
        lambda s: _edit_value(s, 3, lambda v: f"\xa0{v}"),
        lambda s: _edit_value(s, 3, lambda v: v + "\x1f"),
        lambda s: _edit_value(s, 3, lambda v: "+" + v),
    ], ids=["crlf", "cr_only", "blank_line_middle", "blank_line_end", "whitespace_line",
            "quoted_number", "underscore_digits", "no_final_newline", "nan", "minus_infinity",
            "overflow", "ragged_row", "extra_row", "spaces_around_value", "nbsp_before_value",
            "unit_separator_after_value", "plus_sign"])
    def test_hostile_file_matches_csv_loop(self, tmp_path, edit):
        ds, d = self._saved(tmp_path)
        path = d / "costs.csv"
        path.write_bytes(edit(path.read_bytes().decode()).encode())
        expected = _outcome(lambda: datagen._read_matrix_csv(path, "c", ds.meta.t, ds.meta.n))
        assert _outcome(lambda: load_dataset(d).costs) == expected

    def test_header_only_file_raises_the_shape_error_without_warning(self, tmp_path):
        ds, d = self._saved(tmp_path)
        path = d / "costs.csv"
        path.write_text(path.read_text().split("\n")[0] + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError,
                               match=r"costs\.csv: shape \(0,\) disagrees with meta \(13, 12\)"):
                load_dataset(d)
        assert caught == []

    def test_saved_files_skip_the_csv_loop(self, tmp_path, monkeypatch):
        ds, d = self._saved(tmp_path)

        def no_loop(*args):
            raise AssertionError("a canonical file reached the csv.reader loop")

        monkeypatch.setattr(datagen, "_read_matrix_csv", no_loop)
        back = load_dataset(d)
        for name in ("features", "costs", "clean_costs"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()

    def test_saved_text_is_pinned(self, tmp_path):
        values = [[-0.0, 5e-324, 0.1], [1e16, 1e-05, 1.5e-07]]
        meta = DatasetMeta(problem="select", instance="select:3", m=3, n=3, t=2, seed=0,
                           noise_halfwidth=0.0, degree=1)
        save_dataset(Dataset(features=values, costs=values, clean_costs=None, meta=meta),
                     tmp_path / "d")
        body = "-0.0,5e-324,0.1\n1e+16,1e-05,1.5e-07\n"
        assert (tmp_path / "d" / "features.csv").read_bytes() == f"z_0,z_1,z_2\n{body}".encode()
        assert (tmp_path / "d" / "costs.csv").read_bytes() == f"c_0,c_1,c_2\n{body}".encode()
