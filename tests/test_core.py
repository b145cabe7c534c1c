import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dflkit
from dflkit.core import Dataset, DatasetMeta, DimensionError, RngStream


class TestRngStream:
    def test_same_key_same_sequence(self):
        s1 = RngStream(123, 4)
        s2 = RngStream(123, 4)
        seq1 = [s1.uniform(), s1.normal(), s1.bernoulli_array(0.5, 3).tolist(),
                s1.uniform(-2, 5)]
        seq2 = [s2.uniform(), s2.normal(), s2.bernoulli_array(0.5, 3).tolist(),
                s2.uniform(-2, 5)]
        assert seq1 == seq2

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).uniform(0, 1, size=16)
        b = RngStream(123, 1).uniform(0, 1, size=16)
        assert not np.array_equal(a, b)

    def test_degenerate_uniform(self):
        assert RngStream(0).uniform(0.0, 0.0) == 0.0
        assert RngStream(0).uniform(3.5, 3.5) == 3.5

    def test_uniform_bounds(self):
        s = RngStream(5)
        draws = s.uniform(-1.0, 2.0, size=1000)
        assert draws.min() >= -1.0 and draws.max() < 2.0
        with pytest.raises(ValueError):
            s.uniform(1.0, 0.0)

    def test_normal_mean_million_draws(self):
        z = RngStream(42, 1).normal(10**6)
        assert abs(float(z.mean())) < 0.01

    def test_normal_scalar_matches_vector(self):
        for key in [(42, 2), (9, 2), (0, 0), (7, 5)]:
            s = RngStream(*key)
            one_at_a_time = np.array([s.normal() for _ in range(5000)])
            assert one_at_a_time.tobytes() == RngStream(*key).normal(5000).tobytes(), key

    def test_uniform_scalar_matches_vector(self):
        s = RngStream(42, 2)
        one_at_a_time = np.array([s.uniform(-2.0, 5.0) for _ in range(5000)])
        assert one_at_a_time.tobytes() == RngStream(42, 2).uniform(-2.0, 5.0, 5000).tobytes()

    def test_bernoulli_edges(self):
        s = RngStream(1)
        assert np.array_equal(s.bernoulli_array(1.0, (4, 5)), np.ones((4, 5)))
        assert np.array_equal(s.bernoulli_array(0.0, 20), np.zeros(20))
        with pytest.raises(ValueError):
            s.bernoulli_array(1.5, 1)

    def test_permutation(self):
        s = RngStream(3)
        p = s.permutation(50)
        assert sorted(p.tolist()) == list(range(50))
        assert np.array_equal(RngStream(3).permutation(50), RngStream(3).permutation(50))

    def test_permutation_draw_contract(self):
        # Reference: one Generator.random() per Fisher-Yates step.
        gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=11, spawn_key=(4,))))
        expected = list(range(50))
        for i in range(49, 0, -1):
            j = int(gen.random() * (i + 1))
            expected[i], expected[j] = expected[j], expected[i]
        s = RngStream(11, 4)
        assert s.permutation(50).tolist() == expected
        assert s.uniform() == gen.random()

    def test_cross_process_reproducibility(self):
        code = (
            "import json, sys\n"
            "from dflkit.core import RngStream\n"
            "s = RngStream(2024, 3)\n"
            "out = [s.uniform() for _ in range(4)] + list(map(float, s.normal(4)))\n"
            "print(json.dumps(out))\n"
        )
        # the child imports the same dflkit as this process
        src = str(Path(dflkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True, env=env).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]
        here = [RngStream(2024, 3).uniform() for _ in [0]]
        assert json.loads(runs[0])[0] == here[0]


def _meta(t, m, n):
    return DatasetMeta(problem="select", instance=f"select:{n}", m=m, n=n, t=t,
                       seed=0, noise_halfwidth=0.0, degree=1)


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            Dataset(features=np.zeros((3, 2)), costs=np.zeros((4, 5)),
                    clean_costs=None, meta=_meta(3, 2, 5))

    def test_nonfinite_rejected(self):
        feats = np.zeros((2, 2))
        costs = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Dataset(features=feats, costs=costs, clean_costs=None, meta=_meta(2, 2, 2))

    def test_immutability_and_sample_view(self):
        ds = Dataset(features=np.arange(6.0).reshape(3, 2),
                     costs=np.ones((3, 4)), clean_costs=np.ones((3, 4)),
                     meta=_meta(3, 2, 4))
        with pytest.raises(ValueError):
            ds.costs[0, 0] = 9.0
        z, c_clean = ds.features[1], ds.clean_costs[1]
        assert np.array_equal(z, [2.0, 3.0])
        assert not z.flags.writeable and not c_clean.flags.writeable
        assert len(ds) == 3
