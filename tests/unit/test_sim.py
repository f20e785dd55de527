"""Unit tests: simulation substrate (repro.sim)."""

import subprocess
import sys

import numpy as np
import pytest

from repro.sim import child, make_rng, spawn, stream_for, tag_entropy
from repro.sim.montecarlo import aggregate_trials, wilson_interval


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_spawn_independent(self):
        rng = make_rng(0)
        a, b = spawn(rng, 2)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        xs = [c.random() for c in spawn(make_rng(1), 3)]
        ys = [c.random() for c in spawn(make_rng(1), 3)]
        assert xs == ys

    def test_child(self):
        assert child(make_rng(0)).random() == child(make_rng(0)).random()

    def test_stream_for_tags(self):
        assert stream_for(0, "a").random() == stream_for(0, "a").random()
        assert stream_for(0, "a").random() != stream_for(0, "b").random()

    def test_stream_for_pinned_draws(self):
        """Regression: tag digests must be stable across processes and
        versions.  The old ``abs(hash(t))`` digest was salted by
        ``PYTHONHASHSEED``, so the same (seed, tag) named different
        streams in different processes; these draws pin the CRC-32-based
        stream forever."""
        assert tag_entropy("epoch") == 392650914
        draws = stream_for(123, "epoch").random(3)
        assert draws == pytest.approx(
            [0.5296747315353953, 0.7141755751655828, 0.3646584897641174],
            abs=0.0,
        )
        draws2 = stream_for(7, "churn", 2).random(2)
        assert draws2 == pytest.approx(
            [0.7604700989999414, 0.3159676731700014], abs=0.0
        )

    def test_stream_for_stable_across_hash_seeds(self):
        """The same (seed, tag) stream in a child process with a different
        hash salt — the exact failure mode of the hash() digest."""
        import os
        import pathlib

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
        code = (
            "from repro.sim import stream_for;"
            "print(repr(stream_for(123, 'epoch').random()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.strip()
        assert float(out) == stream_for(123, "epoch").random()

    def test_tag_entropy_distinguishes_types(self):
        assert tag_entropy(3) != tag_entropy("3")


class TestMonteCarlo:
    def test_aggregate_trials_mean(self):
        res = aggregate_trials(make_rng(0).random(200))
        assert res.mean == pytest.approx(0.5, abs=0.06)
        assert res.lo <= res.mean <= res.hi

    def test_wilson_bounds(self):
        lo, hi = wilson_interval(5, 10)
        assert 0.0 <= lo < 0.5 < hi <= 1.0

    def test_wilson_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_zero_successes(self):
        lo, hi = wilson_interval(0, 500)
        assert lo == 0.0 and hi < 0.02

    def test_binary_trial_ci_within_unit_interval(self):
        """Regression: rare-event 0/1 trials must not produce lo<0 / hi>1
        (the normal approximation did); binary trials get Wilson bounds."""
        res = aggregate_trials(make_rng(0).random(100) < 0.01)
        assert 0.0 <= res.lo <= res.mean <= res.hi <= 1.0
        # all-failures corner: degenerate normal CI would be [0, 0]
        res0 = aggregate_trials(np.zeros(50))
        assert res0.lo == 0.0 and 0.0 < res0.hi <= 1.0

    def test_unit_interval_trial_ci_clamped(self):
        """Non-binary trials with values in [0,1] get a clamped CI."""
        res = aggregate_trials(make_rng(2).random(40) ** 8)
        assert res.lo >= 0.0 and res.hi <= 1.0

    def test_unbounded_trial_ci_not_clamped(self):
        """Count-valued trials keep the plain normal CI (no fake clamp)."""
        res = aggregate_trials(make_rng(3).poisson(600, 30))
        assert res.lo > 1.0  # nowhere near the unit interval
