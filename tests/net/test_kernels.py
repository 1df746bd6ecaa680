"""Per-cohort kernel contracts: bit-exact numpy, the bench's table.

The kernels feed decision-relevant arithmetic (FIFO completion times,
TTL/patience comparisons, geometric solve sampling), so their contract
is bit-exactness against the inline expressions they replaced — not
just numerical closeness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.sim import kernels


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0xD15C0)


class TestNumpyReference:
    def test_fifo_running_sum_matches_inline_cumsum(self, rng):
        start = 3.7
        costs = rng.uniform(1e-5, 1e-3, 513)
        seeded = np.empty(514)
        seeded[0] = start
        seeded[1:] = costs
        expected = np.cumsum(seeded)[1:]
        got = kernels.fifo_running_sum(start, costs, 513)
        assert np.array_equal(got, expected)

    def test_fifo_running_sum_scalar_cost(self):
        got = kernels.fifo_running_sum(1.0, 0.25, 4)
        assert np.array_equal(got, [1.25, 1.5, 1.75, 2.0])

    def test_geometric_attempts_matches_inline_expression(self, rng):
        d = rng.integers(1, 24, 513).astype(np.float64)
        u = rng.random(513)
        p = np.exp2(-d)
        expected = np.maximum(
            1.0, np.ceil(np.log(u) / np.log1p(-p))
        )
        assert np.array_equal(
            kernels.geometric_attempts(d, u), expected
        )

    def test_geometric_attempts_zero_uniform_is_finite(self):
        got = kernels.geometric_attempts(
            np.array([8.0]), np.array([0.0])
        )
        assert np.isfinite(got).all() and got[0] >= 1.0

    def test_masks_match_inline_comparisons(self, rng):
        receipt = rng.uniform(0, 10, 257)
        solve_end = receipt + rng.uniform(0, 5, 257)
        patience = np.full(257, 2.5)
        assert np.array_equal(
            kernels.patience_mask(solve_end, receipt, patience),
            (solve_end - receipt) > patience,
        )
        issued = rng.uniform(0, 10, 257)
        assert np.array_equal(
            kernels.ttl_mask(7.0, issued, 5.0), (7.0 - issued) > 5.0
        )


class TestDispatch:
    def test_numpy_is_default_without_numba(self):
        assert kernels.active_backend() == "numpy"

    def test_backends_always_include_numpy(self):
        table = kernels.backends()
        assert set(table) == {
            "fifo_running_sum",
            "geometric_attempts",
            "patience_mask",
            "ttl_mask",
        }
        for variants in table.values():
            assert "numpy" in variants
            assert callable(variants["numpy"])

    def test_sample_attempts_array_owns_rng_consumption(self):
        # The fastsim sampler draws uniforms itself and hands them to
        # the kernel: identical generator state in, identical attempts
        # out.
        from repro.net.sim.fastsim import sample_attempts_array

        d = np.array([0.0, 4.0, 8.0, 0.0, 12.0])
        a1 = sample_attempts_array(d, np.random.default_rng(7))
        a2 = sample_attempts_array(d, np.random.default_rng(7))
        assert np.array_equal(a1, a2)
        assert np.array_equal(a1[[0, 3]], [1.0, 1.0])  # d<=0 -> 1 attempt


class TestMicrobench:
    def test_kernel_microbench_covers_every_kernel(self):
        from repro.bench.kernels import (
            KernelBenchConfig,
            run_kernel_microbench,
        )

        result = run_kernel_microbench(
            KernelBenchConfig(size=500, repeats=2)
        )
        assert result.experiment_id == "kernels"
        benched = {row[0] for row in result.rows}
        assert benched == set(kernels.backends())
        assert result.extra["active_backend"] == kernels.active_backend()

    def test_kernel_microbench_validates_config(self):
        from repro.bench.kernels import KernelBenchConfig

        with pytest.raises(ValueError):
            KernelBenchConfig(size=0)
        with pytest.raises(ValueError):
            KernelBenchConfig(repeats=0)
