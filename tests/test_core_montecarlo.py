"""End-to-end validation of the analytic reliability model by
behavioural Monte-Carlo fault injection."""

import pytest

from repro.bench import diffeq, fir16
from repro.errors import ReproError
from repro.library import paper_library
from repro.core import (
    baseline_design,
    combined_design,
    find_design,
    simulate_design,
    simulate_designs,
)


@pytest.fixture(scope="module")
def lib():
    return paper_library()


class TestMonteCarloAgreement:
    def test_plain_design(self, lib):
        result = find_design(diffeq(), lib, 6, 11)
        report = simulate_design(result, trials=40_000, seed=1)
        assert report.consistent(sigmas=4.0), (
            f"analytic {report.analytic:.5f} vs simulated "
            f"{report.estimate:.5f} ± {report.stderr:.5f}")

    def test_redundant_design(self, lib):
        # redundancy semantics (duplex / voting) must also agree
        result = baseline_design(fir16(), lib, 10, 13)
        assert any(c > 1 for c in result.instance_copies.values())
        report = simulate_design(result, trials=40_000, seed=2)
        assert report.consistent(sigmas=4.0)

    def test_combined_design(self, lib):
        result = combined_design(diffeq(), lib, 6, 14)
        report = simulate_design(result, trials=40_000, seed=3)
        assert report.consistent(sigmas=4.0)

    def test_estimate_bounds(self, lib):
        result = find_design(diffeq(), lib, 6, 11)
        report = simulate_design(result, trials=2_000, seed=4)
        assert 0.0 <= report.estimate <= 1.0
        assert report.stderr > 0

    def test_deterministic_per_seed(self, lib):
        result = find_design(diffeq(), lib, 6, 11)
        a = simulate_design(result, trials=5_000, seed=7)
        b = simulate_design(result, trials=5_000, seed=7)
        assert a.successes == b.successes

    def test_bad_trials(self, lib):
        result = find_design(diffeq(), lib, 6, 11)
        with pytest.raises(ReproError):
            simulate_design(result, trials=0)


class TestConsistencyHelper:
    def test_consistent_accepts_exact_match(self, lib):
        from repro.core import MonteCarloReport

        report = MonteCarloReport(trials=1000, successes=800,
                                  analytic=0.8)
        assert report.consistent()

    def test_consistent_rejects_gross_mismatch(self):
        from repro.core import MonteCarloReport

        report = MonteCarloReport(trials=100_000, successes=50_000,
                                  analytic=0.9)
        assert not report.consistent()


class TestVectorizedCampaign:
    def test_batched_and_scalar_paths_agree_statistically(self, lib):
        import random

        result = baseline_design(fir16(), lib, 10, 13)
        batched = simulate_design(result, trials=40_000, seed=11)
        scalar = simulate_design(result, trials=40_000, seed=11,
                                 rng=random.Random(11))
        # the two samplers draw differently but estimate the same value
        assert batched.consistent(sigmas=4.0)
        assert scalar.consistent(sigmas=4.0)
        assert abs(batched.estimate - scalar.estimate) <= 4.0 * (
            batched.stderr + scalar.stderr)

    def test_batched_determinism_per_seed(self, lib):
        result = find_design(diffeq(), lib, 6, 11)
        runs = [simulate_design(result, trials=10_000, seed=42)
                for _ in range(2)]
        assert runs[0].successes == runs[1].successes


class TestPooledCampaign:
    def designs(self, lib):
        return [find_design(diffeq(), lib, 6, 11),
                baseline_design(fir16(), lib, 10, 13),
                combined_design(diffeq(), lib, 6, 14)]

    def test_every_design_consistent(self, lib):
        designs = self.designs(lib)
        reports = simulate_designs(designs, trials=40_000, seed=5)
        assert len(reports) == len(designs)
        for design, report in zip(designs, reports):
            assert report.analytic == design.reliability
            assert report.trials == 40_000
            assert report.consistent(sigmas=4.0), (
                f"analytic {report.analytic:.5f} vs simulated "
                f"{report.estimate:.5f} ± {report.stderr:.5f}")

    def test_deterministic_per_seed(self, lib):
        designs = self.designs(lib)
        first = simulate_designs(designs, trials=10_000, seed=6)
        second = simulate_designs(designs, trials=10_000, seed=6)
        assert [r.successes for r in first] \
            == [r.successes for r in second]

    def test_scalar_oracle_path(self, lib):
        import random

        designs = self.designs(lib)[:2]
        pooled = simulate_designs(designs, trials=30_000, seed=8)
        scalar = simulate_designs(designs, trials=30_000, seed=8,
                                  rng=random.Random(8))
        # per-design scalar simulation from one stream, in order
        oracle = []
        stream = random.Random(8)
        for design in designs:
            oracle.append(simulate_design(design, trials=30_000,
                                          rng=stream))
        for got, want, batched in zip(scalar, oracle, pooled):
            assert got.successes == want.successes
            assert abs(batched.estimate - got.estimate) <= 4.0 * (
                batched.stderr + got.stderr)

    def test_empty_and_bad_inputs(self, lib):
        assert simulate_designs([], trials=100) == []
        with pytest.raises(ReproError):
            simulate_designs(self.designs(lib)[:1], trials=0)


class TestSeededStreams:
    """The seeded samplers draw from numpy's ``default_rng``; numpy is
    imported on first use only, and without it the seeded path refuses
    rather than quietly switching to a different stream."""

    @pytest.fixture(scope="class")
    def anchor(self, lib):
        # the paper's Table 2(a) anchor cell, reliability 0.59998
        return find_design(fir16(), lib, 10, 9)

    def test_exact_successes_simulate_design(self, anchor):
        assert simulate_design(anchor, trials=20_000, seed=0).successes \
            == 11986
        assert simulate_design(anchor, trials=5_000, seed=11).successes \
            == 3000

    def test_exact_successes_simulate_designs(self, lib, anchor):
        designs = [anchor, baseline_design(fir16(), lib, 10, 13)]
        reports = simulate_designs(designs, trials=5_000, seed=11)
        assert [r.successes for r in reports] == [3040, 3791]
        assert simulate_designs([anchor], trials=5_000,
                                seed=11)[0].successes == 3023

    def test_missing_numpy_refuses_seed_only_path(self, anchor,
                                                  monkeypatch):
        import random
        import sys

        monkeypatch.setitem(sys.modules, "numpy", None)  # blocks import
        with pytest.raises(ReproError, match="needs numpy"):
            simulate_design(anchor, trials=100, seed=1)
        with pytest.raises(ReproError, match="needs numpy"):
            simulate_designs([anchor], trials=100, seed=1)
        # an explicit stream selects the stdlib scalar oracle
        scalar = simulate_design(anchor, trials=500, rng=random.Random(1))
        assert scalar.trials == 500 and 0 < scalar.successes < 500
        pooled = simulate_designs([anchor], trials=500,
                                  rng=random.Random(1))
        assert pooled[0].successes == scalar.successes
