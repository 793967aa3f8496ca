"""Reliability model and failure-process simulation tests."""

import pytest

from repro.reliability import (
    FailureProcessSimulator,
    PairGain,
    ReliabilityModel,
    pair_gains_from_study,
    profile_sensitivity,
)
from repro.reliability.model import gain_with_uncertainty
from repro.reliability.profiles import STANDARD_PROFILES, weighted_profiles
from repro.reliability.simulate import BugProfile, bug_profiles_from_study


class TestPairGains:
    def test_ratios_match_table4(self, study):
        gains = pair_gains_from_study(study)
        assert gains[("IB", "PG")].m_a == 47 and gains[("IB", "PG")].m_ab == 1
        assert gains[("MS", "PG")].m_ab == 5
        assert gains[("OR", "PG")].m_ab == 1
        assert gains[("PG", "OR")].m_ab == 0

    def test_ratio_and_gain_factor(self):
        gain = PairGain(m_a=50, m_ab=2)
        assert gain.ratio == pytest.approx(0.04)

    def test_zero_shared_bugs_gives_infinite_gain(self):
        gain = PairGain(m_a=50, m_ab=0)
        assert gain.ratio == 0.0

    def test_all_ratios_small(self, study):
        # The paper's conclusion: mAB/mA is small for every pair.
        for gain in pair_gains_from_study(study).values():
            assert gain.ratio <= 0.13


class TestReliabilityModel:
    def test_equal_rates_recover_naive_ratio(self):
        model = ReliabilityModel(rate_dispersion=0.0)
        mean, low, high = model.expected_ratio(5, 45)
        assert mean == pytest.approx(0.1)
        assert low == high == pytest.approx(0.1)

    def test_dispersion_widens_uncertainty(self):
        model = ReliabilityModel(rate_dispersion=2.0, seed=3)
        mean, low, high = model.expected_ratio(5, 45, samples=500)
        assert high > low
        assert 0.0 <= low <= mean <= high <= 1.0

    def test_underreporting_raises_shared_weight(self):
        base = ReliabilityModel(rate_dispersion=0.0, subtle_underreporting=1.0)
        biased = ReliabilityModel(rate_dispersion=0.0, subtle_underreporting=10.0)
        naive, *_ = base.expected_ratio(5, 45, shared_subtle=5, exclusive_subtle=0)
        skewed, *_ = biased.expected_ratio(5, 45, shared_subtle=5, exclusive_subtle=0)
        assert skewed > naive

    def test_empty_inputs(self):
        model = ReliabilityModel()
        assert model.expected_ratio(0, 0) == (0.0, 0.0, 0.0)

    def test_gain_with_uncertainty_from_study(self, study):
        mean, low, high = gain_with_uncertainty(
            study, "IB", "PG", rate_dispersion=1.0, samples=300, seed=5
        )
        assert 0.0 <= low <= mean <= high <= 0.5

    @pytest.mark.parametrize("a,b", [("IB", "PG"), ("MS", "PG"), ("OR", "PG"), ("IB", "MS")])
    def test_diversity_wins_even_pessimistically(self, study, a, b):
        # Section 6's two uncertainties pushed the pessimistic way: wide
        # per-bug rate variation and subtle failures under-reported 5x
        # (which inflates the shared-bug weight).
        _, _, high = gain_with_uncertainty(
            study, a, b, rate_dispersion=1.5, subtle_underreporting=5.0,
            samples=500, seed=1,
        )
        assert high <= 0.75


class TestSimulator:
    def _profiles(self):
        return [
            BugProfile("B1", 0.01, frozenset({"IB"}), {"IB": False}, False),
            BugProfile("B2", 0.01, frozenset({"PG"}), {"PG": True}, False),
            BugProfile(
                "B3", 0.002, frozenset({"IB", "PG"}), {"IB": False, "PG": False}, True
            ),
        ]

    def test_single_version_failures(self):
        sim = FailureProcessSimulator(self._profiles(), seed=1)
        outcome = sim.run(["IB"], 20000)
        assert outcome.undetected_wrong > 0
        assert outcome.demands == 20000
        assert (
            outcome.correct + outcome.undetected_wrong + outcome.detected + outcome.masked
            == 20000
        )

    def test_pair_detects_most(self):
        sim = FailureProcessSimulator(self._profiles(), seed=1)
        single = sim.run(["IB"], 20000)
        sim2 = FailureProcessSimulator(self._profiles(), seed=1)
        pair = sim2.run(["IB", "PG"], 20000)
        assert pair.undetected_rate < single.undetected_rate

    def test_identical_coincident_failures_slip_through(self):
        profiles = [
            BugProfile("ND", 0.05, frozenset({"IB", "PG"}), {"IB": False, "PG": False}, True)
        ]
        sim = FailureProcessSimulator(profiles, seed=2)
        outcome = sim.run(["IB", "PG"], 5000)
        assert outcome.undetected_wrong > 0
        assert outcome.detected == 0

    def test_differing_coincident_failures_detected(self):
        profiles = [
            BugProfile("D", 0.05, frozenset({"IB", "PG"}), {"IB": False, "PG": False}, False)
        ]
        sim = FailureProcessSimulator(profiles, seed=2)
        outcome = sim.run(["IB", "PG"], 5000)
        assert outcome.detected > 0
        assert outcome.undetected_wrong == 0

    def test_triple_masks(self):
        sim = FailureProcessSimulator(self._profiles(), seed=3)
        outcome = sim.run(["IB", "PG", "OR"], 20000)
        assert outcome.masked > 0
        assert outcome.undetected_rate <= 0.001

    def test_from_study_diversity_wins(self, study):
        # The shape the paper predicts: each diversity step cuts silent
        # wrong answers by a large factor, and a triple masks.
        profiles = bug_profiles_from_study(study, base_rate=1e-3, seed=4)
        sim = FailureProcessSimulator(profiles, seed=4)
        results = sim.compare_configurations(4000)

        def by_size(prefix):
            return [outcome for name, outcome in results.items() if name.startswith(prefix)]

        worst_single = max(outcome.undetected_rate for outcome in by_size("1v"))
        worst_pair = max(outcome.undetected_rate for outcome in by_size("2v"))
        assert worst_pair < worst_single / 5
        assert min(outcome.undetected_rate for outcome in by_size("3v")) <= worst_pair
        assert all(outcome.masked > 0 for outcome in by_size("3v"))


class TestUsageProfiles:
    def test_standard_profiles_exist(self):
        names = {p.name for p in STANDARD_PROFILES}
        assert {"uniform", "reporting", "oltp", "schema-churn", "analytics"} <= names

    def test_weighting_rescales_rates(self, study):
        base = bug_profiles_from_study(study, base_rate=1e-3, rate_dispersion=0.0)
        analytics = [p for p in STANDARD_PROFILES if p.name == "analytics"][0]
        weighted = weighted_profiles(study, base, analytics)
        assert any(
            w.rate > b.rate for w, b in zip(weighted, base)
        )

    def test_sensitivity_varies_across_profiles(self, study):
        base = bug_profiles_from_study(study, base_rate=2e-3, rate_dispersion=0.0)
        rates = profile_sensitivity(study, base, ["IB"], demands=4000, seed=6)
        assert len(rates) == len(STANDARD_PROFILES)
        assert len(set(rates.values())) > 1  # profiles actually differ
