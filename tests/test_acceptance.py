"""End-to-end checks: one full verification run, then one test per criterion."""
import json

import pytest

from angelesco.acceptance import CRITERIA, run_all


@pytest.fixture(scope="module")
def verification(tmp_path_factory):
    lines = []
    report = tmp_path_factory.mktemp("verification") / "report.json"
    results = run_all(report_path=report, echo=lines.append)
    return {r.name: r for r in results}, lines, report


def test_runs_all_ten(verification):
    results, lines, report = verification
    assert list(results) == ["criterion_%d" % i for i in range(1, 11)]
    assert len(CRITERIA) == 10
    assert len(lines) == 10
    for name, line in zip(results, lines):
        assert line.startswith(("PASS ", "FAIL "))
        assert name in line
    payload = json.loads(report.read_text())
    assert set(payload) == set(results)
    for name, entry in payload.items():
        assert entry["passed"] == results[name].passed
        assert entry["seconds"] >= 0.0
        assert entry["details"] == results[name].details


@pytest.mark.parametrize(
    "name", ["criterion_%d" % i for i in (1, 2, 4, 5, 6, 7, 8, 9, 10)]
)
def test_criterion_passes(verification, name):
    results, _, _ = verification
    assert results[name].passed, results[name].details


def test_criterion_5_reports_its_margin(verification):
    results, _, _ = verification
    assert 0.0 <= results["criterion_5"].metrics["probability_of_bound"] <= 1.0


# Each value checked against a numeric upper limit, and that limit; then the
# values held to a lower limit.  criterion_5's bound ratio has no limit key.
LIMITS = {
    "criterion_1": {"l1_distance": 0.02},
    "criterion_2": {"energy_gap": 2e-3, "cdf_gap": 0.01},
    "criterion_3": {"gap_80": 0.02},
    "criterion_4": {"z_error_pair": 1e-4, "z_error_single": 1e-4},
    "criterion_6": {"mean_64": 0.06, "mean_weighted_64": 0.06},
    "criterion_7": {"coeff_err": 1e-8, "identity_err": 1e-6},
    "criterion_8": {"rate": 1e-3, "probe_gap_arcsine": 0.05, "probe_gap_uniform": 0.05,
                    "shift_worst": 1e-10},
    "criterion_9": {"root_16": 1.25},
    "criterion_10": {"identity_rel_err": 1e-8, "start_gap": 1e-3},
}
LOWER_LIMITS = {"criterion_9": {"defective_root": 1.5}}


@pytest.mark.parametrize("name", LIMITS)
def test_numeric_limits_report_their_margins(verification, name):
    results, _, report = verification
    metrics = json.loads(report.read_text())[name]["metrics"]
    ratios = {k: v for k, v in metrics.items() if k.endswith("_of_limit")}
    expected = {k + "_of_limit": metrics[k] / limit for k, limit in LIMITS[name].items()}
    expected.update((k + "_of_limit", limit / metrics[k])
                    for k, limit in LOWER_LIMITS.get(name, {}).items())
    assert ratios == expected
    if results[name].passed:
        assert max(ratios.values()) <= 1.0


@pytest.mark.parametrize("name", LIMITS)
def test_details_end_with_the_limits(verification, name):
    results, _, _ = verification
    named = ["%s <= %g" % kv for kv in LIMITS[name].items()]
    named += ["%s >= %g" % kv for kv in LOWER_LIMITS.get(name, {}).items()]
    limits = results[name].details.rsplit("; limits ", 1)[1]
    assert sorted(limits.split(", ")) == sorted(named)


@pytest.mark.xfail(
    strict=True,
    reason="finite-size gap decays like log(n)/n and is still above 0.02 at n=80",
)
def test_criterion_3_closes_finite_size_gap(verification):
    results, _, _ = verification
    assert results["criterion_3"].passed, results["criterion_3"].details
