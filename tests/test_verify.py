"""Seeded property campaign: registry, determinism, report schema."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from lambdarisk import CampaignConfig, CampaignReport, PreconditionError, run_campaign, verify

AXIOM_PROPS = (
    "lift_level_monotone",
    "lift_pointwise_monotone",
    "lift_family_chain",
    "lift_quasi_convex",
    "lift_point_mass_normalized",
    "lift_cash_subadditive",
    "lift_icx_monotone",
    "lift_mixture_quasi_concave",
)

MUST_FAIL_PROPS = (
    "must_fail_cash_additivity",
    "must_fail_convexity",
    "must_fail_mixture_concavity",
)


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(CampaignConfig(seed=4, cases=8))


def test_small_campaign_passes(small_report):
    assert small_report.all_passed
    for out in small_report.outcomes:
        assert out.cases == 8
        assert out.passes + out.failures == out.cases
        assert out.failures == 0
        assert out.worst_violation == 0.0
        assert len(out.samples) == 0


def test_registry_covers_expected_properties(small_report):
    names = [o.name for o in small_report.outcomes]
    assert len(names) == len(set(names))
    for want in AXIOM_PROPS + MUST_FAIL_PROPS:
        assert want in names
    assert "es_reduction" in names
    assert "evar_weak_duality" in names
    assert "robust_delta_zero_identity" in names


def test_report_lookup_and_round_trip(small_report):
    out = small_report.outcome("lift_cash_subadditive")
    assert out.name == "lift_cash_subadditive"
    with pytest.raises(KeyError):
        small_report.outcome("no_such_property")
    blob = small_report.to_json()
    data = json.loads(blob)
    assert data["seed"] == 4
    assert data["cases"] == 8
    assert data["all_passed"] is True
    assert len(data["properties"]) == len(small_report.outcomes)
    row = data["properties"][0]
    assert set(row) == {"name", "cases", "passes", "failures", "worst_violation", "samples"}


def test_campaign_is_deterministic():
    a = run_campaign(CampaignConfig(seed=91, cases=5)).to_json()
    b = run_campaign(CampaignConfig(seed=91, cases=5)).to_json()
    assert a == b


def test_different_seeds_draw_different_cases():
    a = run_campaign(CampaignConfig(seed=0, cases=3))
    b = run_campaign(CampaignConfig(seed=1, cases=3))
    assert a.to_json() != b.to_json()


def test_config_validation():
    with pytest.raises(PreconditionError):
        run_campaign(CampaignConfig(cases=0))
    with pytest.raises(PreconditionError):
        run_campaign(CampaignConfig(max_support=1))


def test_tolerance_override_can_force_failures(monkeypatch):
    # an impossible tolerance turns an exact identity check into a failure,
    # and the failing payload carries enough to reproduce the case
    props = [
        (name, -1.0 if name == "combine_affine_exact" else tol, fn)
        for name, tol, fn in verify._PROPERTIES
    ]
    monkeypatch.setattr(verify, "_PROPERTIES", props)
    report = run_campaign(CampaignConfig(seed=2, cases=4))
    assert not report.all_passed
    out = report.outcome("combine_affine_exact")
    assert out.failures == 4
    assert 0 < len(out.samples) <= 3
    sample = out.samples[0]
    assert "atoms" in sample
    json.dumps(sample)  # payloads must stay JSON-safe


def test_report_is_plain_data(small_report):
    d = small_report.to_dict()
    assert isinstance(d, dict)
    rebuilt = json.loads(json.dumps(d, sort_keys=True))
    assert rebuilt == json.loads(small_report.to_json())


def test_reimport_frees_the_previous_package():
    # typing caches subscripted generics process-wide; a package class in one
    # of them would keep every re-imported generation of its module alive
    script = textwrap.dedent("""
        import gc, importlib, json, sys, weakref

        def fresh():
            for name in [m for m in sys.modules if m.split(".")[0] == "lambdarisk"]:
                del sys.modules[name]
            importlib.import_module("lambdarisk.cli")
            return importlib.import_module("lambdarisk")

        lr = fresh()
        refs = [weakref.ref(x) for x in (lr.Step, lr.CampaignConfig, lr.levels, lr.verify)]
        del lr
        fresh()
        gc.collect()
        print(json.dumps([r() is None for r in refs]))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == [True] * 4
