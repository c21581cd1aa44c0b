"""Golden-trace regression tests.

Three representative scenarios are recorded under ``tests/golden/``; each
test replays the scenario from the registry at the recorded seed and
requires a bit-identical digest.  After an *intentional* behaviour change
(new solver default, workload fix, ...) regenerate the recordings with

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --regen-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios.replay import (
    diff_golden,
    load_golden,
    run_scenario,
    verify_golden_file,
    write_golden,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (scenario name, recorded seed) — keep in sync with the files on disk.
#: scale_tier_10k pins the vectorized struct-of-arrays hot path at a
#: 10k-box instance size (seeded, spec-horizon recording).
#: The chaos_* entries pin the fault-injection layer: their specs embed
#: FaultSpecs, so replaying them exercises the compiled fault plans.
GOLDEN_SCENARIOS = [
    ("steady_state", 1234),
    ("flashcrowd_spike", 1234),
    ("churn_storm", 1234),
    ("scale_tier_10k", 1234),
    ("scale_tier_100k", 1234),
    ("chaos_box_crash", 1234),
    ("chaos_brownout", 1234),
    ("chaos_degraded_solver", 1234),
    # The workload-realism tier: Zipf/drift/trace demand and the
    # hierarchical CDN baseline (population + allocation components).
    ("zipf_steady", 1234),
    ("zipf_drift", 1234),
    ("trace_replay", 1234),
    ("cdn_hybrid_baseline", 1234),
    # The adaptive adversaries: least_replicated and cold_start demand.
    ("adaptive_adversary", 1234),
    ("catalog_growth_ramp", 1234),
    # Infeasible rounds solved by the Hopcroft–Karp kernel itself (the
    # repair fails and no degraded fallback runs): pins its deficit path,
    # its assignment and its Hall witness.
    ("near_threshold_load", 1234),
]

#: Digests of the goldens that predate the workload-realism tier, frozen
#: at their committed values.  The new workload kinds draw from the
#: existing per-phase child streams of the master seed, so adding them
#: must leave every one of these recordings byte-identical; a mismatch
#: here means the stream discipline (or a recording) changed by accident
#: rather than through a deliberate --regen-golden.
PRE_WORKLOAD_TIER_DIGESTS = {
    "chaos_box_crash": "cd16266ec0a257c123faed2f0ac1f3d3d084c7dcd0354034e39ad85f68711ce3",
    "chaos_brownout": "74dca888b31f2850e0ee19ee3a2c8380624f18f7c02251deebf4d1808a7b2643",
    "chaos_degraded_solver": "377ade9de49170fa0c83a0375ab7d193a3907ef2f3f5c9ce4c4952efddaa97a8",
    "churn_storm": "2cc505a467cbdec10c457feb589a8c4c058bb8d4e189c5b9705e5333ece4de5a",
    "flashcrowd_spike": "519f5ea4c09fe6e7e34041013a90652a784b4aebca05000daf40ecc90f194451",
    "scale_tier_100k": "d0c45edbbcca27aa6127dde148e6141db09cb75551845380c4900ef62a5a01ba",
    "scale_tier_10k": "0a39300db870e7a5e66d71ba93933585ff882ffec1e79990586200ae99fd1535",
    "steady_state": "d158f7f07f976f5d6ae94513e6e42f50fd92e35fcb9a848b664dc1930658b765",
}

#: CI budget: heavyweight tiers record fewer rounds than their spec
#: horizon (the golden file stores the recorded count; replays honour it).
_GOLDEN_ROUNDS = {"scale_tier_100k": 25}


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name,seed", GOLDEN_SCENARIOS)
def test_golden_trace_replays_bit_identically(name, seed, regen_golden):
    path = _golden_path(name)
    if regen_golden:
        run = run_scenario(name, seed=seed, num_rounds=_GOLDEN_ROUNDS.get(name))
        write_golden(run, path)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden trace {path}; record it with --regen-golden"
    )
    run, diffs = verify_golden_file(path)
    assert not diffs, "golden trace diverged:\n" + "\n".join(f"  {d}" for d in diffs)
    assert run.digest == load_golden(path)["digest"]


@pytest.mark.parametrize("name,seed", GOLDEN_SCENARIOS)
def test_golden_trace_replays_through_session_facade(name, seed, regen_golden):
    """Stepping a VodSession reproduces the recorded batch rounds bit for bit."""
    if regen_golden:
        pytest.skip("regeneration run")
    from repro.scenarios.build import build_scenario
    from repro.scenarios.spec import ScenarioSpec

    golden = load_golden(_golden_path(name))
    spec = ScenarioSpec.from_dict(golden["spec"])
    rounds = int(golden["rounds"])
    session = build_scenario(spec, seed=seed, min_horizon=rounds).session(
        horizon=rounds
    )
    reports = session.step_until(round=rounds)
    # The reports must mirror the engine's stats, and those stats must
    # digest to exactly the recorded golden rounds.
    result = session.result()
    assert [r.to_round_stats() for r in reports] == list(result.metrics.round_stats)
    from repro.scenarios.replay import _round_records

    assert _round_records(result) == [dict(r) for r in golden["round_records"]]


@pytest.mark.parametrize("name,seed", GOLDEN_SCENARIOS)
def test_golden_file_embeds_registry_spec(name, seed, regen_golden):
    if regen_golden:
        pytest.skip("regeneration run")
    golden = load_golden(_golden_path(name))
    assert golden["scenario"] == name
    assert golden["seed"] == seed
    assert golden["spec"]["name"] == name


def test_pre_workload_tier_goldens_pinned_byte_identical():
    """The 9 goldens recorded before the workload tier are untouched.

    One sweep over the frozen digest table: both the committed file and
    the names list must match exactly — catching silent regeneration as
    well as accidental stream-order drift from the new workload kinds.
    """
    assert sorted(PRE_WORKLOAD_TIER_DIGESTS) == sorted(
        p.stem
        for p in GOLDEN_DIR.glob("*.json")
        if p.stem in PRE_WORKLOAD_TIER_DIGESTS
    )
    for name, digest in sorted(PRE_WORKLOAD_TIER_DIGESTS.items()):
        golden = load_golden(_golden_path(name))
        assert golden["digest"] == digest, (
            f"golden {name} was re-recorded: digest {golden['digest']} != "
            f"frozen {digest}; the workload-realism tier must not disturb "
            "pre-existing recordings"
        )


def test_diff_golden_detects_tampered_rounds(regen_golden):
    if regen_golden:
        pytest.skip("regeneration run")
    name, seed = GOLDEN_SCENARIOS[0]
    golden = load_golden(_golden_path(name))
    golden["round_records"][2]["matched"] += 1
    run = run_scenario(name, seed=seed, num_rounds=golden["rounds"])
    diffs = diff_golden(run, golden)
    assert any("round 2" in d for d in diffs)


def test_diff_golden_detects_tampered_digest(tmp_path, regen_golden):
    if regen_golden:
        pytest.skip("regeneration run")
    name, seed = GOLDEN_SCENARIOS[0]
    golden = load_golden(_golden_path(name))
    golden["digest"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(golden))
    _, diffs = verify_golden_file(tampered)
    assert any(d.startswith("digest:") for d in diffs)


def test_load_golden_rejects_unknown_format(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": 99}))
    with pytest.raises(ValueError, match="format"):
        load_golden(bad)
