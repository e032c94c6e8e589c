"""Tests of the benchmark itself: generators, output checks, metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from pulse2d.dispatch import Region

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_region_labels_follow_region_codes():
    assert run.REGION_LABELS == tuple(reg.label for reg in sorted(Region))


@pytest.fixture(scope="module")
def evaluators():
    return {name: workloads.make_evaluator(name) for name in run.WORKLOADS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, evaluators):
    ev = evaluators[name]
    a = workloads.call_arrays(workloads.generate(name, 7, ev))
    b = workloads.call_arrays(workloads.generate(name, 7, ev))
    c = workloads.call_arrays(workloads.generate(name, 8, ev))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


@pytest.mark.parametrize("name", ["stratified", "extended"])
def test_stratified_batches_hold_equal_region_shares(name, evaluators):
    ev = evaluators[name]
    for t, r in workloads.generate(name, 3, ev):
        counts = np.bincount(np.asarray(workloads.classify(ev, t, r), int),
                             minlength=len(Region))
        assert counts.min() == counts.max() > 0


@pytest.mark.parametrize("name", ["stratified", "extended"])
@pytest.mark.parametrize("region", list(Region))
def test_region_points_land_in_their_region(name, region, evaluators):
    ev = evaluators[name]
    t, r = workloads.region_points(ev.params, region, 40,
                                   np.random.default_rng(5))
    assert np.all(np.asarray(workloads.classify(ev, t, r)) == int(region))


def test_mesh_mix_is_mostly_zero_and_form2(evaluators):
    ev = evaluators["mesh"]
    calls = workloads.generate("mesh", 3, ev)
    assert len(calls) == workloads.MESH_TIMES
    assert calls[0][0].size == workloads.MESH_N ** 2
    t, r = workloads.call_arrays(calls)
    assert 0 < t.min() and t.max() <= workloads.MESH_T_MAX
    share = np.bincount(workloads.classify(ev, t, r),
                        minlength=len(Region)) / t.size
    assert share[Region.ZERO] > 0.5
    assert share[Region.FORM2_JACOBI] > 0.1
    assert share[Region.FORM2_UNIFORM] > 0.01
    assert share[Region.FORM1_GL] > 0
    assert share[[Region.SERIES, Region.FORM3_GL, Region.SMALL_T]].sum() < 1e-3


def test_probe_walks_fixed_receivers_from_t0(evaluators):
    ev = evaluators["probe"]
    calls = workloads.generate("probe", 3, ev)
    assert calls[0] == (0.0, 0.0)
    assert {c[1] for c in calls} == set(workloads.PROBE_RECEIVERS)
    assert all(isinstance(c[0], float) for c in calls)
    t, r = workloads.call_arrays(calls)
    codes = set(np.asarray(workloads.classify(ev, t, r)).tolist())
    assert {int(Region.SERIES), int(Region.FORM3_GL)} <= codes


@pytest.fixture(scope="module")
def form1_points(evaluators):
    ev = evaluators["stratified"]
    t, r = workloads.region_points(ev.params, Region.FORM1_GL, 3,
                                   np.random.default_rng(1))
    p, u, _ = ev.evaluate_arrays(t, r)
    return ev, t, r, p, u


def test_perturbed_output_breaks_bit_identity(form1_points):
    ev, t, r, p, u = form1_points
    assert checks.identity_failures(ev, t, r, p, u, scalar=False) == 0
    assert checks.identity_failures(ev, t, r, p, u, scalar=True) == 0
    bad = p.copy()
    bad[1] = np.nextafter(bad[1], np.inf)
    assert checks.identity_failures(ev, t, r, bad, u, scalar=False) == 1
    assert checks.identity_failures(ev, t, r, bad, u, scalar=True) == 1


def test_perturbed_output_misses_the_oracle(form1_points):
    ev, t, r, p, u = form1_points
    eps = float(ev.params.eps)
    t, r, p, u = t[:1], r[:1], p[:1], u[:1]
    assert checks.oracle_failures(t, r, p, u, eps, False)[0] == 0
    assert checks.oracle_failures(t, r, p, u + 4 * eps, eps, False)[0] == 1


def test_small_t_reference_accepts_output_and_rejects_perturbation(evaluators):
    ev = evaluators["stratified"]
    eps = float(ev.params.eps)
    t = np.array([0.5 * eps, 0.0])
    r = np.array([1.0, 2.0])
    p, u, codes = ev.evaluate_arrays(t, r)
    assert np.all(codes == int(Region.SMALL_T))
    assert checks.oracle_failures(t, r, p, u, eps, False)[0] == 0
    assert checks.oracle_failures(t, r, p + 3 * eps, u, eps, False)[0] == 2


def test_nonfinite_and_changed_outputs_are_counted():
    p = np.array([1.0, math.nan, 2.0])
    u = np.array([0.0, 0.0, math.inf])
    assert checks.count_nonfinite(p, u) == 2
    assert checks.count_changed(p, u, p, u) == 1          # nan != nan
    q = p.copy()
    q[0] = 1.5
    assert checks.count_changed(q, u, p, u) == 2


def _run(tmp_root, *args):
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170)


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "probe", "--seed", "1",
                    "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for name in want:
            assert f"\n{name} = " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "stratified", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
