"""Self-test of the repository benchmark, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench -q``.
It is outside the tier-1 collection (``testpaths`` in pyproject.toml).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import calibrate, measure, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {name: w.scaled_down() for name, w in workloads.WORKLOADS.items()}


def _result_line(result: measure.Result) -> dict:
    return json.loads(result.json_line())


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = measure.run(name, seed=3, seconds=0, trace=bool(trace),
                         workload=TINY[name])
    line = _result_line(result)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    for m in spec:
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_modeled_values_repeat_across_seeds(name):
    # Known to fail for recover_p128: with ABFT on, redistribution sends
    # each batch under a pickled list of CRC32 ints, and a pickled int's
    # size depends on its value, so wire bytes (and the modeled time
    # they cost) move by a few bytes with the data.
    w = TINY[name]
    one = workloads.run_rep(w, workloads.make_inputs(w, 1))
    two = workloads.run_rep(w, workloads.make_inputs(w, 2))
    assert one.failed == two.failed == 0
    moved = {k: (v, two.model[k]) for k, v in one.model.items()
             if two.model[k] != v}
    assert not moved, f"modeled values depend on the operands: {moved}"


def test_recovery_workload_recovers():
    w = TINY["recover_p128"]
    rep = workloads.run_rep(w, workloads.make_inputs(w, 1))
    assert rep.failed == 0
    assert rep.model["ft.recoveries"] == 1


def test_one_flipped_element_fails_the_call(monkeypatch):
    w = TINY["largem_repeat_p64"]
    real = workloads._pieces
    corner_tiles = [0]

    def flip_in_first_call(c):
        """Flip C[0, 0] in the first of every repetition's calls."""
        pieces = real(c)
        for i, (rect, tile) in enumerate(pieces):
            if (rect.r0, rect.c0) == (0, 0):
                if corner_tiles[0] % w.calls == 0:
                    tile = tile.copy()
                    tile[0, 0] = -tile[0, 0] - 1.0
                    pieces[i] = (rect, tile)
                corner_tiles[0] += 1
        return pieces

    monkeypatch.setattr(workloads, "_pieces", flip_in_first_call)
    rep = workloads.run_rep(w, workloads.make_inputs(w, 1))
    assert (rep.failed, rep.calls) == (1, w.calls)

    result = measure.run(w.name, seed=1, seconds=0, trace=False, workload=w)
    assert result.correct is False
    reps = 1 + measure.MIN_REPS  # the warm-up is checked too
    assert result.attempted == w.calls * reps
    assert result.failed == reps
    frac = [float(line.split()[1]) for line in result.report
            if line.startswith("ops_failed_frac")]
    assert frac == [1 / w.calls]


def test_host_times_are_scaled_by_the_slowness_before_each_rep(monkeypatch):
    assert 0 < calibrate.Calibrator().slowness() < 100
    # one warm-up measurement before the warm-up repetition, then one per rep
    slowness = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(calibrate.Calibrator, "slowness",
                        lambda self: next(slowness))
    raw = []
    real_run_rep = measure.run_rep

    def recorded(*args, **kwargs):
        rep = real_run_rep(*args, **kwargs)
        raw.append(rep.wall_s)
        return rep

    monkeypatch.setattr(measure, "run_rep", recorded)
    w = TINY["square_p512"]
    result = measure.run(w.name, seed=1, seconds=0, trace=False, workload=w)
    assert len(raw) == 1 + measure.MIN_REPS == 3  # warm-up, two timed
    assert result.metrics["wall_s"] == pytest.approx((raw[1] / 2 + raw[2] / 4) / 2)


def test_count_wrong_sees_gaps_and_overlaps():
    w = TINY["square_p512"]
    inp = workloads.make_inputs(w, 1)

    class Rect:
        def __init__(self, r0, r1, c0, c1):
            self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1

    half = w.m // 2
    top = (Rect(0, half, 0, w.n), inp.ref[:half].copy())
    bottom = (Rect(half, w.m, 0, w.n), inp.ref[half:].copy())
    assert workloads.count_wrong([top, bottom], inp) == 0
    assert workloads.count_wrong([top], inp) == (w.m - half) * w.n
    assert workloads.count_wrong([top, top, bottom], inp) == half * w.n


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "square_p512",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
