"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_library()

import workloads  # noqa: E402  (needs the library on sys.path)
from tracer import Tracer  # noqa: E402

import cayley  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, as the benchmark itself uses."""
    path = run.WORK / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(run.WORK.iterdir()):
        run.WORK.rmdir()


def tiny(name, work):
    if name == "enumerate":
        return workloads.Enumerate(orders=(4, 6, 8))
    if name == "iso-queries":
        return workloads.IsoQueries(factors=(1, 2))
    return workloads.CliLarge(run.SRC, work, workloads.TINY)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(name, trace, work):
    result, details = run.run_workload(tiny(name, work), seed=3, seconds=0, trace=trace)
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace and name != "enumerate":
        assert result["metrics"]["kernel.calls"]["value"] == 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_operations(name, work):
    def ops(seed):
        wl = tiny(name, work)
        wl.setup(seed)
        return [wl.round_ops(i) for i in range(3)]

    assert ops(5) == ops(5)
    assert ops(5) != ops(6)


def test_beyond_counts_samples_above_the_numpy_percentile():
    rng = np.random.default_rng(0)
    for n in (7, 35, 40, 42, 191, 192, 200):
        values = rng.permutation(n) + rng.random()
        for pct in (50, 75, 95):
            assert run.beyond(n, pct) == int((values > np.percentile(values, pct)).sum())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_min_rounds_is_the_fewest_that_give_a_tail(name, work):
    wl = run.make_workload(name, work)
    wl.setup(1)
    per_round = len(wl.round_ops(0))
    rounds = run.min_rounds(wl)
    assert rounds == {"enumerate": 8, "iso-queries": 8, "cli-large": 6}[name]
    assert run.beyond(rounds * per_round, wl.tail_pct) >= run.MIN_BEYOND
    assert run.beyond((rounds - 1) * per_round, wl.tail_pct) < run.MIN_BEYOND


def test_too_few_samples_give_no_tail_rather_than_a_lower_percentile():
    wl = workloads.Enumerate()
    m = run.Measurement()
    m.latencies = [0.001 * (k + 1) for k in range(35)]  # 9 samples beyond p75
    m.round_times = [1.0]
    metrics, details = run.end_to_end(wl, m, 1.0)
    assert "op_tail_ms" not in metrics
    assert details["tail_pct"] == 75 and details["samples"] == 35
    m.latencies.append(0.036)  # 36 samples: still 9 beyond p75
    assert "op_tail_ms" not in run.end_to_end(wl, m, 1.0)[0]
    m.latencies += [0.037, 0.038, 0.039, 0.040]  # 40 samples: 10 beyond p75
    tail_ms = run.end_to_end(wl, m, 1.0)[0]["op_tail_ms"][0]
    assert tail_ms == pytest.approx(1e3 * np.percentile(m.latencies, 75))


def test_wrong_count_is_a_failure_with_its_cause(monkeypatch):
    monkeypatch.setitem(workloads.CENSUS, 6, 3)
    result, details = run.run_workload(workloads.Enumerate(orders=(4, 6)), 1, 0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2 and details["failed_frac"] == 0.5
    assert "WrongAnswer: order 6: 2 classes, the census has 3" in details["failures"][0]


def test_wrong_witness_is_a_failure(monkeypatch):
    real = cayley.morphisms.find_isomorphism

    def planted(g1, g2):
        iso = real(g1, g2)
        if iso is None:
            return None
        swapped = list(iso.forward.map)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        return type(iso)(type(iso.forward)(g1, g2, tuple(swapped)), iso.backward)

    monkeypatch.setattr(cayley.morphisms, "find_isomorphism", planted)
    result, details = run.run_workload(workloads.IsoQueries(factors=(1,)), 1, 0, False)
    assert not result["correct"] and result["failed"] > 0
    assert all("WrongAnswer: witness" in f for f in details["failures"])


def test_exception_is_a_failure_with_its_type(monkeypatch):
    def planted(n, budget=None):
        raise ValueError(f"planted at order {n}")

    monkeypatch.setattr(cayley.enumeration, "enumerate_groups", planted)
    wl = workloads.Enumerate(orders=(4,))
    m = run.measure(wl, rounds=1)
    assert m.failures == ["enumerate (4,): ValueError: planted at order 4"]


def test_wrong_cli_digest_is_a_failure(work):
    wl = workloads.CliLarge(run.SRC, work, workloads.TINY)
    key = " ".join(wl.commands["aut"])
    wl.expected[key] = dict(wl.expected[key], stdout="0" * 64)
    wl.setup(1)
    args = next(op.args for op in wl.round_ops(0) if op.kind == "aut")
    m = run.measure(wl, rounds=1)
    assert m.failures == [f"aut {args}: WrongAnswer: `{key}` stdout digest "
                          "differs from the recorded one"]


def test_tracer_patches_every_binding_and_restores_them():
    original = cayley.core.from_table
    holders = [mod for mod in (cayley, cayley.core, cayley.subgroups, cayley.morphisms,
                               cayley.products, cayley.fileformat, cayley.enumeration)
               if vars(mod).get("from_table") is original]
    assert len(holders) == 7
    tracer = Tracer()
    tracer.install()
    try:
        assert all(mod.from_table is not original for mod in holders)
        cayley.cyclic_group(5)
    finally:
        tracer.uninstall()
    assert all(mod.from_table is original for mod in holders)
    assert tracer.stats["core.cyclic_group"][0] == 1
    assert tracer.stats["core.from_table"][0] == 1
    (span_from_table, span_cyclic) = tracer.spans
    assert span_from_table[1] == span_cyclic[0]  # from_table was caused by cyclic_group


def test_refuses_to_run_without_the_sources(work):
    shutil.copytree(run.ROOT / "perfbench", work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
