"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests
"""

import json
import time

import pytest

import run
import speed
import tracing
import worker
import workloads
from program import ROOT


@pytest.mark.parametrize("name", sorted(workloads.CLASSES))
def test_same_seed_gives_same_inputs(name):
    first = workloads.cycle_items(name, 7, 0)
    assert first == workloads.cycle_items(name, 7, 0)
    assert first != workloads.cycle_items(name, 8, 0)
    assert first != workloads.cycle_items(name, 7, 1)
    # the seed moves data within the fixed mix of operation kinds
    assert len(first) == len(workloads.cycle_items(name, 8, 0))


def test_cycles_keep_their_mix():
    items = workloads.cycle_items("curvature", 3, 0)
    assert sorted((k, p) for k, p, _ in items) == list(workloads.Curvature.BLOCKS)
    items = workloads.cycle_items("spectra", 3, 0)
    for l, op, n in workloads.Spectra.KINDS:
        q0s = sorted(q0 for l2, q0, op2 in items if (l2, op2) == (str(l), op))
        # one q0 in each of the n strata of (0, 1]
        assert [int(q0 * n - 1e-12) for q0 in q0s] == list(range(n))
    assert len(items) == sum(n for _, _, n in workloads.Spectra.KINDS)


class FakeSlice:
    def __init__(self, coeffs):
        self._coeffs = coeffs

    def coeffs(self):
        return self._coeffs


def test_curvature_names_the_entry_that_differs():
    curv = workloads.Curvature.__new__(workloads.Curvature)
    good = {(0, 0, 0, 0): "1 + s^2", (0, 0, 0, 1): "r*d"}
    curv.golden = {"0,1,2": workloads.entry_digests(good)}
    curv.four_tensor = lambda k, p, t: FakeSlice(good)
    assert curv.run((0, 1, 2)) == []
    curv.four_tensor = lambda k, p, t: FakeSlice(
        {(0, 0, 0, 0): "1 + s^2", (0, 0, 0, 1): "r*c"})
    [problem] = curv.run((0, 1, 2))
    assert problem.startswith("block (0,1) slice 2 entry 0,0,0,1:")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_calls():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        tr.call("forms.dee", leaf, (2.0,), {})
        clock.now += 0.5
        tr.call("forms.dee", leaf, (3.0,), {})

    def top():
        clock.now += 4.0
        tr.call("algebra.star", middle, (), {})
        tr.call("forms.dee", leaf, (0.25,), {})

    tr.call("calculus.sigma", top, (), {})
    assert tr.calls["calculus.sigma"] == 1
    assert tr.calls["algebra.star"] == 1
    assert tr.calls["forms.dee"] == 3
    assert tr.self_s["forms.dee"] == pytest.approx(5.25)
    assert tr.self_s["algebra.star"] == pytest.approx(1.5)
    assert tr.self_s["calculus.sigma"] == pytest.approx(4.0)
    # self times add up to the root span's duration
    assert sum(tr.self_s.values()) == pytest.approx(clock.now)


def test_self_time_when_a_span_raises():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def bad():
        clock.now += 1.0
        raise ArithmeticError("boom")

    def outer():
        clock.now += 2.0
        with pytest.raises(ArithmeticError):
            tr.call("forms.ip", bad, (), {})

    tr.call("tensors.ip", outer, (), {})
    assert tr.calls["forms.ip"] == 1
    assert tr.self_s["forms.ip"] == pytest.approx(1.0)
    assert tr.self_s["tensors.ip"] == pytest.approx(2.0)


def sampler_with(samples):
    sampler = speed.Sampler()
    sampler.samples = samples
    return sampler


def test_adjusted_time_at_reference_speed_is_wall_less_probes():
    ref = speed.REF_PROBE_S
    sampler = sampler_with([(t / 10, ref) for t in range(100)])
    assert sampler.speed() == pytest.approx(1.0)
    # samples at 1.0, 1.1, ..., 3.0 fall inside [1, 3]
    assert sampler.adjust(1.0, 3.0) == pytest.approx(2.0 - 21 * ref)


def test_adjusted_time_follows_the_speed_near_the_interval():
    ref = speed.REF_PROBE_S
    # twice as slow up to t = 10, at the reference speed after
    sampler = sampler_with([(t / 10, 2 * ref if t < 100 else ref)
                            for t in range(200)])
    assert sampler.adjust(2.0, 4.0) == pytest.approx(
        (2.0 - 21 * 2 * ref) / 2)
    assert sampler.adjust(15.0, 17.0) == pytest.approx(2.0 - 21 * ref)
    # an interval with no sample near it takes the mean over the pass
    assert sampler.adjust(50.0, 51.0) == pytest.approx(0.75)


def test_sampler_samples_while_running_and_stops():
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    taken = len(sampler.samples)
    assert taken >= 2
    time.sleep(2 * speed.SAMPLE_EVERY_S)
    assert len(sampler.samples) == taken
    assert sampler.speed() > 0


class Flaky:
    """A workload whose second item raises and whose third is wrong."""

    def run(self, item):
        if item == 2:
            raise ArithmeticError("forced failure")
        if item == 3:
            return ["forced wrong result"]
        return []


@pytest.mark.parametrize("errors_expected", (False, True))
def test_failed_ops_are_counted_and_the_run_goes_on(errors_expected):
    ops = worker.run_cycle(Flaky(), [1, 2, 3, 4])
    assert [op["item"] for op in ops] == [1, 2, 3, 4]
    assert "forced failure" in ops[1]["error"]
    summary = run.summarise_ops(ops, errors_expected)
    assert summary["attempted"] == 4
    assert summary["failed"] == 2
    assert summary["correct"] is False
    assert [f["item"] for f in summary["failures"]] == [2, 3]


@pytest.mark.parametrize("name", sorted(workloads.CLASSES))
def test_library_error_is_wrong_only_where_not_expected(name):
    summary = run.summarise_ops(worker.run_cycle(Flaky(), [1, 2]),
                                workloads.CLASSES[name].ERRORS_EXPECTED)
    assert summary["failed"] == 1
    # spectra has known numerical failures; curvature and connection none
    assert summary["correct"] is (name == "spectra")


def test_install_rebinds_and_restore_undoes():
    import qsphere.calculus as calculus
    import qsphere.coeff as coeff
    import qsphere.forms as forms
    import qsphere.levicivita as levicivita
    from qsphere.algebra import SPHERE_A

    dee, mul = forms.dee, coeff.Scalar.__mul__
    tr = tracing.Tracer()
    tr.install()
    try:
        assert calculus.dee is levicivita.dee is forms.dee
        assert forms.dee is not dee and forms.dee.__wrapped__ is dee
        forms.dee(SPHERE_A)
        assert tr.calls["forms.dee"] == 1
        assert tr.calls["algebra.del"] == 2
        assert tr.calls["coeff.mul"] > 0
        assert hash(coeff.q_pow(1)) == hash(coeff.q_pow(1))
    finally:
        tr.restore()
    assert forms.dee is calculus.dee is levicivita.dee is dee
    assert coeff.Scalar.__mul__ is mul


def test_benchmark_file_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == tracing.metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.CLASSES)
