"""Tests for the benchmark's own helpers.

    python3 -m pytest -q bench
"""

import dataclasses
import itertools
import json
from fractions import Fraction

import pytest

import run
import workloads
from tracer import Tracer, self_times
from regsum import Polynomial


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (999, 95), (1000, 99), (9999, 99.5), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        assert run.samples_beyond(n, expected) >= 10


def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 75) == 4.0
    assert run.percentile(values, 90) == pytest.approx(4.6)


def test_self_time_subtracts_direct_children():
    # a [0, 10] contains b [1, 4], which contains c [2, 3]; a also contains b [5, 6].
    names = ["a", "b", "c", "b"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    totals = self_times(names, parents, starts, ends)
    assert totals["a"] == (1, pytest.approx(6.0))
    assert totals["b"] == (2, pytest.approx(3.0))
    assert totals["c"] == (1, pytest.approx(1.0))


def test_tracer_folds_reentry_and_uninstalls():
    original = Polynomial.__add__
    tracer = Tracer()
    tracer.install()
    try:
        p, q = Polynomial([1, 2]), Polynomial([3])
        assert p - q == Polynomial([-2, 2])  # __sub__ calls __neg__ and __add__
        p(Fraction(1, 2))
    finally:
        tracer.uninstall()
    assert Polynomial.__add__ is original
    totals = tracer.layer_totals()
    assert totals["algebra.arith"][0] == 1
    assert totals["algebra.eval"][0] == 1
    assert all(end >= start for start, end in zip(tracer.start, tracer.end))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    def first(seed, count=30):
        return list(itertools.islice(workloads.make(name, seed).ops(), count))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_exact_workload_blocks_cover_every_degree():
    ops = list(itertools.islice(workloads.make("exact", 3).ops(), 41))
    assert sorted(op.degree for op in ops) == list(range(41))
    assert sum(op.kind == "reg_operator" for op in ops) == 10


def test_exact_oracle_flags_a_planted_wrong_answer():
    wl = workloads.make("exact", 5)
    ops = itertools.islice(wl.ops(), 10)
    seen = set()
    for op in ops:
        if op.degree > 12 or (op.kind, op.operator in workloads.SHIFT_STEPS) in seen:
            continue
        seen.add((op.kind, op.operator in workloads.SHIFT_STEPS))
        answer = wl.run(op)
        assert wl.check(op, answer) == []
        planted = answer + Polynomial([1]) if op.kind == "reg_operator" else answer + 1
        assert wl.check(op, planted) == [(op.kind, workloads.WRONG)]
    assert len(seen) >= 2


def test_crosscheck_oracle_flags_planted_wrong_legs():
    wl = workloads.make("crosscheck", 11)
    inst = next(op for op in wl.ops() if op.degree == 0)
    legs = wl.run(inst)
    assert wl.check(inst, legs) == []
    planted = dict(legs, exact=legs["exact"] + 1,
                   cesaro=dataclasses.replace(legs["cesaro"], value=legs["cesaro"].value + 1))
    assert sorted(wl.check(inst, planted)) == [("cesaro", workloads.WRONG),
                                               ("exact", workloads.WRONG)]
    raised = dict(legs, geom=workloads.rs.NotRegularError("no"))
    assert wl.check(inst, raised) == [("geom", workloads.RAISED)]
    assert workloads.op_failed(wl.check(inst, raised))


def test_crosscheck_declined_leg_does_not_fail_the_op():
    wl = workloads.make("crosscheck", 11)
    inst = next(op for op in wl.ops() if op.degree == 0)
    legs = wl.run(inst)
    unsettled = dataclasses.replace(legs["cesaro"], converged=False)
    declined = dict(legs, cesaro=unsettled,
                    geom=workloads.rs.NotRegularError("did not converge", unsettled))
    failures = wl.check(inst, declined)
    assert sorted(failures) == [("cesaro", workloads.NOT_CONVERGED),
                                ("geom", workloads.NOT_CONVERGED)]
    assert not workloads.op_failed(failures)
    records = [run.Record(inst, 0.1, None, failures), run.Record(inst, 0.1, None, [])]
    assert run.answered_share(wl, records) == 1 - 2 / 12


def test_cli_oracle_flags_bad_output():
    wl = workloads.make("cli", 13)
    cmd = next(c for c in wl.ops() if c.kind == "euler")
    good = {"values": [str(v) for v in workloads.zigzag_signed(cmd.params[0])]}
    assert wl.check(cmd, workloads.Completed(0, json.dumps(good), "", 1.0)) == []
    bad = {"values": good["values"][:-1] + ["1"]}
    assert wl.check(cmd, workloads.Completed(0, json.dumps(bad), "", 1.0)) == \
        [("euler", workloads.WRONG)]
    assert wl.check(cmd, workloads.Completed(0, '{"values": NaN}', "", 1.0)) == \
        [("euler", workloads.WRONG)]
    assert wl.check(cmd, workloads.Completed(2, "", "error", 1.0)) == \
        [("euler", workloads.NOT_CONVERGED)]


def test_zigzag_oracle_matches_known_values():
    assert workloads.zigzag_signed(8) == [1, 0, -1, 0, 5, 0, -61, 0, 1385]


def test_measure_counts_a_raising_op_as_failed():
    class Raising(workloads.Workload):
        name = "raising"

        def ops(self):
            return iter(range(3))

        def run(self, op):
            raise ValueError(op)

    records = run.measure(Raising(), Raising().ops(), seconds=60)
    assert [r.failures for r in records] == [[("raising", workloads.RAISED)]] * 3
