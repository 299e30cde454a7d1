"""The three seeded workloads: their inputs, timed operations and oracles.

Each workload draws every input from ``random.Random(seed)`` in blocks that
fix the properties cost depends on (the degree of P, the operation kind,
the command mix), so runs with different seeds differ in values but not in
shape.  ``run`` is the timed call; ``check`` compares its answer with an
oracle outside the timed call and returns the failures as (leg, reason)
pairs.  No input is ever dropped or redrawn.

A leg that reports, the documented way, that its numeric limit did not
settle (a ``ConvergenceReport`` with ``converged`` false, a
``NotRegularError`` or ``NotConvergedError`` carrying such a report, the
cli's exit code 2) is declined: the program answered correctly that it cannot sum the series
within its budget.  Declined legs lower ``answered_share`` but do not fail
the op; an op fails only when a leg raised anything else or gave a wrong
value.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import paths
import regsum as rs

RAISED = "raised"
NOT_CONVERGED = "not_converged"
WRONG = "wrong_value"

ALT = rs.series_alt()
ALTLOG = rs.series_alt_log()
GEOM = rs.series_geometric(-1)
EXACT = rs.SummationMethod("exact")
CESARO_AUTO = rs.SummationMethod("cesaro", order="auto")
TOL = rs.summation.DEFAULT_TOL


def random_poly(rng: random.Random, degree: int) -> rs.Polynomial:
    """A polynomial of exactly the given degree with small rational coefficients."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return rs.Polynomial(coeffs + [lead])


def random_x(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_h(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8) or 3, rng.randint(1, 4))


def rescaled(p: rs.Polynomial, h: Fraction, x: Fraction) -> rs.Polynomial:
    """Scale P so the alternating reduction of (P, h, x) has parts of order one.

    The numeric engines' error is absolute and grows with the instance, so a
    fixed tolerance only means something at a fixed scale; by linearity the
    rescaled instance is as random as the drawn one.
    """
    deg = len(p.coeffs) - 1
    _, rem = rs.op_shift(h, order=deg + 4).remainder()
    magnitude = Fraction(0)
    current = p
    for k in range(deg + 1):
        magnitude += abs(current(x)) / 2 ** (k + 1)
        current = rem.apply(current)
    return p * Fraction(1, 1 + magnitude.numerator // magnitude.denominator)


def op_failed(failures: list[tuple[str, str]]) -> bool:
    """An op fails when any leg raised or was wrong; declined legs do not count."""
    return any(reason != NOT_CONVERGED for _, reason in failures)


def _raised_reason(exc: Exception) -> str:
    """NOT_CONVERGED for the engines' own not-settled errors, else RAISED."""
    declined = (rs.NotRegularError, rs.NotConvergedError)
    if isinstance(exc, declined) and isinstance(exc.report, rs.ConvergenceReport) \
            and not exc.report.converged:
        return NOT_CONVERGED
    return RAISED


def _leg(fn):
    """Run one leg of an operation; an exception becomes its recorded answer."""
    try:
        return fn()
    except Exception as exc:  # every leg's failure is counted, none aborts the op
        return exc


class Workload:
    """Interface shared by the workloads; ``in_process`` ones are traced in place."""

    name = ""
    in_process = True
    # Answers one op asks for; ``answered_share`` is taken over these.
    legs_per_op = 1
    # Ops per block; a run ends on a block boundary, so every run sees the
    # block's full mix of degrees or commands.
    block_size = 1
    # Highest percentile with at least ten samples beyond it at the baseline
    # op count of one run; fixed per workload so runs stay comparable.
    tail_percentile = 90.0

    def ops(self) -> Iterator[object]:
        raise NotImplementedError

    def run(self, op) -> object:
        raise NotImplementedError

    def check(self, op, answer) -> list[tuple[str, str]]:
        raise NotImplementedError

    def properties(self, ops: list) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# exact: closed-form queries on series alt


EXACT_MAX_DEGREE = 40
POOL_ORDER = 44
SHIFT_STEPS = {"shift:1": Fraction(1), "shift:-3/2": Fraction(-3, 2)}


@dataclass(frozen=True)
class ExactOp:
    kind: str  # "reg_sum" or "reg_operator"
    operator: str
    poly: rs.Polynomial
    x: Fraction

    @property
    def degree(self) -> int:
        return len(self.poly.coeffs) - 1


class ExactWorkload(Workload):
    """Exact-route queries: 3/4 ``reg_sum``, 1/4 ``reg_operator(...).apply``.

    Every block of 41 ops has each degree 0..40 once, in random order; the
    kind and the operator follow the op index, so each (series, T, degree)
    key recurs across blocks.
    """

    name = "exact"
    block_size = EXACT_MAX_DEGREE + 1
    tail_percentile = 95.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        symbol = [Fraction(1)] + [Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 6))
                                  for _ in range(POOL_ORDER)]
        self.pool = {
            "shift:1": rs.op_shift(1, POOL_ORDER),
            "shift:-3/2": rs.op_shift(Fraction(-3, 2), POOL_ORDER),
            "delta:1/2": rs.op_delta(Fraction(1, 2), POOL_ORDER),
            "diff": rs.op_diff(POOL_ORDER),
            "symbol": rs.OperatorSpec(rs.PowerSeries(symbol), "symbol"),
        }

    def ops(self) -> Iterator[ExactOp]:
        labels = list(self.pool)
        i = 0
        while True:
            degrees = list(range(EXACT_MAX_DEGREE + 1))
            self.rng.shuffle(degrees)
            for degree in degrees:
                kind = "reg_operator" if i % 4 == 3 else "reg_sum"
                yield ExactOp(kind, labels[i % len(labels)],
                              random_poly(self.rng, degree), random_x(self.rng))
                i += 1

    def run(self, op: ExactOp):
        T = self.pool[op.operator]
        if op.kind == "reg_sum":
            return rs.reg_sum(ALT, T, op.poly, op.x, EXACT)[0]
        return rs.reg_operator(ALT, T, EXACT, op.degree).apply(op.poly)

    def check(self, op: ExactOp, answer) -> list[tuple[str, str]]:
        # reg_operator gives S with S + T S = P; reg_sum is checked against
        # the Euler-number closed form for shifts and otherwise against the
        # same functional equation at x: S(P)(x) + S(TP)(x) = P(x).
        T = self.pool[op.operator]
        if op.kind == "reg_operator":
            ok = isinstance(answer, rs.Polynomial) and answer + T.apply(answer) == op.poly
        elif not isinstance(answer, Fraction):
            ok = False
        elif op.operator in SHIFT_STEPS:
            ok = answer == rs.euler_alt_sum(op.poly, SHIFT_STEPS[op.operator], op.x)
        else:
            image, _ = rs.reg_sum(ALT, T, T.apply(op.poly), op.x, EXACT)
            ok = answer + image == op.poly(op.x)
        return [] if ok else [(op.kind, WRONG)]

    def properties(self, ops: list[ExactOp]) -> dict:
        keys = Counter(("alt", op.operator, op.degree) for op in ops)
        return {
            "degree_histogram": _histogram(op.degree for op in ops),
            "kind_mix": dict(Counter(op.kind for op in ops)),
            "operator_mix": dict(Counter(op.operator for op in ops)),
            "repeated_key_share": 1 - len(keys) / len(ops) if ops else 0.0,
        }


# ---------------------------------------------------------------------------
# crosscheck: exact and numeric routes on one random instance


CROSS_MAX_DEGREE = 6
CROSS_ORDER = 12
CROSS_LEGS = ("exact", "euler", "cesaro", "abel", "geom", "altlog")


@dataclass(frozen=True)
class Instance:
    poly: rs.Polynomial
    h: Fraction
    x: Fraction

    @property
    def degree(self) -> int:
        return len(self.poly.coeffs) - 1


def _signed_terms(inst: Instance) -> rs.SeriesSpec:
    p, h, x = inst.poly, inst.h, inst.x

    def term(n: int) -> Fraction:
        value = p(x + n * h)
        return -value if n & 1 else value

    return rs.series_custom(term, "alt-direct")


class CrosscheckWorkload(Workload):
    """One op is one instance (P, h, x), deg P <= 6, through six legs:
    exact ``reg_sum``, the ``euler_alt_sum`` oracle, ``cesaro_auto`` and
    ``abel_limit`` on the direct terms, and ``reg_sum`` under cesaro:auto
    over ``geom:-1`` (numeric for every v_k) and over ``altlog`` (numeric
    v_0).  Every block of 7 instances has each degree 0..6 once.
    """

    name = "crosscheck"
    legs_per_op = len(CROSS_LEGS)
    block_size = CROSS_MAX_DEGREE + 1
    tail_percentile = 75.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def ops(self) -> Iterator[Instance]:
        while True:
            degrees = list(range(CROSS_MAX_DEGREE + 1))
            self.rng.shuffle(degrees)
            for degree in degrees:
                p = random_poly(self.rng, degree)
                h, x = random_h(self.rng), random_x(self.rng)
                yield Instance(rescaled(p, h, x), h, x)

    def run(self, inst: Instance) -> dict:
        p, h, x = inst.poly, inst.h, inst.x
        T = rs.op_shift(h, order=CROSS_ORDER)
        signed = _signed_terms(inst)
        return {
            "exact": _leg(lambda: rs.reg_sum(ALT, T, p, x, EXACT)[0]),
            "euler": _leg(lambda: rs.euler_alt_sum(p, h, x)),
            "cesaro": _leg(lambda: rs.cesaro_auto(signed)),
            "abel": _leg(lambda: rs.abel_limit(signed)),
            "geom": _leg(lambda: rs.reg_sum(GEOM, T, p, x, CESARO_AUTO)),
            "altlog": _leg(lambda: rs.reg_sum(ALTLOG, T, p, x, CESARO_AUTO)),
        }

    def check(self, inst: Instance, legs: dict) -> list[tuple[str, str]]:
        failures = [(leg, RAISED) for leg in ("exact", "euler")
                    if not isinstance(legs[leg], Fraction)]
        exact = legs["euler"] if isinstance(legs["euler"], Fraction) else legs["exact"]
        if not isinstance(exact, Fraction):
            return failures
        if isinstance(legs["exact"], Fraction) and legs["exact"] != exact:
            failures.append(("exact", WRONG))
        for leg in ("cesaro", "abel", "geom"):
            failures += _numeric_failures(leg, legs[leg], float(exact))
        # altlog has an irrational v_0, so its reference is the power-boundary
        # sum of its own direct terms a_n P(x + n h).
        p, h, x = inst.poly, inst.h, inst.x
        direct = rs.series_custom(lambda n: ALTLOG.term(n) * p(x + n * h), "altlog-direct")
        oracle = rs.abel_limit(direct)
        if not oracle.converged:
            return failures + [("altlog-oracle", NOT_CONVERGED)]
        return failures + _numeric_failures("altlog", legs["altlog"], oracle.value)

    def properties(self, ops: list[Instance]) -> dict:
        return {
            "degree_histogram": _histogram(op.degree for op in ops),
            "leg_mix": {leg: len(ops) for leg in CROSS_LEGS},
            "repeated_key_share": 1 - len({(op.h, op.degree) for op in ops}) / len(ops)
            if ops else 0.0,
        }


def _numeric_failures(leg: str, answer, target: float) -> list[tuple[str, str]]:
    """Failures of a numeric leg: an exception, a ConvergenceReport, or the
    (value, report) pair reg_sum returns."""
    if isinstance(answer, Exception):
        return [(leg, _raised_reason(answer))]
    value, report = answer if isinstance(answer, tuple) else (answer.value, answer)
    if not report.converged:
        return [(leg, NOT_CONVERGED)]
    if not abs(float(value) - target) <= TOL:
        return [(leg, WRONG)]
    return []


# ---------------------------------------------------------------------------
# cli: cold `python -m regsum` processes


CLI_BLOCK = ("sum-exact", "sum-exact", "sum-exact", "sum-altlog", "sum-table",
             "euler", "euler", "symbol", "cesaro", "abel")
# Summation literals with known values for the cesaro and abel commands.
KNOWN_SUMS = {"alt": 0.5, "altlog": math.log(2), "geom:-1/2": 2 / 3}
CLI_TERMS = 1000


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    params: tuple = ()


@dataclass
class Completed:
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REGSUM_TERMS"}
    env["PYTHONPATH"] = str(paths.SRC)
    return env


def run_child(cmd: list[str], err_path) -> Completed:
    """Run a child to completion; its peak RSS comes from wait4."""
    with open(err_path, "w+", encoding="utf-8") as err, \
            subprocess.Popen(cmd, cwd=paths.ROOT, env=_child_env(), stdout=subprocess.PIPE,
                             stderr=err, text=True) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Completed(proc.returncode, stdout, err.read(), usage.ru_maxrss / 1024)


def zigzag_signed(n_max: int) -> list[int]:
    """E_0..E_n of 1/cosh from the Seidel boustrophedon triangle, independent
    of the power-series inversion the program uses."""
    out, row = [1], [1]
    for _ in range(n_max):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        out.append(row[-1])
    return [0 if k % 2 else (-1) ** (k // 2) * a for k, a in enumerate(out)]


def symbol_oracle(literal: str, order: int) -> list[Fraction]:
    """Symbol coefficients of diff, shift:h and delta:h from their definitions."""
    if literal == "diff":
        return [Fraction(int(n == 1)) for n in range(order + 1)]
    h = Fraction(literal.split(":", 1)[1])
    coeffs = [h ** n / math.factorial(n) for n in range(order + 1)]
    if literal.startswith("delta:"):
        coeffs[0] = Fraction(0)
    return coeffs


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


class CliWorkload(Workload):
    """Cold ``python -m regsum`` processes, one at a time, 10 per block:
    three exact-route sums, two sums answered by the numeric fallback
    (altlog and a table file), two ``euler N``, one ``symbol`` and one
    small ``cesaro`` and ``abel`` run each."""

    name = "cli"
    in_process = False
    block_size = len(CLI_BLOCK)
    tail_percentile = 90.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        paths.OUT.mkdir(exist_ok=True)
        self.table_values = [Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 4))
                             for _ in range(6)]
        self.table_path = paths.OUT / f"table-{seed}.json"
        self.table_path.write_text(json.dumps([str(v) for v in self.table_values]))
        self.err_path = paths.OUT / f"cli-stderr-{seed}.txt"
        self.python = sys.executable

    def ops(self) -> Iterator[Command]:
        rng = self.rng
        i = 0
        while True:
            for kind in CLI_BLOCK:
                yield self._command(kind, rng, i)
                i += 1

    def _command(self, kind: str, rng: random.Random, i: int) -> Command:
        json_out = ("-o", "json")
        if kind.startswith("sum-"):
            max_deg = 8 if kind == "sum-exact" else 3
            p = random_poly(rng, rng.randint(0, max_deg))
            h, x = random_h(rng), random_x(rng)
            series = {"sum-exact": "alt", "sum-altlog": "altlog",
                      "sum-table": f"table:@{self.table_path.relative_to(paths.ROOT)}"}[kind]
            # "--flag=value" keeps negative values from reading as options.
            step = f"--op=shift:{h}" if i % 2 else f"--h={h}"
            argv = ("sum", f"--series={series}", step, f"--poly={rs.format_polynomial(p)}",
                    f"--x={x}", *json_out)
            return Command(kind, argv, (p, h, x))
        if kind == "euler":
            n = rng.randint(0, 40)
            return Command(kind, ("euler", str(n), *json_out), (n,))
        if kind == "symbol":
            literal = rng.choice((f"shift:{random_h(rng)}", f"delta:{random_h(rng)}", "diff"))
            order = rng.randint(8, 24)
            return Command(kind, ("symbol", literal, "--order", str(order), *json_out),
                           (literal, order))
        series = rng.choice(sorted(KNOWN_SUMS))
        if kind == "cesaro":
            return Command(kind, ("cesaro", "--series", series, "-N", str(CLI_TERMS),
                                  *json_out), (series,))
        return Command(kind, ("abel", "--series", series, *json_out), (series,))

    def run(self, cmd: Command) -> Completed:
        return run_child([self.python, "-m", "regsum", *cmd.argv], self.err_path)

    def check(self, cmd: Command, done: Completed) -> list[tuple[str, str]]:
        if done.returncode == 2:
            return [(cmd.kind, NOT_CONVERGED)]
        if done.returncode != 0:
            return [(cmd.kind, RAISED)]
        try:
            out = _strict_json(done.stdout)
            ok = self._value_ok(cmd, out)
        except (ValueError, KeyError, TypeError):
            ok = False
        return [] if ok else [(cmd.kind, WRONG)]

    def _value_ok(self, cmd: Command, out: dict) -> bool:
        if cmd.kind == "sum-exact":
            p, h, x = cmd.params
            return (out["method"] == "exact"
                    and Fraction(out["value_exact"]) == rs.euler_alt_sum(p, h, x))
        if cmd.kind.startswith("sum-"):
            return out["value_exact"] is None and math.isfinite(out["value_float"])
        if cmd.kind == "euler":
            return [int(v) for v in out["values"]] == zigzag_signed(cmd.params[0])
        if cmd.kind == "symbol":
            return [Fraction(c) for c in out["coefficients"]] == symbol_oracle(*cmd.params)
        return out["converged"] and abs(out["value"] - KNOWN_SUMS[cmd.params[0]]) <= TOL

    def fallback_share(self, cmds: list[Command], answers: list[Completed]) -> float:
        """Share of default-method sums answered by the numeric fallback."""
        methods = []
        for cmd, done in zip(cmds, answers):
            if cmd.kind.startswith("sum-") and isinstance(done, Completed) \
                    and done.returncode == 0:
                try:
                    methods.append(_strict_json(done.stdout)["method"])
                except (ValueError, KeyError):
                    continue
        return sum(m != "exact" for m in methods) / len(methods) if methods else 0.0

    def properties(self, cmds: list[Command]) -> dict:
        sums = [c for c in cmds if c.kind.startswith("sum-")]
        return {
            "command_mix": dict(Counter(c.kind for c in cmds)),
            "sum_degree_histogram": _histogram(len(c.params[0].coeffs) - 1 for c in sums),
            "table_file": str(self.table_path.relative_to(paths.ROOT)),
        }


def _histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


WORKLOADS = {w.name: w for w in (ExactWorkload, CrosscheckWorkload, CliWorkload)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
