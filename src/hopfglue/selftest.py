"""Reduced-size invariant suites runnable from the command line.

Each suite re-checks one of the library's structural guarantees with a
deterministic seeded workload and yields one bool per case: nothing here
depends on the clock or any global state, so the output is identical on
every run.
"""

from __future__ import annotations

import math
import random
import sys

from .abelian import is_isomorphic
from .gluing import (
    GluingMatrix,
    LogTransformParams,
    compose_two_fiber,
    is_extendable,
    pi1_single_gluing,
    pi1_two_log_transforms,
    random_completion,
    reduce_to_normal_form,
    reduce_to_standard,
    standard_gluing_matrix,
    verify_certificate,
)
from .linalg import (
    IntMatrix,
    UnimodularMatrix,
    determinant,
    gcd_of_k_minors,
    inverse_unimodular,
    random_sl3,
    smith_normal_form,
)


def _random_primitive_triple(rng, bound: int) -> tuple:
    while True:
        t = (
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
        )
        if math.gcd(*t) == 1:
            return t


def _suite_snf_minor_gcd():
    rng = random.Random(101)
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        res = smith_normal_form(a)
        ok = (res.u.m @ a) @ res.v.m == res.d
        diag = res.diagonal()
        prod = 1
        for k, entry in enumerate(diag, start=1):
            if entry < 0:
                ok = False
            if k > 1 and not (entry == 0 or (diag[k - 2] != 0 and entry % diag[k - 2] == 0)):
                ok = False
            prod *= entry
            if prod != gcd_of_k_minors(a, k):
                ok = False
        yield ok


def _suite_cross_invariant_agreement():
    rng = random.Random(202)
    for i in range(120):
        tp = _random_primitive_triple(rng, 12)
        tm = _random_primitive_triple(rng, 12)
        plus = LogTransformParams(*tp, completion=random_completion(tp, 1000 + i))
        minus = LogTransformParams(*tm, completion=random_completion(tm, 2000 + i))
        direct = pi1_two_log_transforms(*tp, *tm)
        via = pi1_single_gluing(compose_two_fiber(plus, minus))
        yield is_isomorphic(direct, via)


def _suite_reduction_certificates():
    count = 0
    seed = 0
    while count < 100:
        m = GluingMatrix(random_sl3(seed, 12))
        seed += 1
        if math.gcd(m.g, m.h) != 1:
            continue
        count += 1
        nf, cert = reduce_to_normal_form(m)
        standard = reduce_to_standard(m)
        yield (
            verify_certificate(cert)
            and verify_certificate(standard)
            and standard.output == standard_gluing_matrix().matrix
            and determinant(nf.block) == 1
            and is_isomorphic(pi1_single_gluing(m),
                              pi1_single_gluing(GluingMatrix(cert.output)))
        )


def _suite_extendable_closure():
    rng = random.Random(404)

    def random_extendable():
        r, t, s, u = 1, 0, 0, 1
        for _ in range(4):
            k = rng.randint(-3, 3)
            if rng.random() < 0.5:
                r, t = r + k * s, t + k * u
            else:
                s, u = s + k * r, u + k * t
        return IntMatrix([[r, t, 0], [s, u, 0],
                          [rng.randint(-6, 6), rng.randint(-6, 6), 1]])

    for _ in range(100):
        x = random_extendable()
        y = random_extendable()
        yield (
            is_extendable(x)
            and is_extendable(y)
            and is_extendable(x @ y)
            and is_extendable(inverse_unimodular(UnimodularMatrix(x)).m)
        )


def _suite_completion_independence():
    rng = random.Random(505)
    for i in range(20):
        tp = _random_primitive_triple(rng, 10)
        tm = _random_primitive_triple(rng, 10)
        gcds = set()
        for j in range(10):
            plus = LogTransformParams(*tp, completion=random_completion(tp, 31 * i + j))
            minus = LogTransformParams(*tm, completion=random_completion(tm, 37 * i + j))
            c = compose_two_fiber(plus, minus)
            gcds.add(math.gcd(c.g, c.h))
        yield len(gcds) == 1


SUITES = (
    ("snf-minor-gcd", _suite_snf_minor_gcd),
    ("cross-invariant-agreement", _suite_cross_invariant_agreement),
    ("reduction-certificates", _suite_reduction_certificates),
    ("extendable-closure", _suite_extendable_closure),
    ("completion-independence", _suite_completion_independence),
)


def run_selftest(out=None) -> bool:
    """Run every suite, print per-suite counts, and report overall success."""
    out = out or sys.stdout
    all_ok = True
    for name, suite in SUITES:
        results = list(suite())
        failed = results.count(False)
        out.write(f"{name}: {len(results) - failed} passed, {failed} failed\n")
        all_ok = all_ok and not failed
    out.write("SELFTEST OK\n" if all_ok else "SELFTEST FAILED\n")
    return all_ok
