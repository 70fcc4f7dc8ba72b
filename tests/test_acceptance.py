"""Acceptance suite: one test per release criterion, all exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (prints are captured otherwise).
"""

import json
import math
import random
import time

from hopfglue.cli import CSV_HEADER, main
from hopfglue.gluing import (
    GluingMatrix,
    LogTransformParams,
    compose_two_fiber,
    normalize_to_sl3,
    pi1_single_gluing,
    pi1_two_log_transforms,
    random_completion,
    reduce_to_normal_form,
    reduce_to_standard,
    standard_gluing_matrix,
    verify_certificate,
)
from hopfglue.linalg import (
    IntMatrix,
    determinant,
    gcd_of_k_minors,
    random_sl3,
    smith_normal_form,
)

from oracles import ZETA, leibniz_det, matrix_from_index, naive_product


def report(number: int, message: str):
    print(f"ACCEPTANCE {number} PASS: {message}")


# --- criterion 1: Smith normal form correctness ----------------------------


def _snf_case(rows):
    a = IntMatrix(rows)
    res = smith_normal_form(a)
    assert (res.u.m @ a) @ res.v.m == res.d
    diag = res.diagonal()
    prod = 1
    for k, entry in enumerate(diag, start=1):
        assert entry >= 0
        if k > 1:
            assert entry == 0 if diag[k - 2] == 0 else entry % diag[k - 2] == 0
        prod *= entry
        assert prod == gcd_of_k_minors(a, k)


def test_criterion_1_snf_correctness():
    start = time.monotonic()
    cases = 0
    # systematic deterministic samples of the exhaustive {-2..2} families
    for shape, stride in (((2, 2), 1), ((2, 3), 2), ((3, 3), 150)):
        m, n = shape
        for index in range(0, 5 ** (m * n), stride):
            _snf_case(matrix_from_index(index, shape, -2, 2))
            cases += 1
    assert cases >= 20_000
    rng = random.Random(2024)
    for _ in range(1000):
        shape = rng.choice(((2, 2), (2, 3), (3, 3)))
        rows = [[rng.randint(-50, 50) for _ in range(shape[1])] for _ in range(shape[0])]
        _snf_case(rows)
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(1, f"SNF exact on {cases} cases (product, chain, minor gcds) in {elapsed:.1f}s")


# --- criteria 2 and 3: the two fundamental-group routes ---------------------


def _criterion_pairs():
    rng = random.Random(777)
    pairs = []
    while len(pairs) < 1000:
        tp = tuple(rng.randint(-20, 20) for _ in range(3))
        tm = tuple(rng.randint(-20, 20) for _ in range(3))
        if math.gcd(math.gcd(tp[0], tp[1]), tp[2]) != 1:
            continue
        if math.gcd(math.gcd(tm[0], tm[1]), tm[2]) != 1:
            continue
        pairs.append((tp, tm))
    return pairs


def test_criterion_2_pi1_consistency():
    start = time.monotonic()
    for i, (tp, tm) in enumerate(_criterion_pairs()):
        direct = pi1_two_log_transforms(*tp, *tm)
        for j in range(3):
            plus = LogTransformParams(*tp, completion=random_completion(tp, 13 * i + j))
            minus = LogTransformParams(*tm, completion=random_completion(tm, 17 * i + j))
            via = pi1_single_gluing(compose_two_fiber(plus, minus))
            assert direct == via
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(2, f"both fundamental-group routes agree on 1000 pairs x 3 completions in {elapsed:.1f}s")


def test_criterion_3_unimodularity_forcing():
    for tp, tm in _criterion_pairs():
        a, b, p = tp
        c, d, q = tm
        rel = IntMatrix([(a + p, b, -p), (c, d, q)])
        assert smith_normal_form(rel).diagonal()[0] == 1
    report(3, "first invariant factor of the relation matrix is 1 in all 1000 cases")


# --- criterion 4: constructive reduction ------------------------------------


def _end_form_shape(m: IntMatrix) -> bool:
    return (
        m.col(2) == (1, 0, 1)
        and m[2, 0] == 0
        and m[2, 1] == 0
        and m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == 1
    )


def test_criterion_4_reduction_realization():
    start = time.monotonic()
    inputs = [normalize_to_sl3(ZETA)]
    seed = 0
    while len(inputs) < 1001:
        m = GluingMatrix(random_sl3(seed, 12))
        seed += 1
        if math.gcd(m.g, m.h) == 1:
            inputs.append(m)
    for m in inputs:
        nf, cert = reduce_to_normal_form(m)
        assert verify_certificate(cert)
        assert _end_form_shape(cert.output)
        assert determinant(nf.block) == 1
        standard = reduce_to_standard(m)
        assert verify_certificate(standard)
        assert standard.output == standard_gluing_matrix().matrix
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(4, f"certified reduction of {len(inputs)} gluings to normal and standard form in {elapsed:.1f}s")


# --- criterion 5: classification golden output --------------------------------


def _classify(capsys, arg):
    code = main(["classify", "--matrix", arg])
    out = capsys.readouterr().out
    return code, out


GOLDEN_ZETA = {
    "convention": "columns-are-images-alpha-beta-gamma",
    "det": -1,
    "g": 1,
    "gcd_gh": 1,
    "group": {"invariant_factors": [], "rank": 1},
    "h": 0,
    "homology_hopf": True,
    "matrix": [[1, 0, 1], [0, 1, 0], [0, 0, -1]],
    "zeta_variant": "zeta",
}

GOLDEN_241 = {
    "convention": "columns-are-images-alpha-beta-gamma",
    "det": 1,
    "g": 2,
    "gcd_gh": 2,
    "group": {"invariant_factors": [2], "rank": 1},
    "h": 4,
    "homology_hopf": False,
    "matrix": [[1, 0, 2], [0, 1, 4], [0, 0, 1]],
    "zeta_variant": "zeta",
}


def test_criterion_5_classification_goldens(capsys):
    code, out = _classify(capsys, "1,0,1,0,1,0,0,0,-1")
    assert code == 0
    assert out == json.dumps(GOLDEN_ZETA, indent=2, sort_keys=True) + "\n"

    code, out = _classify(capsys, "1,0,2,0,1,4,0,0,1")
    assert code == 0
    assert out == json.dumps(GOLDEN_241, indent=2, sort_keys=True) + "\n"
    report(5, "classify output matches the golden JSON byte for byte")


# --- criterion 6: multiplicity-zero coverage and sweep determinism --------------


SWEEP_ARGS = [
    "sweep",
    "--direction-plus", "1,0",
    "--direction-minus", "1,0",
    "--p-range", "0:2",
    "--q-range", "0:2",
    "--format", "csv",
]


def test_criterion_6_multiplicity_zero_sweep(capsys):
    def run_csv(extra=()):
        assert main(SWEEP_ARGS + list(extra)) == 0
        return capsys.readouterr().out

    first = run_csv()
    second = run_csv()
    parallel = run_csv(["--parallel"])
    assert first == second == parallel

    lines = first.rstrip("\n").split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    hopf_with_zero_multiplicity = 0
    for line in lines[1:]:
        a, b, p, c, d, q, mu, hh, rank, factors = line.split(",")
        p, q, mu = int(p), int(q), int(mu)
        assert mu == abs(p + q + p * q)
        assert (hh == "true") == (mu == 1)
        if hh == "true" and (p == 0 or q == 0):
            hopf_with_zero_multiplicity += 1
    assert hopf_with_zero_multiplicity == 2  # (p,q) = (0,1) and (1,0)
    report(6, "9-cell sweep matches |p+q+pq|, covers multiplicity zero, byte-identical runs")


# --- criterion 7: certificate tamper detection -----------------------------------


def _oracle_extendable(rows) -> bool:
    return (
        rows[0][2] == 0
        and rows[1][2] == 0
        and rows[2][2] == 1
        and leibniz_det(rows) == 1
    )


def _oracle_valid(cert) -> bool:
    for f in cert.left_factors + cert.right_factors:
        if not _oracle_extendable(f.to_lists()):
            return False
    prod = cert.input.to_lists()
    for f in reversed(cert.left_factors):
        prod = naive_product(f.to_lists(), prod)
    for f in cert.right_factors:
        prod = naive_product(prod, f.to_lists())
    return prod == cert.output.to_lists()


def _mutate(cert, rng):
    from hopfglue.gluing import ReductionCertificate

    n_targets = len(cert.left_factors) + len(cert.right_factors) + 1
    target = rng.randrange(n_targets)
    i, j = rng.randrange(3), rng.randrange(3)
    delta = rng.choice((-2, -1, 1, 2))
    left = list(cert.left_factors)
    right = list(cert.right_factors)
    output = cert.output
    if target < len(left):
        rows = left[target].to_lists()
        rows[i][j] += delta
        left[target] = IntMatrix(rows)
    elif target < len(left) + len(right):
        rows = right[target - len(left)].to_lists()
        rows[i][j] += delta
        right[target - len(left)] = IntMatrix(rows)
    else:
        rows = output.to_lists()
        rows[i][j] += delta
        output = IntMatrix(rows)
    return ReductionCertificate(
        input=cert.input, left_factors=tuple(left),
        right_factors=tuple(right), output=output,
    )


def _check_tamper_detection(word_length):
    rng = random.Random(4242)
    certs = []
    seed = 5000
    while len(certs) < 100:
        m = GluingMatrix(random_sl3(seed, word_length))
        seed += 1
        if math.gcd(m.g, m.h) != 1:
            continue
        certs.append(
            reduce_to_standard(m) if len(certs) % 2 else reduce_to_normal_form(m)[1]
        )

    broken = intact = 0
    for cert in certs:
        assert verify_certificate(cert) and _oracle_valid(cert)
        if not (cert.left_factors or cert.right_factors):
            continue  # nothing to mutate besides the output
        for _ in range(3):
            mutated = _mutate(cert, rng)
            actually_valid = _oracle_valid(mutated)
            assert verify_certificate(mutated) == actually_valid
            if actually_valid:
                intact += 1  # mutation restored validity by coincidence
            else:
                broken += 1
    assert broken > 0
    report(7, f"verification rejected all {broken} genuinely broken mutations"
              f" ({intact} coincidentally valid) at word length {word_length}")


def test_criterion_7_tamper_detection():
    _check_tamper_detection(12)


def test_criterion_7_tamper_detection_long_words():
    # Length-192 words, as in matrix-certify, give certificates with
    # multi-digit entries.
    _check_tamper_detection(192)
