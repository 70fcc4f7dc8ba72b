import hashlib
import itertools
import math
import random
import sys

import pytest

from hopfglue.abelian import FgAbelianGroup, Presentation, group_from_presentation
from hopfglue.gluing import (
    GluingMatrix,
    LogTransformParams,
    NormalForm,
    NotHomologyHopfError,
    OrientationError,
    ReductionCertificate,
    calibrated_zeta_variant,
    certificate_failure,
    compose_two_fiber,
    is_extendable,
    is_homology_hopf,
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
    NotPrimitiveError,
    ShapeError,
    UnimodularMatrix,
    complete_primitive_to_sl3,
    determinant,
    inverse_unimodular,
    random_sl3,
    smith_normal_form,
)
from hopfglue.selftest import _random_primitive_triple

from oracles import ZETA, product_reduce_to_normal_form, product_reduce_to_standard
from test_acceptance import _criterion_pairs


def _random_primitive(rng, bound=12):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(3))
        if math.gcd(math.gcd(v[0], v[1]), v[2]) == 1:
            return v


# --- the fixed gluing of S^1 x S^3 ---------------------------------------


def test_zeta_columns_and_determinant():
    z = ZETA
    assert z.matrix.col(0) == (1, 0, 0)
    assert z.matrix.col(1) == (0, 1, 0)
    assert z.matrix.col(2) == (1, 0, -1)
    assert z.det == -1
    assert determinant(z.matrix) == -1


def test_zeta_is_an_involution():
    z = ZETA.matrix
    assert z @ z == IntMatrix.identity(3)


# --- extendability ----------------------------------------------------------


def test_extendable_pinned_cases():
    assert is_extendable(IntMatrix.identity(3))
    assert is_extendable(IntMatrix([[1, 0, 0], [0, 1, 0], [5, 7, 1]]))
    assert not is_extendable(IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
    # right shape of third column but determinant -1
    assert not is_extendable(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    # meridian reversal is rejected even with zero upper entries
    assert not is_extendable(IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]]))
    assert not is_extendable(IntMatrix([[1, 0], [0, 1]]))


def _random_extendable(rng):
    r, t, s, u = 1, 0, 0, 1
    for _ in range(5):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            r, t = r + k * s, t + k * u
        else:
            s, u = s + k * r, u + k * t
    return IntMatrix(
        [[r, t, 0], [s, u, 0], [rng.randint(-9, 9), rng.randint(-9, 9), 1]]
    )


def test_extendable_closed_under_product_and_inverse():
    rng = random.Random(47)
    for _ in range(300):
        x = _random_extendable(rng)
        y = _random_extendable(rng)
        assert is_extendable(x)
        assert is_extendable(x @ y)
        assert is_extendable(inverse_unimodular(UnimodularMatrix(x)).m)


# --- orientation normalization ------------------------------------------------


def test_normalize_identity_fixed():
    i3 = GluingMatrix(IntMatrix.identity(3))
    assert normalize_to_sl3(i3) == i3


def test_normalize_zeta():
    z = normalize_to_sl3(ZETA)
    assert z.matrix == IntMatrix([[1, 0, -1], [0, 1, 0], [0, 0, 1]])
    assert z.det == 1


def test_normalize_preserves_meridian_gcd():
    for seed in range(300):
        m = GluingMatrix(random_sl3(seed, 10))
        if seed % 2:
            m = GluingMatrix(m.matrix @ IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
        n = normalize_to_sl3(m)
        assert n.det == 1
        assert math.gcd(n.g, n.h) == math.gcd(m.g, m.h)


def test_meridian_gcd_robust_under_sign_flips():
    flip = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    for seed in range(200):
        m = GluingMatrix(random_sl3(seed, 10))
        base = math.gcd(m.g, m.h)
        assert math.gcd(*GluingMatrix(flip @ m.matrix).matrix.col(2)[:2]) == base
        assert math.gcd(*GluingMatrix(m.matrix @ flip).matrix.col(2)[:2]) == base


# --- fundamental group of a single gluing ----------------------------------


def test_pi1_single_pinned_cases():
    assert pi1_single_gluing(ZETA) == FgAbelianGroup(1, ())
    rank2 = GluingMatrix(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert (rank2.g, rank2.h) == (0, 0)
    assert pi1_single_gluing(rank2) == FgAbelianGroup(2, ())
    m = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 4], [0, 0, 1]]))
    assert pi1_single_gluing(m) == FgAbelianGroup(1, (2,))


def test_pi1_single_matches_presentation_route():
    # both meridians die: relations (0,0,1) and the image column (g,h,k)
    for seed in range(300):
        m = GluingMatrix(random_sl3(seed, 12))
        pres = Presentation(3, [(0, 0, 1), (m.g, m.h, m.k)])
        assert pi1_single_gluing(m) == group_from_presentation(pres)


def test_is_homology_hopf():
    assert is_homology_hopf(ZETA)
    assert not is_homology_hopf(GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 4], [0, 0, 1]])))
    assert is_homology_hopf(GluingMatrix(IntMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])))


# --- surgery parameters ---------------------------------------------------------


def test_params_canonical_completion():
    p = LogTransformParams(2, 3, 5)
    assert p.completion.det == 1
    assert p.completion.m.col(2) == (2, 3, 5)
    assert p.direction == (2, 3)
    assert p.multiplicity == 5
    assert LogTransformParams(1, 0, -2).multiplicity == 2


def test_params_validate_completion():
    with pytest.raises(ValueError):
        LogTransformParams(1, 0, 0, completion=IntMatrix.identity(3))
    with pytest.raises(NotPrimitiveError):
        LogTransformParams(2, 0, 2)


#: sha256 over random_completion(t, seed) for every primitive t of
#: [-2, 2]^3 and seeds 0-9, one repr per line: the seeded stream.
RANDOM_COMPLETION_DIGEST = "74eed7432774d0d666548a0f5aa47edce362905fc13f7164e697368c59fe816f"


def test_unchecked_completions_have_the_checked_properties():
    # Neither completion is re-checked when it is built, so check the
    # kept determinant, the shape and the third column here.
    digest = hashlib.sha256()
    for t in itertools.product(range(-2, 3), repeat=3):
        if math.gcd(*t) != 1:
            continue
        completions = [LogTransformParams(*t).completion]
        completions += [random_completion(t, seed) for seed in range(10)]
        for c in completions:
            assert c.det == determinant(c.m) == 1
            assert (c.m.rows, c.m.cols, c.m.col(2)) == (3, 3, t)
        for c in completions[1:]:
            digest.update((repr(c.m.to_lists()) + "\n").encode())
    assert digest.hexdigest() == RANDOM_COMPLETION_DIGEST


# Third column (0, 0, 1), as (a, b, p) = (0, 0, 1) asks, but determinant -1.
_SWAP = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


@pytest.mark.parametrize("completion", [_SWAP, UnimodularMatrix(_SWAP)],
                         ids=["lists", "unimodular"])
def test_params_reject_a_completion_of_determinant_minus_one(completion):
    with pytest.raises(OrientationError, match="^completion must have determinant \\+1$"):
        LogTransformParams(0, 0, 1, completion=completion)


@pytest.mark.parametrize("completion", [[[1, 0], [0, 1]], [[1]]])
def test_params_reject_a_completion_that_is_not_3x3(completion):
    # both are unimodular, so only the shape check stands before col(2)
    with pytest.raises(ShapeError, match="3x3"):
        LogTransformParams(1, 0, 0, completion=completion)


# --- composing two fiber surgeries ------------------------------------------------


def test_compose_identity_params_gives_zeta():
    trivial = LogTransformParams(0, 0, 1)
    assert compose_two_fiber(trivial, trivial) == ZETA


def test_compose_is_unimodular():
    rng = random.Random(53)
    for i in range(300):
        tp = _random_primitive(rng)
        tm = _random_primitive(rng)
        plus = LogTransformParams(*tp, completion=random_completion(tp, i))
        minus = LogTransformParams(*tm, completion=random_completion(tm, i + 7000))
        assert compose_two_fiber(plus, minus).det in (1, -1)


def test_compose_gcd_independent_of_completion():
    rng = random.Random(59)
    for case in range(30):
        tp = _random_primitive(rng)
        tm = _random_primitive(rng)
        values = set()
        for j in range(12):
            plus = LogTransformParams(*tp, completion=random_completion(tp, 100 * case + j))
            minus = LogTransformParams(*tm, completion=random_completion(tm, 555 + 100 * case + j))
            c = compose_two_fiber(plus, minus)
            values.add(math.gcd(c.g, c.h))
        assert len(values) == 1


# --- fundamental group from the two relations directly ------------------------------


def test_two_log_transforms_pinned_cases():
    assert pi1_two_log_transforms(0, 0, 1, 0, 0, 1) == FgAbelianGroup(1, ())
    assert pi1_two_log_transforms(1, 0, 1, 1, 0, 1) == FgAbelianGroup(1, (3,))
    assert pi1_two_log_transforms(1, 0, 0, 1, 0, 0) == FgAbelianGroup(2, ())


def test_two_log_transforms_rejects_non_primitive():
    with pytest.raises(NotPrimitiveError):
        pi1_two_log_transforms(2, 0, 2, 0, 0, 1)
    with pytest.raises(NotPrimitiveError):
        pi1_two_log_transforms(0, 0, 1, 2, 4, 6)


def _snf_two_log_group(a, b, p, c, d, q):
    return group_from_presentation(Presentation(3, ((a + p, b, -p), (c, d, q))))


def test_two_log_transforms_closed_form_matches_snf_on_small_box():
    box = range(-2, 3)
    triples = [
        t
        for t in itertools.product(box, repeat=3)
        if math.gcd(math.gcd(t[0], t[1]), t[2]) == 1
    ]
    assert len(triples) ** 2 == 9604
    ranks = set()
    for tp in triples:
        for tm in triples:
            group = pi1_two_log_transforms(*tp, *tm)
            assert group == _snf_two_log_group(*tp, *tm)
            ranks.add(group.rank)
    assert ranks == {1, 2}  # the box contains mu = 0 cells


def test_two_log_transforms_closed_form_matches_snf_on_criterion_pairs():
    for tp, tm in _criterion_pairs():
        assert pi1_two_log_transforms(*tp, *tm) == _snf_two_log_group(*tp, *tm)


def test_unimodularity_forces_first_invariant_factor_one():
    rng = random.Random(61)
    for _ in range(500):
        a, b, p = _random_primitive(rng)
        c, d, q = _random_primitive(rng)
        rel = IntMatrix([(a + p, b, -p), (c, d, q)])
        assert smith_normal_form(rel).diagonal()[0] == 1


def test_cross_invariant_agreement():
    rng = random.Random(67)
    for i in range(400):
        tp = _random_primitive(rng)
        tm = _random_primitive(rng)
        plus = LogTransformParams(*tp, completion=random_completion(tp, 3 * i))
        minus = LogTransformParams(*tm, completion=random_completion(tm, 3 * i + 1))
        direct = pi1_two_log_transforms(*tp, *tm)
        via = pi1_single_gluing(compose_two_fiber(plus, minus))
        assert direct == via


# --- sign-convention calibration -----------------------------------------------------


_FLIP = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])

_VARIANT_FLAGS = {
    "zeta": (False, False),
    "zeta-left-flip": (True, False),
    "zeta-right-flip": (False, True),
    "zeta-both-flip": (True, True),
}


def _variant_matrix(name):
    left, right = _VARIANT_FLAGS[name]
    z = ZETA.matrix
    if left:
        z = _FLIP @ z
    if right:
        z = z @ _FLIP
    return z


def _agreement_cases():
    # Fixed cases that discriminate between the sign variants, then a
    # deterministic random batch.
    cases = [((1, 0, 1), (1, 0, 1)), ((0, 0, 1), (0, 0, 1)), ((1, 0, 0), (1, 0, 0))]
    rng = random.Random(0xA1B2)
    while len(cases) < 40:
        cases.append(
            (_random_primitive_triple(rng, 9), _random_primitive_triple(rng, 9))
        )
    return cases


def _variant_agrees(name):
    z = _variant_matrix(name)
    for idx, (tp, tm) in enumerate(_agreement_cases()):
        direct = pi1_two_log_transforms(*tp, *tm)
        for c in range(2):
            plus = LogTransformParams(*tp, completion=random_completion(tp, 7 * idx + c))
            minus = LogTransformParams(*tm, completion=random_completion(tm, 11 * idx + c))
            left = inverse_unimodular(plus.completion).m
            composed = GluingMatrix(left @ z @ minus.completion.m)
            if direct != pi1_single_gluing(composed):
                return False
    return True


def test_calibration_selects_raw_zeta():
    assert calibrated_zeta_variant() == "zeta"
    assert _variant_matrix(calibrated_zeta_variant()) == ZETA.matrix


def test_flipped_variants_fail_the_agreement_suite():
    assert _variant_agrees("zeta")
    assert not _variant_agrees("zeta-left-flip")
    assert not _variant_agrees("zeta-right-flip")
    assert not _variant_agrees("zeta-both-flip")


# --- reduction to normal form ----------------------------------------------------------


def test_reduce_fixed_point():
    m = GluingMatrix(IntMatrix([[2, 1, 1], [1, 1, 0], [0, 0, 1]]))
    nf, cert = reduce_to_normal_form(m)
    assert cert.left_factors == ()
    assert cert.right_factors == ()
    assert cert.output == m.matrix
    assert nf.block == IntMatrix([[2, 1], [1, 1]])


def test_reduce_pinned_example():
    m = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 1], [0, 0, 1]]))
    nf, cert = reduce_to_normal_form(m)
    assert nf.block == IntMatrix([[0, 1], [-1, 2]])
    assert cert.left_factors == (IntMatrix([[0, 1, 0], [-1, 2, 0], [0, 0, 1]]),)
    assert cert.right_factors == ()
    assert verify_certificate(cert)


def _end_form_shape(m: IntMatrix) -> bool:
    return (
        m.col(2) == (1, 0, 1)
        and m[2, 0] == 0
        and m[2, 1] == 0
        and m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == 1
    )


def test_reduce_random_inputs():
    count = 0
    seed = 0
    while count < 300:
        m = GluingMatrix(random_sl3(seed, 12))
        seed += 1
        if math.gcd(m.g, m.h) != 1:
            continue
        count += 1
        nf, cert = reduce_to_normal_form(m)
        assert verify_certificate(cert)
        assert _end_form_shape(cert.output)
        assert determinant(nf.block) == 1
        # the reduction never changes the fundamental group (both are Z)
        assert pi1_single_gluing(m) == pi1_single_gluing(GluingMatrix(cert.output))
        for f in cert.left_factors + cert.right_factors:
            assert is_extendable(f)


def test_reduce_rejects_wrong_orientation():
    with pytest.raises(OrientationError):
        reduce_to_normal_form(ZETA)


def test_reduce_rejects_non_homology_hopf():
    m = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 4], [0, 0, 1]]))
    with pytest.raises(NotHomologyHopfError):
        reduce_to_normal_form(m)
    with pytest.raises(NotHomologyHopfError):
        reduce_to_standard(m)


# --- reduction to the standard gluing -------------------------------------------------


def test_standard_fixed_point():
    cert = reduce_to_standard(standard_gluing_matrix())
    assert cert.left_factors == () and cert.right_factors == ()
    assert cert.output == standard_gluing_matrix().matrix


def test_standard_pinned_example():
    cert = reduce_to_standard(GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 1], [0, 0, 1]])))
    assert verify_certificate(cert)
    assert cert.output == standard_gluing_matrix().matrix


def test_standard_from_normalized_zeta():
    cert = reduce_to_standard(normalize_to_sl3(ZETA))
    assert verify_certificate(cert)
    assert cert.output == standard_gluing_matrix().matrix


def test_standard_random_inputs():
    count = 0
    seed = 1000
    while count < 200:
        m = GluingMatrix(random_sl3(seed, 12))
        seed += 1
        if math.gcd(m.g, m.h) != 1:
            continue
        count += 1
        cert = reduce_to_standard(m)
        assert verify_certificate(cert)
        assert cert.output == standard_gluing_matrix().matrix


def _outcome(reduce, m):
    """reduce(m), or the type and message of the error it raises."""
    try:
        return reduce(m)
    except ValueError as exc:
        return type(exc), str(exc)


_MERIDIAN_FLIP = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


@pytest.mark.parametrize("word_length", [12, 48, 192])
def test_closed_form_reductions_match_the_product_oracle(word_length):
    hopf = 0
    for seed in range(300):
        m = random_sl3(seed, word_length).m
        # Flipping the meridian on the left gives determinant -1, which
        # normalize_to_sl3 repairs on the right: another det +1 gluing.
        flipped = GluingMatrix(_MERIDIAN_FLIP @ m)
        assert flipped.det == -1
        for gm in (GluingMatrix(m), flipped, normalize_to_sl3(flipped)):
            hopf += gm.det == 1 and is_homology_hopf(gm)
            assert (_outcome(reduce_to_normal_form, gm)
                    == _outcome(product_reduce_to_normal_form, gm))
            assert (_outcome(reduce_to_standard, gm)
                    == _outcome(product_reduce_to_standard, gm))
    assert hopf > 100


# --- certificate checking ---------------------------------------------------------------


def test_empty_certificate_verifies():
    m = random_sl3(3, 9).m
    assert verify_certificate(ReductionCertificate(input=m, output=m))
    other = random_sl3(4, 9).m
    assert not verify_certificate(ReductionCertificate(input=m, output=other))


def test_certificate_tamper_detection():
    m = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 1], [0, 0, 1]]))
    _, cert = reduce_to_normal_form(m)

    bad_factor = cert.left_factors[0].to_lists()
    bad_factor[2][2] = 2
    tampered = ReductionCertificate(
        input=cert.input,
        left_factors=(IntMatrix(bad_factor),),
        right_factors=cert.right_factors,
        output=cert.output,
    )
    assert not verify_certificate(tampered)
    assert "not extendable" in certificate_failure(tampered)

    bad_output = cert.output.to_lists()
    bad_output[0][0] += 1
    tampered = ReductionCertificate(
        input=cert.input,
        left_factors=cert.left_factors,
        right_factors=cert.right_factors,
        output=IntMatrix(bad_output),
    )
    assert not verify_certificate(tampered)
    assert certificate_failure(tampered) == "product identity fails"


def test_certificate_failure_reports_side_and_index():
    m = standard_gluing_matrix().matrix
    not_ext = IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    cert = ReductionCertificate(
        input=m,
        left_factors=(IntMatrix.identity(3), not_ext),
        right_factors=(),
        output=m,
    )
    assert certificate_failure(cert) == "left factor 1 is not extendable"


def test_verify_never_raises_on_malformed_data():
    cert = ReductionCertificate(
        input=IntMatrix([[1, 0], [0, 1]]),
        left_factors=(IntMatrix.identity(3),),
        output=IntMatrix.identity(3),
    )
    assert not verify_certificate(cert)


# --- framing block ------------------------------------------------------------------------


def test_normal_form_validates_block():
    with pytest.raises(ValueError):
        NormalForm(IntMatrix([[1, 0], [0, -1]]))
    with pytest.raises(ValueError):
        NormalForm(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_normal_form_matrix_embedding():
    nf = NormalForm(IntMatrix([[0, 1], [-1, 2]]))
    assert nf.matrix == IntMatrix([[0, 1, 1], [-1, 2, 0], [0, 0, 1]])


@pytest.mark.parametrize("a, b, p", [(1.0, 0, 1), (1, 0.0, 1), (0, 0, 1.0)])
def test_params_reject_non_int_entries(a, b, p):
    with pytest.raises(TypeError, match="a, b and p must be int, got float"):
        LogTransformParams(a, b, p)
    completion = complete_primitive_to_sl3((int(a), int(b), int(p)))
    with pytest.raises(TypeError, match="a, b and p must be int, got float"):
        LogTransformParams(a, b, p, completion=completion)


@pytest.mark.parametrize("a, b, p", [(True, 0, 1), (1, False, 1), (0, 0, True)])
def test_params_reject_bool_entries(a, b, p):
    with pytest.raises(TypeError, match="a, b and p must be int, got bool"):
        LogTransformParams(a, b, p)
    completion = complete_primitive_to_sl3((int(a), int(b), int(p)))
    with pytest.raises(TypeError, match="a, b and p must be int, got bool"):
        LogTransformParams(a, b, p, completion=completion)


@pytest.mark.parametrize("kind, bad", [("float", 1.0), ("bool", True)])
@pytest.mark.parametrize("position", range(6), ids="abpcdq")
def test_pi1_two_log_transforms_rejects_non_int_entries(position, kind, bad):
    args = [1, 0, 1, 1, 0, 1]
    args[position] = bad
    with pytest.raises(TypeError, match=f"a, b, p, c, d and q must be int, got {kind}$"):
        pi1_two_log_transforms(*args)


@pytest.mark.parametrize("seed, kind", [(1.5, "float"), (True, "bool"), (1.0, "float")])
def test_random_completion_rejects_a_non_int_seed(seed, kind):
    with pytest.raises(TypeError, match=f"seed must be int, got {kind}$"):
        random_completion((1, 0, 2), seed)


@pytest.mark.parametrize("left, right, reason", [
    ((IntMatrix([[1, 0, 0], [0, 1, 0]]),), (), "left factor 0 is not 3x3"),
    (([[1, 0, 0], [0, 1], [0, 0, 1]],), (),
     "malformed certificate: left factor 0: all rows must have the same length"),
    ((), (IntMatrix.identity(3), [[1, 0, 0], [0, 1], [0, 0, 1]]),
     "malformed certificate: right factor 1: all rows must have the same length"),
    (([[1, 0, 0], [0, 1.0, 0], [0, 0, 1]],), (),
     "malformed certificate: left factor 0: entries must be int, got float"),
], ids=["not-3x3", "ragged-left", "ragged-right", "float-entry"])
def test_certificate_failure_names_a_bad_factor(left, right, reason):
    m = IntMatrix.identity(3)
    cert = ReductionCertificate(input=m, left_factors=left, right_factors=right, output=m)
    assert certificate_failure(cert) == reason
    assert not verify_certificate(cert)


_RAGGED = [[1, 0, 0], [0, 1], [0, 0, 1]]


@pytest.mark.parametrize("input, output, reason", [
    (_RAGGED, IntMatrix.identity(3),
     "malformed certificate: input: all rows must have the same length"),
    (IntMatrix.identity(3), _RAGGED,
     "malformed certificate: output: all rows must have the same length"),
    (None, IntMatrix.identity(3),
     "malformed certificate: input: 'NoneType' object is not iterable"),
    (IntMatrix.identity(3), None,
     "malformed certificate: output: 'NoneType' object is not iterable"),
    (IntMatrix.identity(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1.0]],
     "malformed certificate: output: entries must be int, got float"),
    ([], IntMatrix.identity(3),
     "malformed certificate: input: matrix needs at least one row and one column"),
    ([[1, 0], [0, 1]], None, "input is not 3x3"),
], ids=["ragged-input", "ragged-output", "none-input", "none-output",
        "float-output", "empty-input", "input-shape-first"])
def test_certificate_failure_names_a_malformed_input_or_output(input, output, reason):
    cert = ReductionCertificate(input=input, left_factors=(IntMatrix.identity(3),),
                                output=output)
    assert certificate_failure(cert) == reason
    assert not verify_certificate(cert)


# Entries of 1,500 digits: a determinant of 4,501 digits, over the
# interpreter's int/str conversion limit where one is set (4,300 by default).
_BIG = 10**1500
_HUGE_DET = IntMatrix([[_BIG, 1, 0], [0, _BIG, 1], [1, 0, _BIG]])


@pytest.mark.parametrize("input, reason", [
    (IntMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "input is not a gluing: determinant is 2, expected +1 or -1"),
    (IntMatrix.zeros(3, 3), "input is not a gluing: determinant is 0, expected +1 or -1"),
    (_HUGE_DET, "input is not a gluing: determinant is "),
], ids=["diag-2-1-1", "zeros", "huge-determinant"])
def test_certificate_failure_rejects_an_input_that_is_not_a_gluing(input, reason):
    # The identity holds with no factors, so only the input can fail.
    cert = ReductionCertificate(input, (), (), input)
    assert certificate_failure(cert).startswith(reason)
    assert not verify_certificate(cert)
    if input is _HUGE_DET:
        det = determinant(input)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        size = (f"an integer of {det.bit_length()} bits" if 0 < limit < 4501
                else str(det))
        assert certificate_failure(cert) == f"{reason}{size}, expected +1 or -1"


@pytest.mark.parametrize("wrap", [GluingMatrix, UnimodularMatrix])
def test_extendability_and_certificates_read_wrapped_matrices(wrap):
    assert is_extendable(wrap(IntMatrix([[1, 0, 0], [0, 1, 0], [5, 7, 1]])))
    assert not is_extendable(wrap(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])))
    cert = reduce_to_standard(normalize_to_sl3(GluingMatrix(random_sl3(5, 12))))
    assert cert.left_factors and cert.right_factors
    wrapped = ReductionCertificate(wrap(cert.input),
                                   [wrap(f) for f in cert.left_factors],
                                   [wrap(f) for f in cert.right_factors],
                                   wrap(cert.output))
    assert certificate_failure(wrapped) is None
    swap = wrap(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    tampered = ReductionCertificate(cert.input, cert.left_factors, (swap,), cert.output)
    assert certificate_failure(tampered) == "right factor 0 is not extendable"


def test_certificate_failure_checks_factors_before_the_input():
    cert = ReductionCertificate(IntMatrix.zeros(3, 3), (IntMatrix.zeros(3, 3),),
                                (), IntMatrix.zeros(3, 3))
    assert certificate_failure(cert) == "left factor 0 is not extendable"


def test_gluing_matrix_value_semantics():
    z = ZETA
    assert z == GluingMatrix(z.matrix.to_lists())
    assert z.__eq__(z.matrix) is NotImplemented and z != z.matrix
    assert hash(z) == hash(GluingMatrix(z.m)) and hash(z) != hash(z.matrix)
    assert repr(z) == "GluingMatrix([[1, 0, 1], [0, 1, 0], [0, 0, -1]])"


def test_gluing_matrix_wraps_a_gluing_and_rejects_other_sizes():
    z = ZETA
    assert GluingMatrix(z) == z
    with pytest.raises(ValueError, match="gluing matrices are 3x3"):
        GluingMatrix(UnimodularMatrix([[0, 1], [-1, 0]]))


def test_params_repr():
    assert repr(LogTransformParams(2, 3, 5)) == "LogTransformParams(2, 3, 5)"


def test_normal_form_from_nested_lists():
    nf = NormalForm([[0, 1], [-1, 2]])
    assert nf == NormalForm(IntMatrix([[0, 1], [-1, 2]]))
    assert isinstance(nf.block, IntMatrix)
