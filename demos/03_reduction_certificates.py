#!/usr/bin/env python3
"""Certified reduction of gluing matrices to normal form.

Left or right multiplication by a matrix whose boundary map extends over
T^2 x D^2 never changes the glued manifold.  For any determinant +1
gluing with coprime meridian pair (g, h), a short chain of such moves
brings the matrix to the shape

    [[a, c, 1],
     [b, d, 0],
     [0, 0, 1]]      with a*d - b*c = 1,

and one more right move lands on the fixed standard gluing N0.  The chain
is returned as a certificate that anyone can re-check: every factor must
pass the extendability test and the product must reproduce the output
exactly.
"""

import math

from hopfglue import (
    GluingMatrix,
    LogTransformParams,
    ReductionCertificate,
    compose_two_fiber,
    is_extendable,
    normalize_to_sl3,
    random_sl3,
    reduce_to_normal_form,
    reduce_to_standard,
    verify_certificate,
)
from hopfglue.linalg import IntMatrix

# ---------------------------------------------------------------------------
# A worked example.
# ---------------------------------------------------------------------------
m = GluingMatrix(IntMatrix([[1, 0, 2], [0, 1, 1], [0, 0, 1]]))
nf, cert = reduce_to_normal_form(m)
print("input:          ", cert.input.to_lists())
print("left factors:   ", [f.to_lists() for f in cert.left_factors])
print("right factors:  ", [f.to_lists() for f in cert.right_factors])
print("output:         ", cert.output.to_lists())
print("framing block:  ", nf.block.to_lists())
print("verifies:       ", verify_certificate(cert))
print()

# Continue to the standard gluing.
standard = reduce_to_standard(m)
print("standard output:", standard.output.to_lists())
print("extra right factor:", [f.to_lists() for f in standard.right_factors])
print()

# ---------------------------------------------------------------------------
# The gluing of S^1 x S^3 itself reduces to N0 after fixing orientation.
# ---------------------------------------------------------------------------
trivial = LogTransformParams(0, 0, 1)
cert = reduce_to_standard(normalize_to_sl3(compose_two_fiber(trivial, trivial)))
print("normalized product gluing reduces to:", cert.output.to_lists())
print()

# ---------------------------------------------------------------------------
# Certificates are falsifiable: corrupt one entry and verification fails.
# ---------------------------------------------------------------------------
_, cert = reduce_to_normal_form(m)
bad = cert.left_factors[0].to_lists()
bad[2][2] = 2  # an extendable factor must fix the meridian exactly
tampered = ReductionCertificate(
    input=cert.input,
    left_factors=(IntMatrix(bad),),
    right_factors=cert.right_factors,
    output=cert.output,
)
print("tampered factor extendable:", is_extendable(IntMatrix(bad)))
print("tampered certificate verifies:", verify_certificate(tampered))
print()

# ---------------------------------------------------------------------------
# Bulk check over random gluings with coprime (g, h).
# ---------------------------------------------------------------------------
count = 0
seed = 0
while count < 50:
    m = GluingMatrix(random_sl3(seed, 12))
    seed += 1
    if math.gcd(m.g, m.h) != 1:
        continue
    count += 1
    assert verify_certificate(reduce_to_standard(m))
print(f"{count} random gluings reduced and verified")
