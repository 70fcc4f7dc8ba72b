#!/usr/bin/env python3
"""Fundamental groups of glued 4-manifolds, two ways.

A closed 4-manifold built from two copies of T^2 x D^2 is described by a
3x3 unimodular gluing matrix of the boundary 3-torus.  Its fundamental
group is abelian and can be read off in two very different ways:

1. from the matrix: both meridians die, leaving Z^2 modulo the image
   column (g, h) of the meridian, i.e. Z + Z/gcd(g, h);
2. from surgery data: a pair of direction/multiplicity triples gives two
   relation rows, and the group is the cokernel of that 2x3 matrix.

The two routes must agree for every choice of completion matrix; that
agreement is the package's central consistency check.
"""

from hopfglue import (
    LogTransformParams,
    Presentation,
    compose_two_fiber,
    group_from_presentation,
    is_homology_hopf,
    pi1_single_gluing,
    pi1_two_log_transforms,
    random_completion,
    torsion_order,
)

# ---------------------------------------------------------------------------
# The product S^1 x S^3 itself: its gluing matrix has meridian column
# (1, 0, -1), so the group is Z and it is (trivially) a homology S^1 x S^3.
# It is the composed gluing of two trivial surgeries.
# ---------------------------------------------------------------------------
trivial = LogTransformParams(0, 0, 1)
z = compose_two_fiber(trivial, trivial)
print("gluing of S^1 x S^3:", z.matrix.to_lists())
print("pi_1 =", pi1_single_gluing(z), " homology Hopf:", is_homology_hopf(z))
print()

# ---------------------------------------------------------------------------
# Groups from explicit presentations.
# ---------------------------------------------------------------------------
pres = Presentation(3, [(2, 0, -1), (1, 0, 1)])
print("cokernel of rows (2,0,-1), (1,0,1):", group_from_presentation(pres))
print()

# ---------------------------------------------------------------------------
# Surgery on two fibers.  The triple (a, b, p) is the direction (a, b) and
# the signed meridian coefficient p; |p| is the multiplicity.  Note the
# multiplicity-zero surgeries below still give homology S^1 x S^3 results,
# something that cannot happen for holomorphic deformations.
# ---------------------------------------------------------------------------
for plus, minus in (
    ((0, 0, 1), (0, 0, 1)),   # both surgeries trivial
    ((1, 0, 1), (1, 0, 1)),   # torsion appears
    ((1, 0, 0), (1, 0, 1)),   # multiplicity zero on one side
    ((1, 0, 0), (1, 0, 0)),   # multiplicity zero on both sides
):
    group = pi1_two_log_transforms(*plus, *minus)
    mu = 0 if group.rank == 2 else torsion_order(group)
    print(f"surgeries {plus} and {minus}: pi_1 = {group}   mu = {mu}")
print()

# ---------------------------------------------------------------------------
# The same groups through the composed gluing matrix.  The completion of a
# triple is not unique; the invariants do not care which one is used.
# ---------------------------------------------------------------------------
tp, tm = (1, 0, 1), (1, 0, 1)
direct = pi1_two_log_transforms(*tp, *tm)
for seed in range(3):
    plus = LogTransformParams(*tp, completion=random_completion(tp, seed))
    minus = LogTransformParams(*tm, completion=random_completion(tm, 100 + seed))
    composed = compose_two_fiber(plus, minus)
    print(
        f"completion seed {seed}: composed matrix {composed.matrix.to_lists()}"
        f" -> {pi1_single_gluing(composed)}"
    )
assert all(
    pi1_single_gluing(
        compose_two_fiber(
            LogTransformParams(*tp, completion=random_completion(tp, s)),
            LogTransformParams(*tm, completion=random_completion(tm, s + 999)),
        )
    )
    == direct
    for s in range(10)
)
print("all completions give", direct)
