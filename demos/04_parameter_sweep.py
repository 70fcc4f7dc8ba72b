#!/usr/bin/env python3
"""Sweeping the surgery parameter space.

For fixed directions the torsion order mu varies with the two meridian
coefficients p and q; the sweep below tabulates it on a small grid and
shows which cells give homology S^1 x S^3 manifolds (mu = 1).  With both
directions (1, 0) the table follows the closed form |p + q + p*q|, so
the multiplicity-zero column and row contribute homology-Hopf examples.
"""

from hopfglue import SweepSpec, summarize, sweep

spec = SweepSpec.tuples(
    a=(1, 1), b=(0, 0), p=(0, 4),
    c=(1, 1), d=(0, 0), q=(0, 4),
)
records = sweep(spec)

# mu table, p down, q across
qs = range(5)
print("mu for directions (1,0), (1,0):")
print("      " + "".join(f"q={q:<5}" for q in qs))
by_pq = {(r.params[2], r.params[5]): r for r in records}
for p in range(5):
    row = "".join(f"{by_pq[(p, q)].mu:<7}" for q in qs)
    print(f"p={p}   {row}")
print()

hopf = [r.params for r in records if r.homology_hopf]
print("homology S^1 x S^3 cells (p, q):", [(p, q) for _, _, p, _, _, q in hopf])
print()

s = summarize(records)
print(f"total {s.total}, homology Hopf {s.homology_hopf_count}")
print("histogram by mu:", s.mu_histogram())
print()

# ---------------------------------------------------------------------------
# A matrix-mode sweep over seeded random gluings: deterministic, so two
# runs of the same spec give identical records.
# ---------------------------------------------------------------------------
mspec = SweepSpec.matrices(sample_count=200, seed=1)
first = sweep(mspec)
assert first == sweep(mspec)
print(f"matrix sweep: {summarize(first).homology_hopf_count} of 200 random gluings are homology Hopf")
