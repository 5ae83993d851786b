"""Local views: decode a near-direct-sum from one anchor's one-axis slices.

Anchored at a point a, the d slices through a define a direct sum whose
residual against f at any probe b equals the parity of the hybrid query
set of (a, b).  That identity is both a decoder and the soundness proof of
the (d+2)-query tester, and it holds for every tensor, exactly.
"""

from rank1check import (
    Shape,
    best_anchor_decode,
    distance,
    is_direct_sum,
    local_view_decode,
    materialize,
    nearest_direct_sum,
)
from rank1check.harness import GeneratorSpec, generate
from rank1check.testers import ShapkaRandomness, shapka_trial

shape = Shape((2, 2, 2))

# Corrupt a direct sum in two entries and decode it back.
f = generate(GeneratorSpec("corrupted-direct-sum", shape, seed=1, flips=2))
print("is the corrupted tensor a direct sum?", is_direct_sum(f))
print("true distance to the nearest direct sum:",
      nearest_direct_sum(f).distance)

# Decoding quality depends on the anchor; corrupted slices give bad views.
print("\nper-anchor reconstruction distances:")
for a in shape.points():
    ds = local_view_decode(f, a)
    print(" anchor", a, "->", distance(f, materialize(ds)))

anchor, ds, dist = best_anchor_decode(f)
print("best anchor", anchor, "reaches", dist)

# The residual identity, checked everywhere on this tensor: the decode's
# residual at b is the parity of the (a, b) query set.
mismatches = sum(
    (f.value(b) ^ local_view_decode(f, a).eval(b))
    != (not shapka_trial(f, ShapkaRandomness(a, b)).accepted)
    for a in shape.points() for b in shape.points()
)
print("\nresidual identity mismatches over all (a, b):", mismatches)

# Consequence: for each anchor, the decode distance equals the fraction of
# probes b whose query-set parity is 1, which is what the tester samples.
a = anchor
rejecting = sum(
    not shapka_trial(f, ShapkaRandomness(a, b)).accepted for b in shape.points()
)
print("rejecting probes from the best anchor:", rejecting, "/", shape.size,
      "= decode distance", dist)
