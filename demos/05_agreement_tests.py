"""Two-query agreement testing of tuple-valued functions, and the bridge.

A direct product sends x to (g1(x1), ..., gk(xk)).  The alpha test ties each
coordinate of a second query with probability alpha and checks agreement on
the tied set; the fixed-t variant conditions on an intersection of size t.
Plurality voting decodes near-products back to honest products.
"""

from fractions import Fraction

from rank1check import (
    DPShape,
    DirectSum,
    Shape,
    corrupt_entries,
    dp_plurality_decode,
    exact_alpha_rejection,
    exact_fixed_t_rejection,
    materialize,
    random_direct_product,
    rng_for,
    sic_to_dp_bridge,
)

dsh = DPShape((3, 3, 3, 3), 2)
rng = rng_for(0)

# Honest products pass both tests with exact probability 1 and decode back
# to themselves.
g = random_direct_product(dsh, rng)
print("alpha test rejection on a product:",
      exact_alpha_rejection(g, Fraction(3, 4)).value)
print("fixed-t (t=1) rejection on a product:",
      exact_fixed_t_rejection(g, 1).value)
print("plurality decode agreement:", dp_plurality_decode(g).agreement)

# Corruption sweep at table-cell rates 0, 1/16, 1/8: how fast does rejection
# grow, and how well does the plurality decoder hold on?  The last column is
# the measured decoding constant (1 - agreement) / rejection; only monotone
# facts are asserted anywhere in the test suite.
cells_total = dsh.domain_size * dsh.k
print("\nrate   cells  rejection(t=1)  decode agreement  (1-agree)/rejection")
for rate in (Fraction(0), Fraction(1, 16), Fraction(1, 8)):
    count = int(cells_total * rate)
    flat = rng.choice(cells_total, size=count, replace=False)
    bad = corrupt_entries(
        g, [(int(c) // dsh.k, int(c) % dsh.k) for c in flat], rng
    )
    rej = exact_fixed_t_rejection(bad, 1).value
    agree = dp_plurality_decode(bad).agreement
    const = "-" if rej == 0 else f"{float((1 - agree) / rej):.3f}"
    print(f"{str(rate):5s}  {count:5d}  {float(rej):14.5f}"
          f"  {float(agree):16.5f}  {const}")

# Bridge: fit an affine function on every cube spanned from an anchor; a
# direct sum turns into an exact direct product of axis indicators.
shape = Shape((2, 2, 2))
f = materialize(DirectSum.random(shape, rng))
F = sic_to_dp_bridge(f, (0, 0, 0))
print("\nbridge of a direct sum decodes with agreement",
      dp_plurality_decode(F).agreement)
