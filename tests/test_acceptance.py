"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from rank1check.core import BinaryTensor, DirectSum, Shape
from rank1check.harness import (
    DEFAULT_SWEEP_CONFIG,
    GeneratorSpec,
    estimate_rejection,
    generate,
    parse_sweep_config,
    run_sweep,
    sweep_csv,
)
from rank1check.agreement import (
    DPShape,
    corrupt_entries,
    default_intersection_size,
    dp_plurality_decode,
    exact_alpha_rejection,
    exact_fixed_t_rejection,
    random_direct_product,
)
from rank1check.oracles import (
    biased_character_probability,
    biased_character_probability_enumerated,
    exact_blr_rejection,
    exact_rejection,
    nearest_affine,
    nearest_direct_sum,
)
from rank1check.spectral import build_skeleton, quotient_spectrum, verify_spectrum
from rank1check.testers import CONJECTURED, SHAPKA, SIC_CUBE, SIC_SUBSETS
from rank1check.harness import rng_for


def _report(num, name, ok, started, detail=""):
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    suffix = f" {detail}" if detail else ""
    print(f"[criterion {num:02d}] {status} {name} ({elapsed:.1f}s){suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _all_tensors(shape):
    for idx in range(1 << shape.size):
        yield BinaryTensor(shape, [(idx >> i) & 1 for i in range(shape.size)])


def test_criterion_01_completeness_exact():
    started = time.time()
    shapes = [(2, 2), (2, 2, 2), (3, 2, 2), (3, 3, 3)]
    kinds = (SIC_SUBSETS, SIC_CUBE, SHAPKA, CONJECTURED)
    ok = True
    checked = 0
    for dims in shapes:
        shape = Shape(dims)
        for ds in DirectSum.enumerate_all(shape):
            f = ds.materialize()
            for kind in kinds:
                if exact_rejection(f, kind).rejecting != 0:
                    ok = False
                checked += 1
    _report(1, "completeness is exact on every direct sum", ok, started,
            f"[{checked} (tensor, test) pairs]")


def test_criterion_02_shapka_rejection_bounds_distance():
    started = time.time()
    ok = True
    for dims in [(2, 2), (2, 2, 2)]:
        shape = Shape(dims)
        for f in _all_tensors(shape):
            eps = exact_rejection(f, SHAPKA).value
            dist = nearest_direct_sum(f).distance
            if eps < dist:
                ok = False
    _report(2, "exhaustive rejection >= distance for the hybrid-parity test",
            ok, started, "[272 tensors]")


def test_criterion_03_sic_rigidity_and_positive_ratio():
    started = time.time()
    ok = True
    min_ratio = None
    for dims in [(2, 2), (2, 2, 2)]:
        shape = Shape(dims)
        for f in _all_tensors(shape):
            eps = exact_rejection(f, SIC_SUBSETS).value
            dist = nearest_direct_sum(f).distance
            if (eps == 0) != (dist == 0):
                ok = False
            if dist > 0:
                ratio = eps / dist
                if min_ratio is None or ratio < min_ratio:
                    min_ratio = ratio
    ok = ok and min_ratio is not None and min_ratio > 0
    _report(3, "four-query rejection vanishes only on direct sums", ok,
            started, f"[min eps/dist = {min_ratio}]")


def test_criterion_04_formulation_equivalence():
    started = time.time()
    shape = Shape((2, 2, 2))
    ok = True
    for f in _all_tensors(shape):
        r1 = exact_rejection(f, SIC_SUBSETS)
        r2 = exact_rejection(f, SIC_CUBE)
        if r1.value != r2.value:
            ok = False
    _report(4, "subset and cube formulations reject identically", ok,
            started, "[256 tensors, exact rationals]")


def _blr_holds_for_dim(dim):
    count = 1 << (1 << dim)
    tables = ((np.arange(count, dtype=np.int64)[:, None]
               >> np.arange(1 << dim)) & 1).astype(np.uint8)
    for row in tables:
        eps = exact_blr_rejection(row).value
        dist = nearest_affine(row).distance
        if dist > eps:
            return False
    return True


def test_criterion_05_blr_distance_bounded_by_rejection():
    started = time.time()
    ok = all(_blr_holds_for_dim(dim) for dim in (2, 3, 4))
    _report(5, "affinity-test rejection bounds affine distance", ok, started,
            "[all functions on 2, 3, and 4 coordinates: 16 + 256 + 65536]")


def test_criterion_06_biased_character_closed_form():
    started = time.time()
    ok = True
    for s in range(7):
        closed = biased_character_probability(s)
        if closed != (1 + Fraction(-1, 3) ** s) / 2:
            ok = False
        if closed != biased_character_probability_enumerated(s):
            ok = False
        if closed != biased_character_probability_enumerated(s, dim=6):
            ok = False
        if (closed > Fraction(2, 3)) != (s == 0):
            ok = False
    _report(6, "biased character probability matches weighted enumeration",
            ok, started, "[s <= 6]")


def test_criterion_07_skeleton_spectrum():
    started = time.time()
    ok = True
    checked = 0
    for d in range(2, 6):
        expected_nonzero = sorted(float(v) for v in quotient_spectrum(d))
        for parts in itertools.product((1, 2, 3), repeat=d):
            rep = verify_spectrum(build_skeleton(parts))
            n = sum(parts)
            if (rep.count_top, rep.count_zero, rep.count_negative) != (1, n - d, d - 1):
                ok = False
            if rep.max_residual > 1e-9:
                ok = False
            if not rep.is_one_sided(1e-9):
                ok = False
            nonzero = sorted(v for v in rep.eigenvalues if abs(v) > 1e-9)
            if len(nonzero) != d or any(
                abs(a - b) > 1e-9 for a, b in zip(nonzero, expected_nonzero)
            ):
                ok = False
            checked += 1
    _report(7, "multipartite skeleton spectrum matches the lemma", ok,
            started, f"[{checked} part vectors, tolerance 1e-9]")


def test_criterion_08_direct_product_tests_and_decoding():
    started = time.time()
    ok = True
    grid = [
        DPShape((2,), 2), DPShape((3,), 3), DPShape((2, 3), 2),
        DPShape((3, 3), 3), DPShape((1, 2, 3), 2), DPShape((3, 3, 3), 3),
        DPShape((2, 1, 3, 2), 2), DPShape((3, 3, 3, 3), 3),
    ]
    for i, dsh in enumerate(grid):
        for seed in range(3):
            g = random_direct_product(dsh, rng_for(100 * i + seed))
            if exact_alpha_rejection(g, Fraction(3, 4)).rejecting != 0:
                ok = False
            t = default_intersection_size(dsh.k)
            if exact_fixed_t_rejection(g, t).rejecting != 0:
                ok = False
            decode = dp_plurality_decode(g)
            if decode.product() != g or decode.agreement != 1:
                ok = False
    # Single-entry corruption at size-3 coordinates decodes to the original.
    for dsh in (DPShape((3, 3), 2), DPShape((3, 3, 3, 3), 3)):
        rng = rng_for(17)
        g = random_direct_product(dsh, rng)
        cell = (int(rng.integers(0, dsh.domain_size)), int(rng.integers(0, dsh.k)))
        bad = corrupt_entries(g, [cell], rng)
        if dp_plurality_decode(bad).product() != g:
            ok = False
    _report(8, "direct products pass exactly and decode exactly", ok, started,
            "[k <= 4, sizes <= 3, alphabet <= 3]")


def test_criterion_09_wilson_calibration():
    started = time.time()
    shape = Shape((2, 2, 2))
    tensors = [
        generate(GeneratorSpec("corrupted-direct-sum", shape, seed,
                               flips=seed % 5))
        for seed in range(20)
    ]
    covered = 0
    runs = 0
    for f in tensors:
        exact = float(exact_rejection(f, SHAPKA).value)
        for seed in range(100):
            est = estimate_rejection(f, SHAPKA, 100000, seed)
            runs += 1
            if est.lo <= exact <= est.hi:
                covered += 1
    coverage = covered / runs
    ok = coverage >= 0.90
    _report(9, "Wilson intervals cover oracle values", ok, started,
            f"[coverage {coverage:.3f} over {runs} runs of 1e5 trials]")


def test_criterion_10_sweep_determinism():
    started = time.time()
    config = parse_sweep_config(DEFAULT_SWEEP_CONFIG)
    rows1, _ = run_sweep(config, master_seed=2026)
    rows2, _ = run_sweep(config, master_seed=2026)
    ok = sweep_csv(rows1).encode() == sweep_csv(rows2).encode()
    _report(10, "identical master seeds produce byte-identical CSV", ok,
            started, f"[{len(rows1)} rows]")
