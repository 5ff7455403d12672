"""Seeded random values for identity sweeps and property tests.

Everything takes an explicit random.Random so that a command line seed
reproduces byte-identical sweeps.  All generated series are exact
(infinite precision): the identities under test are exact statements and
their checks should only lose precision through documented inversions.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import InadmissibleError, PrecisionError
from .ffield import FFElement, FieldParams
from .funcspace import MultiFunction
from .opring import D, TAU, NormalForm, OperatorWord, delta, scalar_factor
from .series import PerfSeries


def random_exponent(rng: random.Random, params: FieldParams,
                    lo: int = -2, hi: int = 4, frac_depth: int = 1) -> Fraction:
    k = rng.randint(0, frac_depth)
    num = rng.randint(lo * params.q ** k, hi * params.q ** k)
    return Fraction(num, params.q ** k)


def random_series(rng: random.Random, params: FieldParams, terms=(1, 3),
                  lo: int = -2, hi: int = 4, frac_depth: int = 1,
                  allow_zero: bool = False) -> PerfSeries:
    count = rng.randint(*terms)
    items = {}
    for _ in range(count):
        e = random_exponent(rng, params, lo, hi, frac_depth)
        idx = rng.randrange(0 if allow_zero else 1, params.Q)
        items[e] = FFElement(params, idx)
    s = PerfSeries.from_terms(params, items)
    if s.is_zero() and not allow_zero:
        return PerfSeries.one(params)
    return s


def random_nonconstant(rng, params, **kw) -> PerfSeries:
    """A series with at least one term away from exponent 0 (never a fixed
    point of any nontrivial q-power twist)."""
    while True:
        s = random_series(rng, params, **kw)
        if any(e != 0 for e in s.exponents()):
            return s


def random_admissible(rng: random.Random, params: FieldParams,
                      **kw) -> PerfSeries:
    """An exact series distinct from every bracket value."""
    from .hyper import admissible_profile
    while True:
        s = random_series(rng, params, **kw)
        try:
            admissible_profile(s)
            return s
        except (InadmissibleError, PrecisionError):
            continue


def random_multifunction(rng: random.Random, params: FieldParams, n: int,
                         trunc_m: int, trunc_i: int, density: float = 0.4,
                         coeff_terms=(1, 2)) -> MultiFunction:
    coeffs = {}
    for ivec in itertools.product(range(trunc_i + 1), repeat=n):
        for m in range(min(*ivec, trunc_m) + 1):
            if rng.random() < density:
                coeffs[(m,) + ivec] = random_series(
                    rng, params, terms=coeff_terms, lo=0, hi=3, frac_depth=1)
    return MultiFunction(params, n, trunc_m, trunc_i, coeffs)


def random_operator_word(rng: random.Random, params: FieldParams, n: int,
                         max_len: int = 8, scalar_prob: float = 0.25
                         ) -> OperatorWord:
    length = rng.randint(0, max_len)
    factors = []
    for _ in range(length):
        if rng.random() < scalar_prob:
            factors.append(scalar_factor(
                random_series(rng, params, terms=(1, 2), lo=0, hi=3)))
        else:
            kind = rng.randrange(2 + n)
            if kind == 0:
                factors.append(TAU)
            elif kind == 1:
                factors.append(D)
            else:
                factors.append(delta(kind - 1))
    return OperatorWord(n, factors)


def random_normal_form(rng: random.Random, params: FieldParams, n: int,
                       max_terms: int = 4, max_index: int = 3,
                       force_linear: bool = False) -> NormalForm:
    """A normal form with random keys; with force_linear every key has
    matching tau and d exponents."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        l = rng.randint(0, max_index)
        mu = l if force_linear else rng.randint(0, max_index)
        ivec = tuple(rng.randint(0, max_index) for _ in range(n))
        terms[(l, mu) + ivec] = random_series(rng, params, terms=(1, 2),
                                              lo=0, hi=3)
    return NormalForm(params, n, "standard", terms)
