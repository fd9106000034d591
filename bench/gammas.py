"""Seeded draws of the family parameter gamma.

Every value is a nonzero Gaussian rational of small height, written in the
README grammar (`4`, `-1`, `1/2 + 3/2*i`, `-2/3*i`).  A fixed share of
each pool is the special values where the paper's case split happens:
gamma^2 = 4 (points collide) and gamma^2 = 16 (the line scheme has eight
components).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

SPECIAL = ("2", "-2", "4", "-4")
MAX_HEIGHT = 3     # numerators and denominators of each part at most this


def format_gamma(re: Fraction, im: Fraction) -> str:
    """README-grammar text of re + im*i; never emits `+-`."""
    if im == 0:
        return str(re)
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}*i"
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return f"{re} {'-' if im < 0 else '+'} {imag}"


_PARTS = sorted({Fraction(p, q) for p in range(-MAX_HEIGHT, MAX_HEIGHT + 1)
                 for q in range(1, MAX_HEIGHT + 1)})


def _generic(rng: random.Random) -> str:
    """A nonzero small-height gamma other than the special values.

    Half of the draws are real, as in most of the README's examples."""
    while True:
        re = rng.choice(_PARTS)
        im = rng.choice(_PARTS) if rng.random() < 0.5 else Fraction(0)
        text = format_gamma(re, im)
        if (re, im) != (0, 0) and text not in SPECIAL:
            return text


def draw_pool(seed: int, generic: int) -> List[str]:
    """The four special values and `generic` distinct generic ones, in a
    seeded order.

    Every pool holds each special value once, so every run of a workload
    meets gamma = -4 (a known failure of `lines-through --symbolic`) the
    same number of times, whatever the seed.
    """
    rng = random.Random(seed)
    pool = list(SPECIAL)
    while len(pool) < len(SPECIAL) + generic:
        x = _generic(rng)
        if x not in pool:
            pool.append(x)
    rng.shuffle(pool)
    return pool


def parse_parts(text: str) -> Tuple[Fraction, Fraction]:
    """Inverse of format_gamma, for the facts table (gamma^2 tests)."""
    t = text.replace(" ", "")
    if not t.endswith("i"):
        return Fraction(t), Fraction(0)
    body = t[:-1].rstrip("*")
    cut = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im_txt in ("", "+", "-"):
        im_txt += "1"
    return Fraction(re_txt), Fraction(im_txt)
