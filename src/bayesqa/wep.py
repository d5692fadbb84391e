"""Words of estimative probability: phrase ↔ numeric anchor mapping.

A fixed 17-entry table pairs hedging phrases with anchor probabilities (each
with an informational spread that plays no role in selection). Mapping a
number to a phrase picks a phrase whose anchor is closest, with two twists
that make generated text less mechanical while staying decodable:

* with probability ``second_closest_prob`` (default 0.1) a phrase at the
  *second*-smallest distance is used instead;
* after selection, "about even" is substituted by "probably not" whenever the
  probability is below 0.45, since readers take "about even" to mean roughly
  50/50 (so e.g. 0.38 never reads as "about even").

Ties within a candidate set are broken uniformly at random in table order.
Exact 0 and 1 map to "impossible"/"certain" without consuming randomness, so
certainty never wobbles.

The two candidate sets are a step function of the probability: they change
only at the edges of the ``_TIE_EPS`` tie zone around a midpoint between two
anchors. The module finds those floats once, at import, and a selection looks
its sets up by bisection; they are the sets a scan of the whole table gives.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownWepPhrase


@dataclass(frozen=True)
class WepEntry:
    phrase: str
    anchor: float
    spread: float  # empirical ± from the source survey; informational only


@dataclass(frozen=True)
class WepSelection:
    phrase: str
    used_second_closest: bool


ANCHOR_TABLE: tuple[WepEntry, ...] = (
    WepEntry("certain", 1.00, 0.0),
    WepEntry("almost certain", 0.95, 0.109),
    WepEntry("highly likely", 0.90, 0.084),
    WepEntry("very good chance", 0.80, 0.108),
    WepEntry("likely", 0.70, 0.113),
    WepEntry("probably", 0.70, 0.129),
    WepEntry("probable", 0.70, 0.147),
    WepEntry("better than even", 0.60, 0.091),
    WepEntry("about even", 0.50, 0.049),
    WepEntry("probably not", 0.25, 0.144),
    WepEntry("unlikely", 0.20, 0.150),
    WepEntry("little chance", 0.10, 0.122),
    WepEntry("chances are slight", 0.10, 0.109),
    WepEntry("improbable", 0.10, 0.175),
    WepEntry("highly unlikely", 0.05, 0.173),
    WepEntry("almost no chance", 0.02, 0.170),
    WepEntry("impossible", 0.00, 0.0),
)

_ANCHORS = {entry.phrase: entry.anchor for entry in ANCHOR_TABLE}

ABOUT_EVEN_FLOOR = 0.45
_TIE_EPS = 1e-9


def wep_to_prob(phrase: str) -> float:
    """Anchor probability of a phrase (case-insensitive, whitespace-normalized)."""

    key = " ".join(phrase.lower().split())
    try:
        return _ANCHORS[key]
    except KeyError:
        raise UnknownWepPhrase(f"phrase {phrase!r} is not in the estimative-probability table") from None


def _scan_sets(p: float) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Phrases at the smallest and second-smallest anchor distance, by a scan
    of the table: the definition the breakpoint table is built from."""

    dists = [abs(p - entry.anchor) for entry in ANCHOR_TABLE]
    best = min(dists)
    primary = tuple(e.phrase for e, d in zip(ANCHOR_TABLE, dists) if d <= best + _TIE_EPS)
    beyond = [d for d in dists if d > best + _TIE_EPS]
    if not beyond:
        return primary, ()
    second = min(beyond)
    secondary = tuple(
        e.phrase for e, d in zip(ANCHOR_TABLE, dists) if best + _TIE_EPS < d <= second + _TIE_EPS
    )
    return primary, secondary


def _first_true(start: float, holds: Callable[[float], bool]) -> float:
    """The least float at which ``holds``, false below some point and true
    from it on, is true; searched one float at a time from ``start``."""

    p = start
    if holds(p):
        while holds(below := math.nextafter(p, -math.inf)):
            p = below
        return p
    while not holds(p):
        p = math.nextafter(p, math.inf)
    return p


def _breakpoint_table() -> tuple[tuple[float, ...], tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]]:
    """Every float at which the scan's sets change, and the sets from each on.

    Going up through the midpoint of anchors ``lo < hi``, ``hi`` first comes
    within ``_TIE_EPS`` of ``lo``'s distance, then ``lo`` falls more than
    ``_TIE_EPS`` behind ``hi``'s. Each is a monotone comparison of the scan's
    own float distances, so its first float lies a step or two from
    ``mid ∓ _TIE_EPS / 2``. Only anchors at most three apart in sorted order
    can meet among the two nearest groups (three apart when the two between
    them tie). Points where the scan's sets do not change are dropped.
    """

    anchors = sorted({entry.anchor for entry in ANCHOR_TABLE})
    points = set()
    for i, lo in enumerate(anchors):
        for hi in anchors[i + 1 : i + 4]:
            mid = (lo + hi) / 2
            points.add(_first_true(mid - _TIE_EPS / 2, lambda p: abs(p - hi) <= abs(p - lo) + _TIE_EPS))
            points.add(_first_true(mid + _TIE_EPS / 2, lambda p: abs(p - lo) > abs(p - hi) + _TIE_EPS))
    breaks: list[float] = []
    sets = [_scan_sets(0.0)]
    for point in sorted(points):
        here = _scan_sets(point)
        if here != sets[-1]:
            breaks.append(point)
            sets.append(here)
    return tuple(breaks), tuple(sets)


_BREAKS, _SETS = _breakpoint_table()


def _candidate_sets(p: float) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Phrases at the smallest and second-smallest anchor distance."""

    return _SETS[bisect_right(_BREAKS, p)]


def prob_to_wep(
    p: float,
    rng: np.random.Generator,
    *,
    second_closest_prob: float = 0.1,
) -> WepSelection:
    """Select a phrase for probability ``p``; see the module docstring.

    The about-even substitution happens *after* random selection, so it does
    not disturb the second-closest rate at other probabilities. Setting
    ``second_closest_prob=0`` disables the second-closest rule without
    consuming a draw.
    """

    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if not 0.0 <= second_closest_prob <= 1.0:
        raise ValueError(f"second_closest_prob {second_closest_prob!r} outside [0, 1]")
    if p == 0.0:
        return WepSelection("impossible", False)
    if p == 1.0:
        return WepSelection("certain", False)

    primary, secondary = _candidate_sets(p)
    used_second = bool(
        secondary and second_closest_prob > 0.0 and rng.random() < second_closest_prob
    )
    pool = secondary if used_second else primary
    phrase = pool[0] if len(pool) == 1 else pool[int(rng.integers(len(pool)))]
    return WepSelection(_about_even_rule(phrase, p), used_second)


def _about_even_rule(phrase: str, p: float) -> str:
    """``phrase``, except that "about even" reads "probably not" below
    :data:`ABOUT_EVEN_FLOOR`."""

    return "probably not" if phrase == "about even" and p < ABOUT_EVEN_FLOOR else phrase


@dataclass(frozen=True)
class VerbalizedDistribution:
    """Phrase rendering of one distribution.

    ``phrases`` lines up with the input states; it is None exactly when the
    distribution is uniform and the whole row should read "all equally
    likely". ``argmax_states`` names the most-probable state indices whenever
    the top probability's closest anchor sits at or below 0.25 — i.e. when
    every phrase in the row reads "low", the note says which state still
    dominates; it is None for a uniform row.
    """

    phrases: tuple[str, ...] | None
    argmax_states: tuple[int, ...] | None


def _primary_anchor(p: float) -> float:
    """Anchor the deterministic closest-phrase rule would assign to ``p``."""

    primary, _ = _candidate_sets(p)
    return max(_ANCHORS[_about_even_rule(phrase, p)] for phrase in primary)


def verbalize_distribution(
    probabilities: tuple[float, ...] | list[float],
    rng: np.random.Generator,
    *,
    second_closest_prob: float = 0.1,
) -> VerbalizedDistribution:
    """Render one CPT row as phrases, with the equal/argmax special cases."""

    probs = [float(p) for p in probabilities]
    if not probs:
        raise ValueError("distribution must be nonempty")
    if any(not 0.0 <= p <= 1.0 for p in probs):
        raise ValueError(f"distribution entries outside [0, 1]: {probs!r}")
    if max(probs) - min(probs) <= _TIE_EPS:
        return VerbalizedDistribution(phrases=None, argmax_states=None)

    phrases = tuple(
        prob_to_wep(p, rng, second_closest_prob=second_closest_prob).phrase for p in probs
    )
    top = max(probs)
    argmax = tuple(i for i, p in enumerate(probs) if p >= top - _TIE_EPS)
    note = argmax if _primary_anchor(top) <= 0.25 else None
    return VerbalizedDistribution(phrases=phrases, argmax_states=note)
