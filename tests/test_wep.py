"""Estimative-probability phrases: the anchor table and both mapping directions."""

from __future__ import annotations

import math

import numpy as np
import pytest

import netgen
from bayesqa import wep
from bayesqa.errors import UnknownWepPhrase
from bayesqa.wep import (
    ABOUT_EVEN_FLOOR,
    ANCHOR_TABLE,
    VerbalizedDistribution,
    WepSelection,
    prob_to_wep,
    verbalize_distribution,
    wep_to_prob,
    _candidate_sets,
    _TIE_EPS,
)


class TestTable:
    def test_shape(self):
        assert len(ANCHOR_TABLE) == 17
        phrases = [e.phrase for e in ANCHOR_TABLE]
        assert len(set(phrases)) == 17
        anchors = [e.anchor for e in ANCHOR_TABLE]
        assert anchors == sorted(anchors, reverse=True)
        assert anchors[0] == 1.0 and anchors[-1] == 0.0

    def test_endpoints_have_no_spread(self):
        by_phrase = {e.phrase: e for e in ANCHOR_TABLE}
        assert by_phrase["certain"].spread == 0.0
        assert by_phrase["impossible"].spread == 0.0
        assert all(e.spread > 0 for e in ANCHOR_TABLE if e.phrase not in ("certain", "impossible"))


class TestWepToProb:
    def test_lookup(self):
        assert wep_to_prob("likely") == 0.70
        assert wep_to_prob("almost no chance") == 0.02

    def test_normalization(self):
        assert wep_to_prob("  Highly   LIKELY ") == 0.90

    def test_unknown_phrase(self):
        with pytest.raises(UnknownWepPhrase, match="maybe"):
            wep_to_prob("maybe")


class TestProbToWep:
    def test_every_anchor_maps_back_to_its_own_anchor(self):
        rng = np.random.default_rng(0)
        for entry in ANCHOR_TABLE:
            pick = prob_to_wep(entry.anchor, rng, second_closest_prob=0.0)
            assert wep_to_prob(pick.phrase) == entry.anchor

    def test_endpoints_are_deterministic(self):
        rng = np.random.default_rng(1)
        untouched = np.random.default_rng(1)
        assert prob_to_wep(0.0, rng) == WepSelection("impossible", False)
        assert prob_to_wep(1.0, rng) == WepSelection("certain", False)
        # neither endpoint consumed a draw
        assert rng.random() == untouched.random()

    def test_range_errors(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            prob_to_wep(-0.01, rng)
        with pytest.raises(ValueError):
            prob_to_wep(1.01, rng)
        with pytest.raises(ValueError):
            prob_to_wep(0.5, rng, second_closest_prob=-0.1)
        with pytest.raises(ValueError):
            prob_to_wep(0.5, rng, second_closest_prob=1.5)

    def test_point38_never_reads_about_even(self):
        rng = np.random.default_rng(38)
        picks = [prob_to_wep(0.38, rng) for _ in range(10_000)]
        assert {p.phrase for p in picks} == {"probably not"}
        assert {p.used_second_closest for p in picks} == {True, False}

    def test_second_closest_rate(self):
        rng = np.random.default_rng(42)
        hits = sum(prob_to_wep(0.70, rng).used_second_closest for _ in range(10_000))
        assert 0.09 <= hits / 10_000 <= 0.11

    def test_identical_seeds_identical_sequences(self):
        probs = np.random.default_rng(5).random(500)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([prob_to_wep(float(p), rng) for p in probs])
        assert runs[0] == runs[1]

    def test_tie_sets_at_point7(self):
        primary, secondary = _candidate_sets(0.70)
        assert primary == ("likely", "probably", "probable")
        assert secondary == ("very good chance", "better than even")

    def test_tied_anchors_all_appear(self):
        rng = np.random.default_rng(6)
        seen = {prob_to_wep(0.70, rng, second_closest_prob=0.0).phrase for _ in range(200)}
        assert seen == {"likely", "probably", "probable"}

    def test_about_even_floor_boundary(self):
        rng = np.random.default_rng(7)
        at = prob_to_wep(ABOUT_EVEN_FLOOR, rng, second_closest_prob=0.0)
        below = prob_to_wep(ABOUT_EVEN_FLOOR - 1e-6, rng, second_closest_prob=0.0)
        assert at.phrase == "about even"
        assert below.phrase == "probably not"

    def test_disabled_second_closest_singleton_consumes_no_draw(self):
        rng = np.random.default_rng(8)
        untouched = np.random.default_rng(8)
        assert prob_to_wep(0.9, rng, second_closest_prob=0.0).phrase == "highly likely"
        assert rng.random() == untouched.random()


class TestVerbalizeDistribution:
    def test_uniform_row_collapses_to_marker(self):
        rng = np.random.default_rng(9)
        got = verbalize_distribution([0.25, 0.25, 0.25, 0.25], rng)
        assert got == VerbalizedDistribution(phrases=None, argmax_states=None)

    def test_low_anchor_rows_note_the_argmax(self):
        rng = np.random.default_rng(10)
        got = verbalize_distribution([0.2, 0.2, 0.3, 0.3], rng, second_closest_prob=0.0)
        assert got.phrases == ("unlikely", "unlikely", "probably not", "probably not")
        assert got.argmax_states == (2, 3)

    def test_high_anchor_rows_need_no_note(self):
        rng = np.random.default_rng(11)
        got = verbalize_distribution([0.7, 0.3], rng, second_closest_prob=0.0)
        assert got.argmax_states is None
        assert got.phrases is not None and got.phrases[1] == "probably not"

    def test_errors(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="nonempty"):
            verbalize_distribution([], rng)
        with pytest.raises(ValueError, match="outside"):
            verbalize_distribution([0.5, 1.5], rng)


def _scan(p: float) -> tuple[list[str], list[str]]:
    """The candidate sets by two passes over the table, as selection first
    computed them: the oracle for the breakpoint lookup."""

    dists = [abs(p - entry.anchor) for entry in ANCHOR_TABLE]
    best = min(dists)
    primary = [e.phrase for e, d in zip(ANCHOR_TABLE, dists) if d <= best + _TIE_EPS]
    beyond = [d for d in dists if d > best + _TIE_EPS]
    if not beyond:
        return primary, []
    second = min(beyond)
    secondary = [
        e.phrase for e, d in zip(ANCHOR_TABLE, dists) if best + _TIE_EPS < d <= second + _TIE_EPS
    ]
    return primary, secondary


def _scanned(p: float) -> tuple[tuple[str, ...], tuple[str, ...]]:
    primary, secondary = _scan(p)
    return tuple(primary), tuple(secondary)


def _steps(p: float, n: int) -> list[float]:
    """``p`` and the ``n`` floats on either side of it."""

    out = [p]
    below = above = p
    for _ in range(n):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


class TestBreakpointLookup:
    def test_table_is_minimal(self):
        assert list(wep._BREAKS) == sorted(set(wep._BREAKS))
        assert len(wep._SETS) == len(wep._BREAKS) + 1
        assert all(a != b for a, b in zip(wep._SETS, wep._SETS[1:]))

    def test_grid(self):
        for i in range(10**6 + 1):
            p = i / 10**6
            assert _candidate_sets(p) == _scanned(p), p

    def test_random_floats(self):
        for p in np.random.default_rng(17).random(100_000).tolist():
            assert _candidate_sets(p) == _scanned(p), p

    def test_around_every_breakpoint(self):
        for b in wep._BREAKS:
            for p in _steps(b, 5):
                assert _candidate_sets(p) == _scanned(p), p

    def test_at_every_tie_zone(self):
        anchors = sorted({e.anchor for e in ANCHOR_TABLE})
        for i, lo in enumerate(anchors):
            for hi in anchors[i + 1 :]:
                mid = (lo + hi) / 2
                for centre in (mid - _TIE_EPS, mid - _TIE_EPS / 2, mid, mid + _TIE_EPS / 2, mid + _TIE_EPS):
                    for p in _steps(centre, 3):
                        assert _candidate_sets(p) == _scanned(p), p

    def test_verbalized_rows_match_the_scan(self, monkeypatch):
        """Same phrases and the same rng state after every row of 200
        random networks, whether the sets come from the lookup or the scan."""

        rng = np.random.default_rng(2323)
        rows = []
        for i in range(200):
            net = netgen.with_zeros(rng, netgen.random_network(rng, name=f"wep{i}"))
            rows += [row for cpt in net.cpts.values() for row in cpt.rows.values()]
        runs = []
        for sets in (_candidate_sets, _scanned):
            monkeypatch.setattr(wep, "_candidate_sets", sets)
            draw = np.random.default_rng(99)
            runs.append(([verbalize_distribution(row, draw) for row in rows], draw.bit_generator.state))
        assert runs[0] == runs[1]
