"""Incidence models, the perp calculus, weights, and atomic splits."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fourierdim as fd
from fourierdim import IncidenceModel, SubsetPair, bandlattice, perp


MODEL = IncidenceModel(2, 3, ((0.0, 1.0, 0.0), (0.0, 0.0, 2.0)))


def test_model_validation():
    with pytest.raises(fd.MeasureError):
        IncidenceModel(0, 3, ())
    with pytest.raises(fd.MeasureError):
        IncidenceModel(2, 2, ((1.0, 0.0),))  # wrong row count
    with pytest.raises(fd.MeasureError):
        IncidenceModel(1, 2, ((1.0, -2.0),))  # negative pairing
    with pytest.raises(fd.MeasureError):
        IncidenceModel(1, 1, ((math.inf,),))


def test_random_model_shape():
    rng = np.random.default_rng(7)
    m = IncidenceModel.random(rng, 4, 5)
    assert m.nx == 4 and m.ny == 5
    all_zero = IncidenceModel.random(rng, 3, 3, zero_prob=1.0)
    assert all(x == 0.0 for row in all_zero.pairing for x in row)
    none_zero = IncidenceModel.random(rng, 3, 3, zero_prob=0.0)
    assert all(x > 0.0 for row in none_zero.pairing for x in row)


@pytest.mark.parametrize("zero_prob", ["x", math.nan, -0.1, 1.5, True])
def test_random_model_refuses_a_zero_prob_outside_0_1(zero_prob):
    # "x" used to raise a numpy UFuncTypeError, and NaN to draw no zeros
    with pytest.raises(fd.MeasureError, match="zero_prob"):
        IncidenceModel.random(np.random.default_rng(7), 3, 3, zero_prob=zero_prob)


def test_subset_pair_validation():
    with pytest.raises(fd.MeasureError):
        SubsetPair("top", frozenset())
    d = SubsetPair("left", {1, 1, 0})
    assert d.members == frozenset({0, 1})


def test_perp_hand_example():
    # bit j of zero_right[i] and bit i of zero_left[j] mark a zero pairing;
    # the masks take no part in ==, hash or repr
    assert MODEL.zero_right == (0b101, 0b011)
    assert MODEL.zero_left == (0b11, 0b10, 0b01)
    twin = IncidenceModel(2, 3, MODEL.pairing)
    assert twin == MODEL and hash(twin) == hash(MODEL)
    assert repr(MODEL) == f"IncidenceModel(nx=2, ny=3, pairing={MODEL.pairing!r})"
    assert perp(MODEL, SubsetPair("left", {0})).members == frozenset({0, 2})
    assert perp(MODEL, SubsetPair("left", {0, 1})).members == frozenset({0})
    assert perp(MODEL, SubsetPair("right", {1})).members == frozenset({1})
    full = perp(MODEL, SubsetPair("left", frozenset()))
    assert full.side == "right" and full.members == frozenset({0, 1, 2})


def test_perp_range_check():
    with pytest.raises(fd.MeasureError):
        perp(MODEL, SubsetPair("left", {5}))


def _perp_brute(model, side, members):
    """Independent reference: explicit double loop over the matrix."""
    out = set()
    if side == "left":
        for j in range(model.ny):
            if all(model.pairing[i][j] == 0.0 for i in members):
                out.add(j)
    else:
        for i in range(model.nx):
            if all(model.pairing[i][j] == 0.0 for j in members):
                out.add(i)
    return frozenset(out)


def test_perp_matches_brute_force():
    rng = np.random.default_rng(42)
    models = [IncidenceModel.random(rng, int(rng.integers(1, 7)),
                                    int(rng.integers(1, 7)))
              for _ in range(50)]
    # one side wider than a machine word
    models += [IncidenceModel.random(rng, 3, 70),
               IncidenceModel.random(rng, 70, 2),
               IncidenceModel.random(rng, 65, 66, zero_prob=0.9)]
    for m in models:
        for side, size in (("left", m.nx), ("right", m.ny)):
            random_subset = frozenset(
                int(i) for i in range(size) if rng.random() < 0.5)
            for members in (random_subset, frozenset(), frozenset(range(size))):
                got = perp(m, SubsetPair(side, members))
                assert got.members == _perp_brute(m, side, members)


_matrix = st.integers(1, 4).flatmap(
    lambda nx: st.integers(1, 4).flatmap(
        lambda ny: st.tuples(
            st.just(nx), st.just(ny),
            st.lists(
                st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]),
                         min_size=ny, max_size=ny),
                min_size=nx, max_size=nx))))


@settings(max_examples=150, deadline=None)
@given(_matrix, st.data())
def test_galois_laws(mat, data):
    nx, ny, rows = mat
    model = IncidenceModel(nx, ny, tuple(tuple(r) for r in rows))
    side = data.draw(st.sampled_from(["left", "right"]))
    size = nx if side == "left" else ny
    subset = st.frozensets(st.integers(0, size - 1))

    d = SubsetPair(side, data.draw(subset))
    d2m = data.draw(subset)
    d1 = SubsetPair(side, frozenset(i for i in d2m if data.draw(st.booleans())))
    d2 = SubsetPair(side, d2m)

    # i: double perp grows
    assert d.members <= perp(model, perp(model, d)).members
    # ii: antitone
    assert perp(model, d2).members <= perp(model, d1).members
    # iii: triple perp collapses
    p = perp(model, d)
    assert perp(model, perp(model, p)).members == p.members
    # iv & v: family laws
    fam = [SubsetPair(side, data.draw(subset)) for _ in range(3)]
    perps = [perp(model, f).members for f in fam]
    inter = frozenset(range(size))
    union = frozenset()
    for f in fam:
        inter &= f.members
        union |= f.members
    assert frozenset().union(*perps) <= perp(model, SubsetPair(side, inter)).members
    got = perps[0] & perps[1] & perps[2]
    assert got == perp(model, SubsetPair(side, union)).members


def test_check_perp_properties_clean_run():
    rng = np.random.default_rng(11)
    model = IncidenceModel.random(rng, 8, 8)
    out = fd.check_perp_properties(model, 300, rng)
    assert out["trials"] == 300
    assert out["total_violations"] == 0
    assert out["first_counterexample"] is None
    assert set(out["violations"]) == {
        "double_perp", "antitone", "triple_perp",
        "family_intersection", "family_union"}


def test_check_perp_properties_reports_violations(monkeypatch):
    # Dropping the lowest member is not a Galois connection: it breaks each
    # of the five laws on some draws.
    monkeypatch.setattr(bandlattice, "_perp_mask", lambda masks, full, d: d >> 1)
    rng = np.random.default_rng(5)
    out = fd.check_perp_properties(IncidenceModel.random(rng, 6, 6), 50, rng)
    v = out["violations"]
    assert all(count > 0 for count in v.values()), v
    assert out["total_violations"] == sum(v.values())
    assert "SubsetPair(side=" in out["first_counterexample"]
    assert "members=frozenset(" in out["first_counterexample"]


def test_check_perp_properties_rng_stream():
    # A call draws each block of trials in three calls: the sides, the
    # family sizes, then _SUBSETS masks of whole bytes per trial.  A twin
    # generator making those draws ends in the same state; the values
    # pinned below are the generator's next draws after the seeded loop.
    rng = np.random.default_rng(2024)
    for _ in range(30):
        nx, ny = (int(k) for k in rng.integers(1, 12, size=2))
        model = IncidenceModel.random(rng, nx, ny)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        assert fd.check_perp_properties(model, 10, rng)["total_violations"] == 0
        twin.integers(0, 2, 10), twin.integers(2, 4, 10)
        twin.bytes(10 * bandlattice._SUBSETS * ((max(nx, ny) + 7) // 8))
        assert twin.bit_generator.state == rng.bit_generator.state
    assert rng.random() == 0.3445127043066333
    assert rng.integers(0, 2 ** 31) == 1337233480


WIDE_AND_ASYMMETRIC = [(1, 5), (7, 2), (3, 70), (70, 2), (65, 66)]


def test_check_perp_properties_draws_within_each_side(monkeypatch):
    # Spies on the trial draws (a trial starts) and on every perp.  Per
    # trial the checker takes perp of D, perp(D) (other side), D2, D1,
    # perp(perp(D)), each family member, their intersection and union.
    trials_log = []
    draws, perp_mask = bandlattice._trial_draws, bandlattice._perp_mask

    def spy_draws(*args):
        for trial in draws(*args):
            trials_log.append([])
            yield trial

    def spy_perp(masks, full, d):
        # masks has one entry per index of d's side
        assert d >= 0 and d.bit_length() <= len(masks), (d, len(masks))
        trials_log[-1].append(d)
        return perp_mask(masks, full, d)

    monkeypatch.setattr(bandlattice, "_trial_draws", spy_draws)
    monkeypatch.setattr(bandlattice, "_perp_mask", spy_perp)
    rng = np.random.default_rng(8)
    for nx, ny in WIDE_AND_ASYMMETRIC:
        trials_log.clear()
        model = IncidenceModel.random(rng, nx, ny, zero_prob=0.9 if nx > 64 else 0.5)
        out = fd.check_perp_properties(model, 200, rng)
        assert out["total_violations"] == 0 and out["first_counterexample"] is None
        assert len(trials_log) == 200
        for calls in trials_log:
            d2, d1 = calls[2], calls[3]
            assert d1 & ~d2 == 0
        assert {len(calls) - 7 for calls in trials_log} == {2, 3}
        if max(nx, ny) > 64:
            # each trial reads its own draws: D repeats only on the short side
            assert len({calls[0] for calls in trials_log}) > 50


def test_check_perp_properties_memory_stays_within_a_block():
    # 10^4 trials of 6 masks of 20000 bits would be 150 MB drawn at once;
    # a block is at most 64 KiB
    class Recorder:
        def __init__(self, rng):
            self.rng, self.sizes = rng, []

        def integers(self, *args):
            return self.rng.integers(*args)

        def bytes(self, n):
            self.sizes.append(n)
            return self.rng.bytes(n)

    # With no zero pairing every perp stops at its first member, so the run
    # costs its draws: a perp's member walk grows with |D| times the width.
    rng = np.random.default_rng(9)
    model = IncidenceModel.random(rng, 1, 20000, zero_prob=0.0)
    rec = Recorder(rng)
    tracemalloc.start()
    try:
        out = fd.check_perp_properties(model, 10 ** 4, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["total_violations"] == 0
    assert max(rec.sizes) <= bandlattice._BLOCK_BYTES
    assert sum(rec.sizes) == 10 ** 4 * bandlattice._SUBSETS * 2500
    assert peak < 2 ** 20, peak


def test_check_perp_properties_zero_trials():
    # negative trials are refused (tests/test_constructions.py)
    empty = fd.check_perp_properties(MODEL, 0, np.random.default_rng(0))
    assert empty["trials"] == 0 and empty["total_violations"] == 0
    assert empty["first_counterexample"] is None


# ---------------------------------------------------------------------------
# quasiconvex weights


def test_quasiconvex_weights_exact_small_case():
    assert fd.quasiconvex_weights((1.0, 2.0, 4.0)) == (16 / 21, 4 / 21, 1 / 21)
    assert fd.quasiconvex_weights((1.0,)) == (1.0,)


def test_quasiconvex_weights_huge_constants():
    # 2^(k+1) C_k overflows a float here; each weight is still the correctly
    # rounded value of 1 / (2^k C_k) over the sum, 1 / (2 C + 1) for the
    # second of (1, C)
    c = int(1e308)
    assert fd.quasiconvex_weights((1, 1e308)) == (1.0, float(Fraction(1, 2 * c + 1)))
    assert 4.9e-309 < fd.quasiconvex_weights((1, 1e308))[1] < 5.1e-309
    assert fd.quasiconvex_weights((1e308, 1e308)) == (2 / 3, 1 / 3)


def test_quasiconvex_weights_properties():
    cs = (1.0, 3.0, 9.0, 27.0, 81.0)
    ps = fd.quasiconvex_weights(cs)
    assert math.fsum(ps) == pytest.approx(1.0, abs=1e-15)
    # p_k C_k 2^k is constant across k
    scaled = [p * c * 2.0 ** k for k, (p, c) in enumerate(zip(ps, cs))]
    assert max(scaled) - min(scaled) < 1e-15
    # the mixed constant stays bounded even though C_k blows up
    assert math.fsum(p * c for p, c in zip(ps, cs)) < 2.0


def test_quasiconvex_weights_validation():
    with pytest.raises(fd.MeasureError):
        fd.quasiconvex_weights(())
    with pytest.raises(fd.MeasureError):
        fd.quasiconvex_weights((0.5,))
    with pytest.raises(fd.MeasureError):
        fd.quasiconvex_weights((1.0, math.inf))


# ---------------------------------------------------------------------------
# decompose_atomic


def test_decompose_atomic_moves_weights_exactly():
    mu = fd.Atomic(((0.1, 0.3), (0.2, 0.5), (0.7, 0.2)))
    family = [fd.Atomic(((0.2, 1.0),)), fd.Atomic(((0.9, 0.4),))]
    on, off, covered = fd.decompose_atomic(mu, family)
    assert on.atoms == ((0.2, 0.5),)
    assert off.atoms == ((0.1, 0.3), (0.7, 0.2))
    assert covered == (0.2,)
    # the split partitions the atom list, weights untouched
    assert sorted(on.atoms + off.atoms) == sorted(mu.atoms)


def test_decompose_atomic_empty_sides():
    mu = fd.Atomic(((0.25, 1.0),))
    on, off, covered = fd.decompose_atomic(mu, [fd.Atomic(((0.5, 1.0),))])
    assert on.atoms == () and covered == ()
    assert off.atoms == mu.atoms
    assert fd.ft(on, 3.3) == 0j
    on2, off2, _ = fd.decompose_atomic(mu, [mu])
    assert off2.atoms == () and on2.atoms == mu.atoms


def test_decompose_atomic_transform_additivity():
    rng = np.random.default_rng(3)
    pos = rng.random(6)
    w = rng.random(6)
    mu = fd.Atomic(tuple(zip(pos.tolist(), w.tolist())))
    family = [fd.Atomic(((float(pos[0]), 1.0), (float(pos[3]), 2.0)))]
    on, off, _ = fd.decompose_atomic(mu, family)
    for xi in (0.5, 4.25):
        assert abs(fd.ft(mu, xi) - (fd.ft(on, xi) + fd.ft(off, xi))) < 1e-14


def test_decompose_atomic_validation():
    leb = fd.UniformOnIntervals(((0.0, 1.0),))
    with pytest.raises(fd.MeasureError):
        fd.decompose_atomic(leb, [])
    with pytest.raises(fd.MeasureError):
        fd.decompose_atomic(fd.Atomic(((0.5, 1.0),)), [leb])
