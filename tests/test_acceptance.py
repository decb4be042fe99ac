"""Acceptance criteria: one test per criterion, pinned tolerances.

Each test is self-contained and prints its measured margins; the conftest
hook adds a one-line PASS/FAIL verdict per criterion to the terminal
summary.  Tolerances are fixed here and nowhere else.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import fourierdim as fd
from fourierdim import dimension


LEB = fd.UniformOnIntervals(((0.0, 1.0),))


# ---------------------------------------------------------------------------
# criterion 1: paired lacunary densities


def test_criterion_01_lacunary_pair():
    t0 = time.perf_counter()
    g = fd.lacunary_trig_measure(+1, 6)
    h = fd.lacunary_trig_measure(-1, 6)

    # spikes: value at 2^(n^2) within 2 * 2^(-n^2) of -i 2^-(n+1), n = 1..4
    for n in range(1, 5):
        xi = 2 ** (n * n)
        want = -1j * 2.0 ** (-(n + 1))
        assert abs(fd.ft(g, xi) - want) <= 2.0 * 2.0 ** (-n * n)
        assert abs(fd.ft(h, xi) + want) <= 2.0 * 2.0 ** (-n * n)

    # the pair sums to twice Lebesgue, 1e-12 over 100 frequencies
    both = fd.Mixture((g, h), (1.0, 1.0))
    rng = np.random.default_rng(7)
    sum_dev = 0.0
    for x in rng.uniform(0.5, 4096.0, size=100):
        sum_dev = max(sum_dev, abs(fd.ft(both, float(x))
                                   - 2.0 * fd.ft(LEB, float(x))))
    assert sum_dev <= 1e-12

    # decay estimates need deeper truncations: depth 6 stops producing
    # spikes past 2^36, so the deep pair carries them to 2^2304
    g48 = fd.lacunary_trig_measure(+1, 48)
    h48 = fd.lacunary_trig_measure(-1, 48)
    lac = fd.Lacunary(tuple(k * k for k in range(1, 49)))
    dim_g = fd.decay_exponent(g48, lac).capped_dim
    dim_h = fd.decay_exponent(h48, lac).capped_dim
    merged = fd.merge_schedules(fd.DyadicWindows(4, 20), lac)
    both48 = fd.Mixture((g48, h48), (1.0, 1.0))
    dim_sum = fd.decay_exponent(both48, merged).capped_dim
    elapsed = time.perf_counter() - t0

    assert dim_g <= 0.05
    assert dim_h <= 0.05
    assert dim_sum >= 0.95
    assert elapsed < 5.0
    print(f"\n  sum_dev={sum_dev:.2e} dim_g={dim_g:.4f} dim_h={dim_h:.4f} "
          f"dim_sum={dim_sum:.4f} elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: digit-constraint lower bounds after dilation


def test_criterion_02_constraint_witnesses():
    t0 = time.perf_counter()
    spec = fd.DigitScheduleSpec.index_blocks(1, 5)
    mu = fd.digit_constraint_measure(spec)
    values = []
    for k, l, length in zip(range(1, 6), spec.exponents, spec.lengths):
        eps = 2.0 ** (-k)
        assert length == k
        dilated = fd.AffineImage(mu, 2 ** l, 0.0, True)
        wit = fd.lower_bound_search(dilated, eps, 10 ** 5)
        assert wit.found, f"no witness for k={k}"
        assert wit.value >= eps / 5.0
        values.append((k, wit.j, wit.value))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n  witnesses={[(k, j, round(v, 6)) for k, j, v in values]} "
          f"elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: oscillatory integral closed form


def _simpson_osc(alphas, betas, n=1 << 15):
    x = np.linspace(0.0, 1.0, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    out = np.empty(len(alphas), dtype=complex)
    for i in range(0, len(alphas), 100):
        a = np.asarray(alphas[i:i + 100])[:, None]
        b = np.asarray(betas[i:i + 100])[:, None]
        f = np.exp(2j * np.pi * a * x[None, :]) * np.sin(2 * np.pi * b * x[None, :])
        out[i:i + 100] = (f @ w) / (3.0 * n)
    return out


def test_criterion_03_oscillatory_integral():
    rng = np.random.default_rng(13)
    alphas = rng.uniform(-50.0, 50.0, size=1000)
    betas = rng.uniform(-50.0, 50.0, size=1000)
    reference = _simpson_osc(alphas, betas)
    max_dev = 0.0
    for a, b, ref in zip(alphas, betas, reference):
        got = fd.oscillatory_integral(float(a), float(b))
        max_dev = max(max_dev, abs(got - ref))
        gap = abs(abs(a) - abs(b))
        if gap > 0:
            assert abs(got) <= 1.0 / gap + 1e-9
    assert max_dev <= 1e-9

    for l in range(1, 21):
        assert fd.oscillatory_integral(-l, l) == -0.5j
    print(f"\n  quadrature max_dev={max_dev:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: integer witnesses for random atomic measures


def test_criterion_04_atomic_witnesses():
    rng = np.random.default_rng(29)
    t0 = time.perf_counter()
    worst_margin = math.inf
    for eps in (0.1, 0.5, 1.0):
        bound = math.pi * eps / (8.0 + 2.0 * math.pi * eps)
        assert bound >= eps / 5.0
        for _ in range(100):
            n = int(rng.integers(1, 8))
            pos = rng.uniform(eps, 1.0, size=n)
            w = rng.uniform(0.1, 1.0, size=n)
            w /= w.sum()
            m = fd.Atomic(tuple(zip(pos.tolist(), w.tolist())))
            wit = fd.lower_bound_search(m, eps, 10 ** 6)
            assert wit.found, f"no witness at eps={eps}"
            assert wit.value >= bound
            assert wit.value >= eps / 5.0
            worst_margin = min(worst_margin, wit.value - bound)
    elapsed = time.perf_counter() - t0
    print(f"\n  300/300 witnesses, worst margin {worst_margin:.3e}, "
          f"elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 5: energy identity and route agreement


ENERGY_MEASURES = (
    LEB,
    fd.UniformOnIntervals(((0.0, 0.3), (0.5, 1.0))),
    fd.TrigDensity(((0.5, 3),)),
    fd.TrigDensity(((0.3, 2), (-0.2, 5))),
    fd.lacunary_trig_measure(+1, 3),
    fd.lacunary_trig_measure(-1, 3),
    fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)),
    fd.smooth_cut(LEB, (0.5, 0.4, 2)),
    fd.AffineImage(LEB, 0.5, 0.25),
    fd.Mixture((LEB, fd.TrigDensity(((0.25, 2),))), (0.4, 0.6)),
)


def test_criterion_05_energy_identity():
    spa = fd.energy_spatial(LEB, 0.5)
    fou = fd.energy_fourier(LEB, 0.5)
    dev_s = abs(spa.value - 8.0 / 3.0)
    dev_f = abs(fou.value - 8.0 / 3.0)
    assert dev_s <= 1e-3
    assert dev_f <= 2e-2

    assert len(ENERGY_MEASURES) == 10
    agreements = 0
    for m in ENERGY_MEASURES:
        for s in (0.25, 0.5, 0.75):
            a = fd.energy_spatial(m, s)
            b = fd.energy_fourier(m, s)
            budget = 3.0 * (a.err_estimate + b.err_estimate) \
                + 0.02 * max(1.0, abs(a.value))
            assert abs(a.value - b.value) <= budget, (type(m).__name__, s)
            agreements += 1
    assert agreements == 30
    print(f"\n  spatial_dev={dev_s:.2e} fourier_dev={dev_f:.2e} "
          f"agreement=30/30")


# The exact s-energy (the double integral of |x - y|^-s) of each
# ENERGY_MEASURES entry, in the same order, from densities written out here
# without the package.


def _flat_energy(pieces, s):
    """Closed form for a piecewise-constant density, pieces (a, b, height).

    F(w) = |w|^(2-s) / ((1-s)(2-s)) has F'' = |w|^-s, so each pair of pieces
    contributes F(b1 - a2) - F(a1 - a2) - F(b1 - b2) + F(a1 - b2).
    """
    def F(w):
        return abs(w) ** (2.0 - s) / ((1.0 - s) * (2.0 - s))

    return math.fsum(h1 * h2 * (F(b1 - a2) - F(a1 - a2) - F(b1 - b2) + F(a1 - b2))
                     for a1, b1, h1 in pieces for a2, b2, h2 in pieces)


def _trig_energy(terms, s):
    """Density 1 + sum c sin(2 pi f x) on [0, 1], terms (c, f), f integers.

    With the density written as sum_k alpha_k e^(2 pi i nu_k x), the energy
    is 2 int_0^1 t^-s A(t) dt, and the autocorrelation
    A(t) = int_0^(1-t) f(x) f(x + t) dx is a sum of terms e^(i w t) times
    (1 - t) or a constant.  mpmath integrates each against t^-s in closed
    form: int_0^1 t^(a-1) e^(i w t) dt = 1F1(a; a + 1; i w) / a.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        two_pi = 2 * mpmath.pi
        alpha = [(mpmath.mpf(1), 0)]
        for c, f in terms:
            alpha += [(mpmath.mpf(c) / 2j, f), (-mpmath.mpf(c) / 2j, -f)]

        def moment(p, w):  # int_0^1 t^(p-s) e^(i w t) dt
            a = p + 1 - s
            return 1 / a if w == 0 else mpmath.hyp1f1(a, a + 1, 1j * w) / a

        total = 0
        for aj, nj in alpha:
            for ak, nk in alpha:
                n, w = nj + nk, two_pi * nk
                if n == 0:
                    part = moment(0, w) - moment(1, w)
                else:  # int_0^(1-t) e^(2 pi i n x) dx = (e^(-2 pi i n t) - 1) / (2 pi i n)
                    part = (moment(0, w - two_pi * n) - moment(0, w)) / (1j * two_pi * n)
                total += aj * ak * part
        return float(2 * total.real)


def _cut_energy(center, radius, s):
    """Density (1 - ((x - center) / radius)^2)^2 on [center -+ radius]: an
    mpmath double integral, 2 int_0^L t^-s A(t) dt with the polynomial
    autocorrelation A(t) by Gauss-Legendre and t = L v^(1/(1-s)) removing
    the t^-s singularity."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        c, r, s = mpmath.mpf(center), mpmath.mpf(radius), mpmath.mpf(s)
        a, b = c - r, c + r

        def p(x):
            return (1 - ((x - c) / r) ** 2) ** 2

        def A(t):
            return mpmath.quad(lambda x: p(x) * p(x + t), [a, b - t],
                               method="gauss-legendre")

        L = b - a
        return float(2 * L ** (1 - s) / (1 - s)
                     * mpmath.quad(lambda v: A(L * v ** (1 / (1 - s))), [0, 1]))


def _digit_pieces():
    # depth 6, binary digits 2..3 of the cell index never "01"
    kept = [v for v in range(64) if (v >> 3) & 3 != 0b01]
    return [(v / 64, (v + 1) / 64, 64 / len(kept)) for v in kept]


ENERGY_TRUTHS = (
    lambda s: _flat_energy([(0.0, 1.0, 1.0)], s),
    lambda s: _flat_energy([(0.0, 0.3, 1.25), (0.5, 1.0, 1.25)], s),
    lambda s: _trig_energy(((0.5, 3),), s),
    lambda s: _trig_energy(((0.3, 2), (-0.2, 5)), s),
    lambda s: _trig_energy(tuple((2.0 ** -k, 2 ** (k * k)) for k in (1, 2, 3)), s),
    lambda s: _trig_energy(tuple((-2.0 ** -k, 2 ** (k * k)) for k in (1, 2, 3)), s),
    lambda s: _flat_energy(_digit_pieces(), s),
    lambda s: _cut_energy(0.5, 0.4, s),
    lambda s: _flat_energy([(0.25, 0.75, 2.0)], s),
    # 0.4 * 1 + 0.6 * (1 + 0.25 sin(4 pi x))
    lambda s: _trig_energy(((0.15, 2),), s),
)


@pytest.mark.parametrize("k", range(len(ENERGY_MEASURES)),
                         ids=[type(m).__name__ for m in ENERGY_MEASURES])
def test_energy_error_bars_bound_the_error(k):
    for s in (0.25, 0.5, 0.75):
        want = ENERGY_TRUTHS[k](s)
        for res in (fd.energy_fourier(ENERGY_MEASURES[k], s),
                    fd.energy_spatial(ENERGY_MEASURES[k], s)):
            assert abs(res.value - want) <= res.err_estimate, (res.method, s)


def _band(m, s, n, width):
    """energy_fourier's band sum over [1, 4096] with the n-node rule on
    panels of `width` times its 4096 panels (diameters up to 1 take 4096),
    and the weighted samples |m_hat|^2 xi^(s-1), one row per panel."""
    u, w = np.polynomial.legendre.leggauss(n)
    h = width * 4095.0 / 4096
    xi = (1.0 + h * (np.arange(4096 // width) + 0.5))[:, None] + 0.5 * h * u
    f = np.abs(fd.ft_grid(m, xi.ravel())).reshape(xi.shape) ** 2 * xi ** (s - 1.0)
    return 0.5 * h * float(np.sum(f @ w)), f


@pytest.mark.parametrize("k", range(len(ENERGY_MEASURES)),
                         ids=[type(m).__name__ for m in ENERGY_MEASURES])
def test_energy_fourier_band_term_bounds_the_band_error(k):
    # the null-rule term covers the band's error against a 16-node rule per
    # panel (at most 0.02 of the term here), and reads no more than
    # |fine - coarse| with the 8-node rule on each pair of panels (7 to 40
    # times the term here)
    m = ENERGY_MEASURES[k]
    for s in (0.25, 0.5, 0.75):
        band, f = _band(m, s, 8, 1)
        term = 0.5 * 4095.0 / 4096 * abs(float(np.sum(
            f.reshape(-1, 16) @ dimension._pair_null_rule())))
        assert abs(band - _band(m, s, 16, 1)[0]) <= term, s
        assert term <= abs(band - _band(m, s, 8, 2)[0]), s
        res = fd.energy_fourier(m, s)
        assert res.err_estimate >= 2.0 * res.constant * term, s


def test_energy_spatial_error_bar_covers_rounding():
    # breakpoints on the cell grid: the spatial sum is exact but for rounding
    cases = ((ENERGY_MEASURES[0], ENERGY_TRUTHS[0]),
             (ENERGY_MEASURES[6], ENERGY_TRUTHS[6]),
             (ENERGY_MEASURES[8], ENERGY_TRUTHS[8]))
    for m, truth in cases:
        for s in (0.25, 0.5, 0.75):
            for resolution in (1 << 10, 1 << 14, 1 << 18):
                res = fd.energy_spatial(m, s, resolution)
                assert abs(res.value - truth(s)) <= res.err_estimate, (m, s, resolution)


def test_energy_routes_agree_within_their_error_bars():
    # criterion 5's agreement without its 2 %-of-value term
    worst = 0.0
    for m in ENERGY_MEASURES:
        for s in (0.25, 0.5, 0.75):
            a = fd.energy_spatial(m, s)
            b = fd.energy_fourier(m, s)
            worst = max(worst, abs(a.value - b.value) / (3.0 * (a.err_estimate + b.err_estimate)))
    assert worst <= 1.0
    print(f"\n  worst |spatial - fourier| / budget = {worst:.2f}")


# ---------------------------------------------------------------------------
# criterion 6: quadratic averages


def test_criterion_06_wiener_averages():
    two = fd.Atomic(((0.3, 0.5), (0.7, 0.5)))
    v2 = fd.wiener_average(two, 1.0e4)
    assert abs(v2 - 0.5) <= 0.02

    vleb = fd.wiener_average(LEB, 1.0e4)
    assert vleb <= 0.001

    single = fd.Atomic(((0.37, 1.0),))
    v1 = fd.wiener_average(single, 1.0e4)
    assert v1 == 1.0
    print(f"\n  two_atoms={v2:.6f} lebesgue={vleb:.2e} single={v1}")


# ---------------------------------------------------------------------------
# criterion 7: ternary digit measure never decays


def test_criterion_07_cantor_non_decay():
    c = fd.cantor_measure()
    base = abs(fd.ft(c, 1))
    assert base > 0.05
    id_dev = max(abs(abs(fd.ft(c, 3 ** k)) - base) for k in range(1, 13))
    assert id_dev <= 1e-10

    sched = fd.merge_schedules(
        fd.DyadicWindows(4, 20),
        fd.ExplicitFrequencies(tuple(3 ** k for k in range(1, 41))))
    rep = fd.decay_exponent(c, sched)
    assert rep.capped_dim <= 0.05
    print(f"\n  base={base:.6f} id_dev={id_dev:.2e} "
          f"capped_dim={rep.capped_dim:.6f}")


# ---------------------------------------------------------------------------
# criterion 8: transform algebra, 10^4 randomized cases


def _random_atomic(rng):
    n = int(rng.integers(1, 5))
    pos = rng.uniform(0.0, 1.0, size=n)
    w = rng.uniform(0.1, 1.0, size=n)
    return fd.Atomic(tuple(zip(pos.tolist(), w.tolist())))


def _random_uniform(rng):
    cuts = np.sort(rng.uniform(0.0, 1.0, size=4))
    return fd.UniformOnIntervals(
        ((float(cuts[0]), float(cuts[1])), (float(cuts[2]), float(cuts[3] + 0.01))))


def _random_trig(rng):
    k = int(rng.integers(1, 30))
    amp = float(rng.uniform(-0.45, 0.45))
    return fd.TrigDensity(((amp, k),))


def _random_measure(rng, depth=0):
    kinds = 6 if depth < 2 else 3
    kind = int(rng.integers(0, kinds))
    if kind == 0:
        return _random_atomic(rng)
    if kind == 1:
        return _random_uniform(rng)
    if kind == 2:
        return _random_trig(rng)
    if kind == 3:
        w = rng.uniform(0.2, 1.0, size=2)
        return fd.Mixture((_random_measure(rng, depth + 1),
                           _random_measure(rng, depth + 1)),
                          (float(w[0]), float(w[1])))
    if kind == 4:
        a = float(rng.uniform(0.3, 2.0)) * (1 if rng.random() < 0.5 else -1)
        return fd.AffineImage(_random_measure(rng, depth + 1), a,
                              float(rng.uniform(-1.0, 1.0)))
    return fd.Convolution((_random_measure(rng, depth + 1),
                           _random_measure(rng, depth + 1)))


def _enumeration_transform(m, xi):
    """Brute force: sum over admissible cylinders with the exact cell factor."""
    depth, blocks = m.depth, m.blocks
    admissible = []
    for v in range(2 ** depth):
        ok = True
        for b in blocks:
            bits = (v >> (depth - b.offset - b.length)) & ((1 << b.length) - 1)
            if bits == int(b.forbidden_pattern, 2):
                ok = False
                break
        if ok:
            admissible.append(v)
    vals = np.array(admissible, dtype=float) / 2.0 ** depth
    phases = np.exp(-2j * np.pi * xi * vals)
    g = -xi / 2.0 ** depth
    cell = cmath.exp(1j * math.pi * g) * np.sinc(g)
    return complex(phases.sum() * cell / len(admissible))


def test_criterion_08_transform_algebra():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(2000):
        xi = float(rng.uniform(0.01, 300.0))

        m = _random_measure(rng)
        if fd.ft(m, -xi) != fd.ft(m, xi).conjugate():  # hermitian, bit-exact
            failures += 1

        m = _random_measure(rng)
        if abs(fd.ft(m, xi)) > fd.mass(m) + 1e-12:  # modulus bound
            failures += 1

        m1, m2 = _random_measure(rng), _random_measure(rng)
        w1, w2 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        mix = fd.Mixture((m1, m2), (w1, w2))
        if fd.ft(mix, xi) != w1 * fd.ft(m1, xi) + w2 * fd.ft(m2, xi):
            failures += 1  # mixture linearity, bit-exact

        conv = fd.Convolution((m1, m2))
        if fd.ft(conv, xi) != fd.ft(m1, xi) * fd.ft(m2, xi):
            failures += 1  # convolution multiplicativity, bit-exact

        a = float(rng.uniform(0.3, 3.0)) * (1 if rng.random() < 0.5 else -1)
        c = float(rng.uniform(-1.0, 1.0))
        img = fd.AffineImage(m1, a, c)
        want = fd.phase_unit(xi, c) * fd.ft(m1, Fraction(a) * Fraction(xi))
        if abs(fd.ft(img, xi) - want) > 1e-13 * max(1.0, fd.mass(m1)):
            failures += 1  # affine covariance
    assert failures == 0

    # factorized digit products against exhaustive enumeration, depth <= 16
    cases = [
        fd.DigitProduct(4, ()),
        fd.DigitProduct(6, (fd.DigitBlock(1, 2, "01"),)),
        fd.DigitProduct(10, (fd.DigitBlock(0, 3, "000"), fd.DigitBlock(5, 2, "11"))),
        fd.DigitProduct(12, (fd.DigitBlock(2, 4, "0110"),)),
        fd.DigitProduct(16, (fd.DigitBlock(1, 3, "101"), fd.DigitBlock(8, 4, "0000"))),
    ]
    enum_dev = 0.0
    for m in cases:
        assert m.depth <= 16
        for xi in (0.3, 1.0, 7.25, 123.456):
            enum_dev = max(enum_dev,
                           abs(fd.ft(m, xi) - _enumeration_transform(m, xi)))
    assert enum_dev <= 5e-13
    elapsed = time.perf_counter() - t0
    print(f"\n  0 failures / 10000 cases, enum_dev={enum_dev:.2e}, "
          f"elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 9: perp laws and atomic decomposition


def test_criterion_09_band_lattice():
    rng = np.random.default_rng(211)
    t0 = time.perf_counter()
    total = 0
    for _ in range(1000):
        model = fd.IncidenceModel.random(
            rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        out = fd.check_perp_properties(model, 20, rng)
        total += out["total_violations"]
    assert total == 0

    grid = [k / 16.0 for k in range(17)]
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        pos = rng.choice(grid, size=n, replace=False)
        w = rng.uniform(0.1, 1.0, size=n)
        mu = fd.Atomic(tuple(zip(pos.tolist(), w.tolist())))
        fam = [fd.Atomic(tuple(
            (float(p), 1.0) for p in rng.choice(grid, size=4, replace=False)))
            for _ in range(int(rng.integers(1, 4)))]
        on, off, covered = fd.decompose_atomic(mu, fam)
        assert sorted(on.atoms + off.atoms) == sorted(mu.atoms)  # mu1+mu2 = mu
        on_pos = {p for p, _ in on.atoms}
        off_pos = {p for p, _ in off.atoms}
        assert not on_pos & off_pos  # disjoint supports
        assert on_pos == set(covered)
    elapsed = time.perf_counter() - t0
    print(f"\n  0 violations / 1000 models x 20 draws, 1000 exact splits, "
          f"elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 10: dimension stability under sums and translations


def test_criterion_10_stability():
    sched = fd.DyadicWindows(4, 16)
    rng = np.random.default_rng(307)
    pairs = [
        (LEB, fd.cantor_measure()),
        (LEB, fd.Atomic(((0.3, 1.0),))),
        (fd.cantor_measure(), fd.Atomic(((0.5, 0.6), (0.9, 0.4)))),
        (fd.TrigDensity(((0.4, 3),)), LEB),
        (fd.lacunary_trig_measure(+1, 4), fd.lacunary_trig_measure(-1, 4)),
        (fd.DigitProduct(6, (fd.DigitBlock(1, 2, "00"),)), LEB),
    ]
    for _ in range(6):
        pairs.append((_random_measure(rng), _random_measure(rng)))
    worst = math.inf
    for m1, m2 in pairs:
        r1, r2, rsum = fd.stability_experiment(m1, m2, sched)
        floor = min(r1.capped_dim, r2.capped_dim) - 0.05
        worst = min(worst, rsum.capped_dim - floor)
        assert rsum.capped_dim >= floor

    checked = 0
    for m in (LEB, fd.Atomic(((0.25, 0.5), (0.8, 0.5))),
              fd.TrigDensity(((0.4, 3),))):
        for t in (0.0, 1.0 / 3.0, 0.5, 0.125, 0.377):
            for xi in (1, 2, 7, 0.5, 3.25, 123.456):
                fd.translation_pair_transform(m, t, xi)  # raises past 1e-12
                checked += 1
    assert checked == 90
    print(f"\n  12 stable pairs (worst margin {worst:.3f}), "
          f"90 exact translation identities")
