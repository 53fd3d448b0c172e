"""Dirichlet-series algebra, generalized transforms, convolution identities."""

import math
import random
from fractions import Fraction

import pytest

import cyclozeta.dirichlet
import cyclozeta.verify as verify
from cyclozeta.arith import divisors, liouville, mobius, named_function, ramanujan_sum
from cyclozeta.dirichlet import (
    DirichletSeries,
    TRANSFER_EXAMPLES,
    TransferExample,
    check_star_series,
    check_transfer,
    convolution_example,
    divisor_polynomial,
    example_report_json,
    g_transform,
    g_transforms,
    mobius_series,
    ps_g_transforms,
    unit_series,
    zeta_series,
)
from cyclozeta.exactpoly import PolynomialQ, PowerSeriesQ, RationalFunctionQ, expand
from cyclozeta.report import Report
from cyclozeta.verify import SuiteConfig
from cyclozeta.zetaprod import (
    ZetaProduct,
    multiplicities,
    power_sums,
    random_zeta_product,
    root_weights,
    star_functions,
)

N = 200
A2 = ZetaProduct(3, {1: -1, 3: 1})


def q_integer(m: int) -> PolynomialQ:
    """1 + q + ... + q**(m-1)."""
    return PolynomialQ([1] * m)


class TestSeriesAlgebra:
    def test_zeta_times_mobius_is_unit(self):
        assert zeta_series(N) * mobius_series(N) == unit_series(N)
        assert zeta_series(N).invert() == mobius_series(N)

    def test_unit_is_neutral(self):
        rng = random.Random(0)
        A = DirichletSeries([rng.randint(-5, 5) for _ in range(N)])
        assert A * unit_series(N) == A

    def test_divisor_count(self):
        assert (zeta_series(N) * zeta_series(N)).coefficient(12) == 6

    def test_invert_round_trip(self):
        rng = random.Random(9)
        A = DirichletSeries([1] + [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(N - 1)])
        assert A.invert().invert() == A
        with pytest.raises(ValueError):
            DirichletSeries([0, 1]).invert()

    def test_shift_and_stretch(self):
        assert zeta_series(10).shift().coeffs == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
        assert unit_series(10).shift() == unit_series(10)
        assert zeta_series(10).stretch(2).coeffs == (1, 0, 0, 1, 0, 0, 0, 0, 1, 0)

    def test_truncation_to_min_order(self):
        assert (zeta_series(10) * zeta_series(5)).order == 5

    @pytest.mark.parametrize("support", [{2.9: 1, True: 3}, {True: 3, 2: 1}, {1: 0, 2.0: 1}, {1: 0, "2": 1}], ids=repr)
    def test_support_indices_must_be_ints(self, support):
        with pytest.raises(TypeError):
            divisor_polynomial(support, 4)


class TestEngineSeries:
    """Each worked identity rests on a quoted Dirichlet quotient; check each
    quotient against the named arithmetic sequence it is supposed to expand."""

    def test_totient_pair(self):
        zs, mu = zeta_series(N), mobius_series(N)
        phi = named_function("euler_phi")
        assert zs.shift() * mu == DirichletSeries(phi.values(N))
        phi_inv = named_function("phi_inv")
        assert zs * zs.shift().invert() == DirichletSeries(phi_inv.values(N))

    def test_ramanujan_rows(self):
        """Hoelder-style: the row series of c_k(r) comes from the divisor
        polynomial of r, for every r up to ten."""
        zs = zeta_series(N)
        for r in range(1, 11):
            G1 = divisor_polynomial({d: 1 for d in divisors(r)}, N)
            want = DirichletSeries([ramanujan_sum(k, r) for k in range(1, N + 1)])
            assert G1.shift() * zs.invert() == want, r

    def test_power_quotient_divisors(self):
        zs = zeta_series(N)
        for r in (1, 2, 3):
            rho = named_function("rho", r)
            assert zs.shift() * zs.stretch(r) == DirichletSeries(rho.values(N)), r

    def test_klee(self):
        zs = zeta_series(N)
        for r in (1, 2, 3):
            klee = named_function("klee", r)
            assert zs.shift() * zs.stretch(r).invert() == DirichletSeries(klee.values(N)), r

    def test_square_gcd_count(self):
        zs, mu = zeta_series(N), mobius_series(N)
        beta = named_function("beta")
        assert zs.shift() * zs.stretch(2) * mu == DirichletSeries(beta.values(N))

    def test_dedekind_psi(self):
        zs = zeta_series(N)
        psi = named_function("dedekind_psi")
        assert zs.shift() * zs * zs.stretch(2).invert() == DirichletSeries(psi.values(N))

    def test_liouville_phi(self):
        zs = zeta_series(N)
        phi = named_function("euler_phi")
        lhs = zs * zs.stretch(2).shift() * (zs.shift() * zs.stretch(2)).invert()
        assert lhs == DirichletSeries([liouville(k) * phi(k) for k in range(1, N + 1)])

    def test_liouville_power_divisors_parity(self):
        """For odd r the quotient expands to liouville * rho'_r as printed;
        for even r the Liouville weight survives on the r-th root."""
        from cyclozeta.dirichlet import _liouville_twisted_power_divisors

        zs = zeta_series(N)
        for r in (1, 2, 3, 4):
            lhs = zs.stretch(2) * zs.stretch(2 * r).shift() * (zs * zs.stretch(r).shift()).invert()
            want = DirichletSeries(
                [liouville(k) * _liouville_twisted_power_divisors(k, r) for k in range(1, N + 1)]
            )
            assert lhs == want, r
            printed = DirichletSeries(
                [liouville(k) * named_function("rho_prime", r)(k) for k in range(1, N + 1)]
            )
            assert (lhs == printed) is (r % 2 == 1), r

    def test_scaled_ramanujan_columns(self):
        zs = zeta_series(N)
        for n in (6, 12):
            for r in (1, 2, 3):
                support = {}
                for d in divisors(n):
                    g = math.gcd(r, d)
                    support[d // g] = support.get(d // g, 0) + g * mobius(n // d)
                G1 = divisor_polynomial(support, N)
                want = DirichletSeries([ramanujan_sum(n, r * k) for k in range(1, N + 1)])
                assert zs * G1.shift() == want, (n, r)

    def test_liouville_ramanujan_column(self):
        zs, mu = zeta_series(N), mobius_series(N)
        for n in (6, 12):
            G1 = divisor_polynomial({d: liouville(d) * mobius(n // d) for d in divisors(n)}, N)
            want = DirichletSeries([liouville(k) * ramanujan_sum(n, k) for k in range(1, N + 1)])
            assert zs.stretch(2) * G1.shift() * mu == want, n

    def test_alternating(self):
        zs = zeta_series(N)
        G1 = divisor_polynomial({1: -1, 2: 1}, N)
        assert zs * G1.shift() == DirichletSeries([(-1) ** k for k in range(1, N + 1)])

    def test_largest_odd(self):
        zs = zeta_series(N)
        half = divisor_polynomial({1: 1, 2: -1}, N)
        lodd = named_function("largest_odd")
        assert zs.shift() * divisor_polynomial({1: 1, 2: -2}, N) * half.invert() == DirichletSeries(
            lodd.values(N)
        )


class TestRamanujanRows:
    def test_row_series_from_divisor_polynomial(self):
        """The k-indexed series of c_d(k) is zeta times the Möbius-weighted
        divisor polynomial of d, for every d up to 30."""
        zs = zeta_series(N)
        for d in range(1, 31):
            row = zs * divisor_polynomial({t: t * mobius(d // t) for t in divisors(d)}, N)
            assert row == DirichletSeries([ramanujan_sum(d, k) for k in range(1, N + 1)]), d

    def test_even_function_series_from_fourier_coefficients(self):
        """Structural form of the even-function Dirichlet expansion: the
        series of a(k) is the Fourier-coefficient combination of the
        Ramanujan rows."""
        from cyclozeta.zetaprod import ramanujan_coefficients, random_even_function

        zs = zeta_series(N)
        for n in (6, 12):
            for t in range(5):
                a = random_even_function(random.Random(f"eq78:{n}:{t}"), n)
                r = ramanujan_coefficients(a)
                acc = DirichletSeries([0] * N)
                for d in divisors(n):
                    row = zs * divisor_polynomial({t2: t2 * mobius(d // t2) for t2 in divisors(d)}, N)
                    acc = acc + r(n // d) * row
                assert acc == DirichletSeries([a(k) for k in range(1, N + 1)]), (n, t)


class TestGTransforms:
    def test_all_ones_recovers_even_functions(self):
        t = g_transforms(A2, zeta_series(N))
        m, p = multiplicities(A2), power_sums(A2)
        mstar, pstar = star_functions(A2)
        for k in range(1, N + 1):
            assert t.m.coefficient(k) == m(k)
            assert t.p.coefficient(k) == p(k)
            assert t.mstar.coefficient(k) == mstar(k)
            assert t.pstar.coefficient(k) == pstar(k)
        assert t.pstar.coeffs[:6] == (1, 1, -2, 1, 1, -2)

    def test_each_transform_is_G_times_its_weight_polynomial(self):
        """Each transform's k-th coefficient is the sum of w(d) G(k/d) over d | k, d | n,
        and equals the product kernel it replaced, the weights' divisor polynomial
        times G; g_transform computes the one transform of its kind.  Orders below
        n drop the divisors past the order; G runs over dense, Fraction-valued
        and sparse series."""
        for n, order in [(n, 120) for n in (1, 6, 12, 30, 60)] + [(60, 50), (30, 7)]:
            z = random_zeta_product(random.Random(f"g-weights:{n}"), n)
            rng = random.Random(f"g-fractions:{n}:{order}")
            fractions = DirichletSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(order)])
            # example 2's G1 at r = 6: the divisor polynomial of 6's divisors
            sparse = TRANSFER_EXAMPLES[2].build(n, 6, order)[0]
            for G in (unit_series(order), zeta_series(order), mobius_series(order), zeta_series(order).shift(),
                      fractions, sparse):
                t = g_transforms(z, G)
                for kind in t._fields:
                    w = root_weights(z, kind)
                    want = [
                        sum(w[d] * G.coefficient(k // d) for d in divisors(n) if k % d == 0)
                        for k in range(1, order + 1)
                    ]
                    assert getattr(t, kind).coeffs == tuple(want), (n, order, kind)
                    assert getattr(t, kind) == divisor_polynomial(w, order) * G, (n, order, kind)
                    assert g_transform(z, G, kind) == getattr(t, kind)

    def test_unit_supports_on_divisors(self):
        t = g_transforms(A2, unit_series(N))
        for k in range(1, N + 1):
            if k not in (1, 3):
                assert t.m.coefficient(k) == 0


class TestPowerSeriesTransforms:
    def test_single_term_shifts(self):
        g = PowerSeriesQ([0, 1], 12)
        m_ps, _ = ps_g_transforms(A2, g)
        base = expand(sum(RationalFunctionQ(A2.e[3 // d], q_integer(d)) for d in divisors(3)), 12)
        assert m_ps.coeffs[1:] == base.coeffs[:-1]

    def test_geometric_recovers_even_function_shifted(self):
        g = PowerSeriesQ([0] + [1] * 59, 60)
        m_ps, p_ps = ps_g_transforms(A2, g)
        m, p = multiplicities(A2), power_sums(A2)
        assert m_ps.coefficient(0) == 0
        for k in range(1, 60):
            assert m_ps.coefficient(k) == m(k - 1)
            assert p_ps.coefficient(k) == p(k - 1)

    def test_zero_exponents(self):
        z = ZetaProduct(6, {d: 0 for d in divisors(6)})
        m_ps, p_ps = ps_g_transforms(z, PowerSeriesQ([0] + [1] * 19, 20))
        assert not any(m_ps.coeffs) and not any(p_ps.coeffs)

    def test_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            ps_g_transforms(A2, PowerSeriesQ([1, 1], 2))

    def test_matches_the_expanded_q_integer_sums(self):
        rng = random.Random(41)
        for n in (1, 2, 6, 12, 30, 36, 60):
            for order in (1, 2, 90):
                z = random_zeta_product(rng, n)
                g = PowerSeriesQ(
                    [0] + [rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
                           for _ in range(order - 1)],
                    order,
                )
                for kind, got in zip(("m", "p"), ps_g_transforms(z, g)):
                    want = sum(RationalFunctionQ(w, q_integer(d)) for d, w in root_weights(z, kind).items())
                    assert got == g * expand(want, order), (z, order, kind)


class TestStarSeries:
    def test_unit_reduces_to_totient_pairing(self):
        rng = random.Random(2)
        for n in (6, 12):
            z = random_zeta_product(rng, n)
            assert check_star_series(z, unit_series(60)).status == "pass"

    def test_zeta_and_mobius(self):
        rng = random.Random(3)
        for n in (6, 12, 30):
            for _ in range(3):
                z = random_zeta_product(rng, n)
                for G in (zeta_series(120), mobius_series(120)):
                    assert check_star_series(z, G).status == "pass"

    @pytest.mark.parametrize("kind", ["m", "p", "mstar", "pstar"])
    def test_corrupted_weight_table_fails(self, monkeypatch, kind):
        """The totient side is built without the weight table, so a wrong
        table behind either the root data or the transforms is caught."""
        import cyclozeta.dirichlet as dirichlet_mod
        import cyclozeta.zetaprod as zetaprod_mod

        real = zetaprod_mod.root_weights

        def corrupted(z, k):
            w = real(z, k)
            return {**w, z.n: w[z.n] + 1} if k == kind else w

        monkeypatch.setattr(zetaprod_mod, "root_weights", corrupted)
        monkeypatch.setattr(dirichlet_mod, "root_weights", corrupted)
        z = random_zeta_product(random.Random(13), 12)
        for G in (unit_series(60), zeta_series(60)):
            rep = check_star_series(z, G)
            assert rep.status == "fail"
            assert {mm["identity"] for mm in rep.mismatches} == {"mstar" if "m" in kind else "pstar"}
            if "p" in kind:
                # the record holds the identity's own sides: the first k where
                # (1/n) sum of G(k/j) v(j) over j | k, for v(j) the sum of
                # p(n/d) mu(d/j) j**2 over j | d | n, differs from p*_G(k)
                n, p, w = z.n, power_sums(z), corrupted(z, "pstar")

                def v(j):
                    return sum(p(n // d) * mobius(d // j) * j**2 for d in divisors(n) if d % j == 0)

                def lhs(k):
                    return Fraction(sum(G.coefficient(k // j) * v(j) for j in divisors(k)), n)

                def rhs(k):
                    return sum(w[d] * G.coefficient(k // d) for d in divisors(n) if k % d == 0)

                k = next(k for k in range(1, 61) if lhs(k) != rhs(k))
                (mm,) = rep.mismatches
                assert (mm["k"], mm["lhs"], mm["rhs"]) == (k, str(lhs(k)), str(rhs(k)))


class TestTransfer:
    def test_unit_pair(self):
        rng = random.Random(4)
        z = random_zeta_product(rng, 12)
        assert check_transfer(z, unit_series(N), unit_series(N)).status == "pass"

    def test_zeta_pairs(self):
        rng = random.Random(5)
        for n in (6, 12):
            z = random_zeta_product(rng, n)
            assert check_transfer(z, zeta_series(N), zeta_series(N)).status == "pass"
            assert check_transfer(z, zeta_series(N), mobius_series(N)).status == "pass"


def dirichlet_transfer_per_trial(cfg) -> Report:
    """``suite_dirichlet`` as it built its five series for every product:
    the oracle of the series built once per run."""
    ns, trials = cfg.pick_ns((6, 12, 30)), cfg.pick_trials(20)
    report = Report("dirichlet-transfer", context={"ns": list(ns), "trials": trials, "order": cfg.order})
    star_order = min(cfg.order, 120)
    for n in ns:
        for z in cfg.draw(("dirichlet", n), trials, random_zeta_product, n):
            if cfg.index in (None, 8):
                for G in (unit_series(star_order), zeta_series(star_order), mobius_series(star_order)):
                    report.absorb(check_star_series(z, G))
            if cfg.index in (None, 9):
                report.absorb(check_transfer(z, zeta_series(cfg.order), zeta_series(cfg.order)))
                report.absorb(check_transfer(z, zeta_series(cfg.order), mobius_series(cfg.order)))
    return report


class TestTransferSuiteSeries:
    """dirichlet-transfer builds its product-independent series once per run."""

    @pytest.mark.parametrize("order, index", [(200, None), (90, None), (150, 9)])
    def test_the_five_series_are_built_once_per_run(self, monkeypatch, order, index):
        built = []
        for name in ("unit_series", "zeta_series", "mobius_series"):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda k, real=real, name=name: built.append((name, k)) or real(k))
        report = verify.suite_dirichlet(SuiteConfig(trials=2, order=order, index=index))
        assert report.status == "pass"
        star = min(order, 120)
        assert sorted(built) == sorted([("unit_series", star), ("zeta_series", star), ("mobius_series", star),
                                        ("zeta_series", order), ("mobius_series", order)])

    @pytest.mark.parametrize("planted", [False, True])
    def test_the_suite_equals_the_one_that_builds_the_series_per_trial(self, monkeypatch, planted):
        """Also with a planted fault in the transforms of the Möbius series
        (coefficient 2 is -1) at k = 5, which fails the star check and the
        transfer check that read it, each at its own order."""
        if planted:
            real = cyclozeta.dirichlet.g_transform

            def faulty(z, G, kind):
                out = real(z, G, kind)
                if G.coefficient(2) != -1:
                    return out
                return DirichletSeries([c + (k == 5) for k, c in enumerate(out.coeffs, 1)])

            monkeypatch.setattr(cyclozeta.dirichlet, "g_transform", faulty)
        cfg = SuiteConfig(trials=3)
        got, want = verify.suite_dirichlet(cfg), dirichlet_transfer_per_trial(cfg)
        assert got.to_dict() == want.to_dict()
        assert got.status == ("fail" if planted else "pass")
        if planted:
            assert {(m["check"], m["order"]) for m in got.mismatches} == {("star-series", 120), ("transfer", 200)}


class TestConvolutionExamples:
    def test_hand_instance_rank_two(self):
        """k = 3 of the first identity: 3 m(3) = phi(3) p*(1) + phi(1) p*(3) = 0."""
        _, pstar = star_functions(A2)
        phi = named_function("euler_phi")
        assert phi(3) * pstar(1) + phi(1) * pstar(3) == 0
        assert 3 * multiplicities(A2)(3) == 0
        rep = convolution_example(1, A2, order=60)
        assert rep.status == "pass"

    def test_inverse_direction_instance(self):
        phi_inv = named_function("phi_inv")
        m = multiplicities(A2)
        _, pstar = star_functions(A2)
        assert pstar(3) == phi_inv(3) * 1 * m(1) + phi_inv(1) * 3 * m(3) == -2

    def test_alternating_example_small_conductor(self):
        z = ZetaProduct(2, {1: 1, 2: 0})
        assert convolution_example(11, z, order=50).status == "pass"

    def test_all_examples_random(self):
        rng = random.Random(6)
        for index in sorted(TRANSFER_EXAMPLES):
            needs_r = TRANSFER_EXAMPLES[index].needs_r
            for n in (6, 12):
                for r in ((1, 2, 3) if needs_r else (None,)):
                    z = random_zeta_product(rng, n)
                    rep = convolution_example(index, z, r=r, order=120)
                    assert rep.status == "pass", (index, n, r, rep.to_dict())

    @staticmethod
    def _corrupt_h(monkeypatch, index, k, delta):
        ex = TRANSFER_EXAMPLES[index]

        def build(n, r, order):
            G1, G2, h = ex.build(n, r, order)
            h = list(h)
            h[k - 1] += delta
            return G1, G2, h

        monkeypatch.setitem(TRANSFER_EXAMPLES, index, TransferExample(index, ex.label, ex.needs_r, build))

    @pytest.mark.parametrize("index, z, r, k, delta, first", [
        (1, A2, None, 7, 1, {"k": 7, "lhs": "7", "rhs": "8"}),
        (2, ZetaProduct(12, {1: 1, 2: -1, 3: 2, 4: 0, 6: 1, 12: -2}), 3, 5, -3, {"k": 5, "lhs": "0", "rhs": "6"}),
        (5, A2, None, 4, Fraction(1, 2), {"k": 4, "lhs": "4", "rhs": "9/2"}),
    ])
    def test_corrupted_sequence_reports_the_first_bad_k(self, monkeypatch, index, z, r, k, delta, first):
        self._corrupt_h(monkeypatch, index, k, delta)
        rep = convolution_example(index, z, r=r, order=60)
        assert rep.status == "fail"
        assert rep.mismatches == [first]
        assert example_report_json(rep)["first_mismatch"] == first

    def test_a_replaced_example_is_built_afresh(self, monkeypatch):
        """The example series are cached per example object, so replacing an
        entry of TRANSFER_EXAMPLES after a run with the same key is seen."""
        z = ZetaProduct(12, {1: 1, 2: -1, 3: 2, 4: 0, 6: 1, 12: -2})
        assert convolution_example(3, z, r=2, order=48).status == "pass"
        self._corrupt_h(monkeypatch, 3, 5, 1)
        assert convolution_example(3, z, r=2, order=48).mismatches[0]["k"] == 5

    def test_corrupted_inverse_table_reports_the_inverse_identity(self, monkeypatch):
        import cyclozeta.dirichlet as dirichlet_mod

        real = dirichlet_mod.named_function

        class Corrupted:
            def __init__(self, fn):
                self.fn = fn

            def values(self, order):
                v = list(self.fn.values(order))
                v[4] += 2
                return v

        monkeypatch.setattr(
            dirichlet_mod, "named_function",
            lambda name, *params: Corrupted(real(name, *params)) if name == "phi_inv" else real(name, *params),
        )
        # the phi_inv series is cached per order: build it from the patched
        # table, and keep the corrupted one from later tests
        dirichlet_mod._phi_inv_series.cache_clear()
        try:
            rep = convolution_example(1, A2, order=60)
        finally:
            dirichlet_mod._phi_inv_series.cache_clear()
        assert rep.mismatches == [{"identity": "inverse", "k": 5, "lhs": "1", "rhs": "3"}]

    def test_requires_parameter(self):
        with pytest.raises(ValueError):
            convolution_example(2, A2, order=50)
        with pytest.raises(ValueError):
            convolution_example(13, A2, order=50)

    def test_report_json_shape(self):
        rep = convolution_example(4, A2, r=2, order=50)
        doc = example_report_json(rep)
        assert set(doc) == {"example", "n", "params", "order", "status", "first_mismatch"}
        assert doc["example"] == 4 and doc["params"] == {"r": 2}
        assert doc["status"] == "pass" and doc["first_mismatch"] is None

    def test_transfer_holds_for_arbitrary_series(self):
        """The transfer relation is an identity in both series arguments."""
        rng = random.Random(71)
        G1 = DirichletSeries([rng.randint(-4, 4) for _ in range(80)])
        G2 = DirichletSeries([rng.randint(-4, 4) for _ in range(80)])
        assert check_transfer(A2, G1, G2).status == "pass"

    def test_first_mismatch_location(self):
        from cyclozeta.dirichlet import _record_first_difference

        a = DirichletSeries([1, 2, 3, 4])
        b = DirichletSeries([1, 2, 7, 4])
        report = Report("series")
        assert _record_first_difference(report, a, b, identity="mstar") is True
        assert report.mismatches == [{"identity": "mstar", "k": 3, "lhs": "3", "rhs": "7"}]
        assert _record_first_difference(report, a, a) is False
        assert len(report.mismatches) == 1

    def test_a_length_mismatch_records_both_orders(self):
        from cyclozeta.dirichlet import _record_first_difference

        short, long = DirichletSeries([1, 2]), DirichletSeries([1, 2, 3])
        report = Report("series")
        assert _record_first_difference(report, short, long, identity="mstar") is True
        assert _record_first_difference(report, long, short) is True
        assert report.mismatches == [
            {"identity": "mstar", "lhs_order": 2, "rhs_order": 3},
            {"lhs_order": 3, "rhs_order": 2},
        ]

    def test_right_side_is_h_times_the_pstar_transform(self):
        """The p* transform of the cached h * G2 equals h times the p*
        transform of G2, the product the right side used to be."""
        from cyclozeta.dirichlet import _example_series

        rng = random.Random(29)
        for index, ex in sorted(TRANSFER_EXAMPLES.items()):
            for n in (6, 12, 30):
                r = rng.randint(1, 3) if ex.needs_r else 0
                z = random_zeta_product(rng, n)
                G1, G2, h = ex.build(n, r, 90)
                hG2 = _example_series(ex, n, r, 90)[2]
                assert g_transform(z, hG2, "pstar") == DirichletSeries(h) * g_transform(z, G2, "pstar"), (index, n)
