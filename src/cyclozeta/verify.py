"""Verification suites over the whole package, with seeded deterministic data.

Every suite returns one :class:`~cyclozeta.report.Report`; a run is a fixed,
canonically ordered list of suites, so two runs with the same seed and sizes
produce byte-identical output.  Known documented discrepancies (the two
catalog power-line misprints and the eta-product sign) surface as flags and
do not fail a run.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import catalog as catalog_mod
from .arith import DivisorMap, divisors, euler_phi, mobius, ramanujan_sum
from .apostol import check_weighted_sum_identities, weighted_geometric_sum
from .dirichlet import (
    TRANSFER_EXAMPLES,
    check_star_series,
    check_transfer,
    convolution_example,
    example_report_json,
    mobius_series,
    unit_series,
    zeta_series,
)
from .etaprod import check_eta_forms
from .exactpoly import ONE, PolynomialQ, cyclotomic, necklace, tensor_product
from .report import Report
from .weights import (
    SeifertData,
    WeightSystem,
    char_poly_from_seifert,
    check_seifert_lines,
    check_weight_consistency,
    m_line_from_weights,
    p_line_from_weights,
    spectral_gf,
    spectral_mod,
)
from .zetaprod import (
    ZetaProduct,
    check_fourier_pair_family,
    check_mobius_pairing,
    check_pairing_preset,
    check_totient_pairing,
    cyclotomic_exponents,
    dft_power_sums,
    expand_divisor_product,
    multiplicities,
    power_sums,
    ramanujan_coefficients,
    ramanujan_reconstruct,
    random_even_function,
    random_zeta_product,
    root_weights,
    saito_transform,
    star_functions,
    to_rational_function,
)


@dataclass
class SuiteConfig:
    seed: int = 42
    nmax: int = 60
    order: int = 200
    trials: int | None = None
    ns: tuple[int, ...] | None = None
    index: int | None = None

    def __post_init__(self):
        # a repeated conductor checks nothing new: it runs once, at its first place
        if self.ns is not None:
            self.ns = tuple(dict.fromkeys(self.ns))

    def rng(self, *key) -> random.Random:
        """The generator of ``key``, seeded from the seed and the key."""
        return random.Random(f"{self.seed}:" + ":".join(str(k) for k in key))

    def draw(self, key: tuple, count: int, make, n: int) -> list:
        """``count`` instances ``make(rng, n)``, in order, from the one
        generator of ``key`` (a suite key and the conductor n).  A key holds
        no trial index, so trial t draws right after trials 0 .. t - 1: a
        smaller ``trials`` checks a prefix of the same instances, and ``ns``
        reruns at n what every other run draws at n."""
        rng = self.rng(*key)
        return [make(rng, n) for _ in range(count)]

    def pick_ns(self, default: Sequence[int]) -> Sequence[int]:
        return default if self.ns is None else self.ns

    def pick_trials(self, default: int) -> int:
        return default if self.trials is None else self.trials


def suite_cyclotomic(cfg: SuiteConfig) -> Report:
    """Product of cyclotomics over the divisor lattice, for every n <= nmax."""
    report = Report("cyclotomic-products", context={"nmax": cfg.nmax})
    for n in cfg.pick_ns(range(1, cfg.nmax + 1)):
        prod = ONE
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        report.expect(prod == PolynomialQ.monomial(n) - 1, n=n, identity="divisor-product")
        report.expect(cyclotomic(n).degree == euler_phi(n), n=n, identity="degree")
        # the Möbius product definition, re-checked by cross-multiplication
        num, den = ONE, ONE
        for d in divisors(n):
            mu = mobius(n // d)
            if mu == 1:
                num = num * (PolynomialQ.monomial(d) - 1)
            elif mu == -1:
                den = den * (PolynomialQ.monomial(d) - 1)
        report.expect(num == cyclotomic(n) * den, n=n, identity="mobius-product")
    return report


_ROOT_IDENTITIES = ("fourier-pairing", "total-multiplicity", "involution", "star-functions", "cyclotomic-exponents")


def _root_outcomes(z: ZetaProduct) -> tuple[bool, ...]:
    """The outcomes of z's identities, in the order of _ROOT_IDENTITIES; a
    failed fourier-pairing is the only one."""
    m = multiplicities(z)
    p = power_sums(z)
    if p != dft_power_sums(m):
        return (False,)
    star = saito_transform(z)
    mstar, pstar = star_functions(z)
    expo = cyclotomic_exponents(to_rational_function(z), z.n)
    return (
        True,
        m(0) == z.mu_e,
        saito_transform(star) == z,
        multiplicities(star) == mstar and power_sums(star) == pstar,
        # both in divisor order, so m(n/d) at the i-th divisor d is m's i-th value from the end
        [*expo.values.values()] == [*reversed(m.values.values())],
    )


def suite_root_data(cfg: SuiteConfig) -> Report:
    """Factorization exponents, Fourier pairing and Saito involution on
    seeded random products for every conductor.

    A conductor n has only 5**tau(n) products, so its 100 draws repeat some
    (1,662 of the 6,000 at seed 42).  The outcomes of a product's identities
    are a function of the product alone: they are computed at its first draw
    at n, and every draw records its instances from them under its own trial
    index.  The same exponent tuple at another conductor is another product,
    so the outcomes are kept per conductor."""
    trials = cfg.pick_trials(100)
    report = Report("root-data-coherence", context={"nmax": cfg.nmax, "trials": trials})
    ns = cfg.pick_ns(range(1, cfg.nmax + 1))
    for n in ns:
        outcomes = {}
        for t, z in enumerate(cfg.draw(("root", n), trials, random_zeta_product, n)):
            key = tuple(z.e.values.values())
            if key not in outcomes:
                outcomes[key] = _root_outcomes(z)
            for identity, ok in zip(_ROOT_IDENTITIES, outcomes[key]):
                report.expect(ok, n=n, trial=t, identity=identity)
        # additivity of the root data in the exponents
        z1, z2 = cfg.draw(("root-add", n), 2, random_zeta_product, n)
        report.expect(
            multiplicities(z1 * z2) == multiplicities(z1) + multiplicities(z2),
            n=n,
            identity="multiplicity-additivity",
        )
        report.expect(
            power_sums(z1 * z2) == power_sums(z1) + power_sums(z2), n=n, identity="power-sum-additivity"
        )
    # literal divisor products against the reduced form, on a bounded subset
    for n in list(range(1, 25)) + [30, 36, 42, 48, 60]:
        if n not in ns:
            continue
        for t, z in enumerate(cfg.draw(("root-direct", n), 3, random_zeta_product, n)):
            num, den = expand_divisor_product(z)
            rf = to_rational_function(z)
            report.expect(num * rf.den == rf.num * den, n=n, trial=t, identity="direct-product")
    return report


def suite_fourier(cfg: SuiteConfig) -> Report:
    """Ramanujan-sum expansion round trips on random even functions.

    Both directions read one reconstruction b of r = coefficients(a):
    b == a, and coefficients(b) == r.  coefficients is a function of the
    values alone, so when b == a it gives r again: the second direction is
    computed only when the first failed, and otherwise recorded as passed.
    So synthesis-analysis can fail only where analysis-synthesis did."""
    trials = cfg.pick_trials(50)
    report = Report("fourier-roundtrip", context={"nmax": cfg.nmax, "trials": trials})
    for n in cfg.pick_ns(range(1, cfg.nmax + 1)):
        for t, a in enumerate(cfg.draw(("fourier", n), trials, random_even_function, n)):
            r = ramanujan_coefficients(a)
            b = ramanujan_reconstruct(r)
            same = report.expect(b == a, n=n, trial=t, direction="analysis-synthesis")
            report.expect(same or ramanujan_coefficients(b) == r, n=n, trial=t, direction="synthesis-analysis")
    return report


def suite_tensor(cfg: SuiteConfig) -> Report:
    """Tensor powers of q**d - 1 and the algebra laws of the product."""
    report = Report("tensor-powers", context={"dmax": 4, "kmax": 3})
    for d in range(1, 5):
        base = PolynomialQ.monomial(d) - 1
        acc = base
        for k in range(2, 4):
            acc = tensor_product(acc, base)
            report.expect(acc == base ** (d ** (k - 1)), d=d, k=k)
    rng = cfg.rng("tensor")

    def rand_monic(deg):
        return PolynomialQ([rng.randint(-3, 3) for _ in range(deg)] + [1])

    for _ in range(4):
        f, g, h = (rand_monic(rng.randint(1, 4)) for _ in range(3))
        unit = PolynomialQ.monomial(1) - 1
        lhs = tensor_product(unit, f)
        report.expect(lhs == f, identity="unit", lhs=lhs, rhs=f)
        report.expect(tensor_product(f, g) == tensor_product(g, f), identity="commutative")
        left, right = tensor_product(tensor_product(f, g), h), tensor_product(f, tensor_product(g, h))
        report.expect(left == right, identity="associative")
    return report


def suite_weighted_sums(cfg: SuiteConfig) -> Report:
    """Closed forms of power-weighted sums, plain and alternating."""
    ns = cfg.pick_ns((6, 12))
    trials = cfg.pick_trials(10)
    report = Report("weighted-sums", context={"ns": list(ns), "rmax": 4, "trials": trials})
    for n in range(0, 7):
        for r in range(0, 5):
            for b, c in ((1, 0), (2, 3)):
                for alt in (False, True):
                    report.absorb(weighted_geometric_sum(n, b, c, r, alt))
    for n in ns:
        for r in range(0, 5):
            for b, c in ((1, 0), (2, 3)):
                for z in cfg.draw(("wsum", n, r, b, c), trials, random_zeta_product, n):
                    report.absorb(check_weighted_sum_identities(z, b, c, r))
    return report


def suite_pairings(cfg: SuiteConfig) -> Report:
    """Totient, necklace, log-derivative and Ramanujan-kernel pairings;
    ``cfg.index`` 3..7 keeps one proposition."""
    ns = cfg.pick_ns((6, 12, 30))
    trials = cfg.pick_trials(20)
    report = Report("mobius-pairings", context={"ns": list(ns), "trials": trials})
    for n in ns:
        xrng = cfg.rng("pairing-x", n)
        for z in cfg.draw(("pairing", n), trials, random_zeta_product, n):
            if cfg.index in (None, 3):
                report.absorb(check_totient_pairing(z, range(-2, 4)))
            if cfg.index in (None, 4):
                report.absorb(check_pairing_preset(z, "ones"))
                x = {d: Fraction(xrng.randint(-9, 9), xrng.randint(1, 4)) for d in divisors(n)}
                report.absorb(check_mobius_pairing(z, x))
            if cfg.index in (None, 5):
                report.absorb(check_pairing_preset(z, "necklace"))
            if cfg.index in (None, 6):
                report.absorb(check_pairing_preset(z, "log-derivative"))
            if cfg.index in (None, 7):
                report.absorb(check_pairing_preset(z, "ramanujan"))
    if cfg.index is None:
        # necklace polynomials invert the monomial sequence on every divisor lattice
        inversion = Report("necklace-inversion")
        for dd in range(1, min(cfg.nmax, 60) + 1):
            acc = PolynomialQ()
            for dp in divisors(dd):
                acc = acc + dp * necklace(dp)
            inversion.expect(acc == PolynomialQ.monomial(dd), d=dd)
        report.absorb(inversion)
        # the two-parameter Fourier family, random tables at n = 12
        rng = cfg.rng("pair-family")
        for _ in range(5):
            F = DivisorMap(12, {d: Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for d in divisors(12)})
            for s in (0, 1):
                report.absorb(check_fourier_pair_family(12, F, s))
        # the starred Fourier pair as a family member
        for n in ns:
            [z] = cfg.draw(("pair-family-star", n), 1, random_zeta_product, n)
            F = DivisorMap(n, root_weights(z, "pstar"))
            mstar, pstar = star_functions(z)
            sub = Report("star-fourier-pair", context={"n": n})
            for k in range(n):
                want = sum(mstar(n // d) * ramanujan_sum(d, k) for d in divisors(n))
                if not sub.expect(pstar(k) == want, identity="pstar-expansion", k=k):
                    break
            report.absorb(sub)
            report.absorb(check_fourier_pair_family(n, F, 0))
    return report


def suite_dirichlet(cfg: SuiteConfig) -> Report:
    """Star-transform series and the transfer identity, coefficientwise;
    ``cfg.index`` 8 or 9 keeps one proposition."""
    ns = cfg.pick_ns((6, 12, 30))
    trials = cfg.pick_trials(20)
    report = Report("dirichlet-transfer", context={"ns": list(ns), "trials": trials, "order": cfg.order})
    # the series G do not depend on the product: built once per run
    star_order = min(cfg.order, 120)
    star_gs = (unit_series(star_order), zeta_series(star_order), mobius_series(star_order))
    zeta, mu = zeta_series(cfg.order), mobius_series(cfg.order)
    for n in ns:
        for z in cfg.draw(("dirichlet", n), trials, random_zeta_product, n):
            if cfg.index in (None, 8):
                for G in star_gs:
                    report.absorb(check_star_series(z, G))
            if cfg.index in (None, 9):
                report.absorb(check_transfer(z, zeta, zeta))
                report.absorb(check_transfer(z, zeta, mu))
    return report


def suite_examples(cfg: SuiteConfig) -> Report:
    """The twelve worked convolution identities on seeded random products."""
    ns = cfg.pick_ns((6, 12, 30))
    trials = cfg.pick_trials(20)
    if cfg.index is not None and cfg.index not in TRANSFER_EXAMPLES:
        raise ValueError(f"example index must be 1..{len(TRANSFER_EXAMPLES)}, got {cfg.index}")
    indices = sorted(TRANSFER_EXAMPLES) if cfg.index is None else [cfg.index]
    report = Report(
        "convolution-examples",
        context={"indices": indices, "ns": list(ns), "trials": trials, "order": cfg.order},
    )
    for index in indices:
        ex = TRANSFER_EXAMPLES[index]
        r_values = (1, 2, 3) if ex.needs_r else (None,)
        for n in ns:
            for r in r_values:
                for z in cfg.draw(("example", index, n, r), trials, random_zeta_product, n):
                    sub = convolution_example(index, z, r=r, order=cfg.order)
                    report.absorb(sub)
                    report.example_docs.append(example_report_json(sub))
    # the two hand-checkable instances
    a2 = ZetaProduct(3, {1: -1, 3: 1})
    _, pstar = star_functions(a2)
    hand = Report("example-hand-instances")
    hand.expect(euler_phi(3) * pstar(1) + euler_phi(1) * pstar(3) == 0, instance="rank-two")
    report.absorb(hand)
    report.absorb(convolution_example(1, a2, order=60))
    report.absorb(convolution_example(11, ZetaProduct(2, {1: 1, 2: 0}), order=50))
    return report


def suite_eta(cfg: SuiteConfig) -> Report:
    """Eta-style expansions over the catalog entries whose conductor is in
    ``cfg.ns``, or over every entry when none is (or ``cfg.ns`` is unset);
    one flag for the sign."""
    order = min(cfg.order, 100)
    entries = catalog_mod.walked_entries()
    entries = [e for e in entries if e.n in cfg.pick_ns(())] or entries
    report = Report("eta-expansion", context={"order": order, "entries": len(entries)})
    for entry in entries:
        sub = check_eta_forms(entry.zeta_product(), order)
        sub.context["name"] = entry.name
        report.absorb(sub)
    return report


def suite_weights(cfg: SuiteConfig) -> Report:
    """Weight systems against the catalog, plus the Seifert cross-check."""
    report = Report("weight-systems")
    for text in ("1,1,1;3", "1,1,2;4", "1,2,3;6", "15,10,6;30", "6,4,3;12", "1,2,2;4", "1,1,1;2", "1,1,1;1"):
        report.absorb(check_weight_consistency(WeightSystem.parse(text)))

    cross = Report("weights-vs-catalog")
    p8 = spectral_gf(WeightSystem(1, 1, 1, 3))
    cross.expect(p8 == PolynomialQ([1, 3, 3, 1]) and sum(p8.coeffs) == 8, identity="parabolic-spectral")
    p8_mod = spectral_mod(WeightSystem(1, 1, 1, 3))
    cross.expect(p8_mod == PolynomialQ([2, 3, 3]), identity="parabolic-spectral-mod")
    for text, name in (("1,1,1;3", "P_8"), ("1,1,2;4", "X_9"), ("1,2,3;6", "J_10")):
        w = WeightSystem.parse(text)
        entry = catalog_mod.get(name)
        line = {d: v for d, v in m_line_from_weights(w).items() if v}
        cross.expect(line == entry.m_line, identity="m-line", name=name)
        implied_p = {d: v for d, v in root_weights(entry.zeta_product(), "p").items() if v}
        p_line = {d: v for d, v in p_line_from_weights(w).items() if v}
        cross.expect(p_line == implied_p, identity="p-line", name=name)
    report.absorb(cross)

    seifert = Report("seifert-exceptional-root-system")
    w = WeightSystem(15, 10, 6, 30)
    sd = SeifertData(0, ((2, 1), (3, 1), (5, 1)))
    _, z = char_poly_from_seifert(w, sd)
    seifert.expect(z == catalog_mod.get("E_8").zeta_product(), identity="exponent-vector")
    report.absorb(seifert)
    report.absorb(check_seifert_lines(w, sd))
    report.absorb(check_seifert_lines(WeightSystem(7, 11, 13, 5), SeifertData(0, ())))
    return report


def suite_catalog(cfg: SuiteConfig) -> Report:
    """Every entry's internal consistency; exactly two expected anomalies."""
    reports = catalog_mod.verify_catalog()
    report = Report("catalog", context={"entries": sum(1 for r in reports if r.check == "catalog-entry")})
    for sub in reports:
        report.absorb(sub)
    return report


SUITES = (
    ("cyclotomic-products", suite_cyclotomic),
    ("root-data-coherence", suite_root_data),
    ("fourier-roundtrip", suite_fourier),
    ("tensor-powers", suite_tensor),
    ("weighted-sums", suite_weighted_sums),
    ("mobius-pairings", suite_pairings),
    ("dirichlet-transfer", suite_dirichlet),
    ("convolution-examples", suite_examples),
    ("eta-expansion", suite_eta),
    ("weight-systems", suite_weights),
    ("catalog", suite_catalog),
)

_PROP_INDEX_SUITE = {
    1: "tensor-powers",
    2: "weighted-sums",
    3: "mobius-pairings",
    4: "mobius-pairings",
    5: "mobius-pairings",
    6: "mobius-pairings",
    7: "mobius-pairings",
    8: "dirichlet-transfer",
    9: "dirichlet-transfer",
}

SCOPE_SUITES = {
    "all": [name for name, _ in SUITES],
    "prop": list(dict.fromkeys(_PROP_INDEX_SUITE.values())),
    "example": ["convolution-examples"],
    "catalog": ["catalog"],
    "eta": ["eta-expansion"],
    "weights": ["weight-systems"],
}


# The size contract of verify, by cost, measured on a 2-core x86 host
# (Python 3.11.7); cli exits 2 with the message of size_error.
# --nmax sets the conductors 1..nmax of cyclotomic-products,
# root-data-coherence (100 trials by default) and fourier-roundtrip (50):
# `verify all` took 1.5-1.9 s at --nmax 60 and 3.3-3.4 s at 120 (two runs
# each, fresh interpreters).  --trials replaces every random suite's
# default; 100 is the largest one.  The other random suites run at the
# conductors (6, 12, 30), or at the --n list, which replaces every suite's
# conductors.  At each such n, weighted-sums and mobius-pairings build their
# e-free tables once (1.2-1.4 s at n = 360, 8.6 s at 1260, with one trial)
# and then check each trial (0.09-0.11 s at n = 360); dirichlet-transfer and
# convolution-examples cost about the same per trial at every n, and grow
# with --order.  So a run's work is (trials + 8) times the sum over its
# conductors of n**2 (when it runs the first two suites) plus 30 * order
# (when it runs the last two): trials counts as 20 when --trials is not
# given.  The 8 dates from when the tables cost about as much as eight
# trials; at n = 360 they now cost about twelve, so the work weighs the
# tables a little below their time.
# `verify all` has work 534,240.  The slowest accepted runs measured (two
# runs each): --nmax 120 --trials 100 --order 399 in 6.6-7.1 s, --nmax 120
# --trials 100 in 6.0-6.5 s, --n 360 in 3.2-3.4 s, --n 660 --trials 1
# --order 1 in 2.7-3.1 s and --n 190 --trials 100 --order 1 in 2.4-2.9 s.
MAX_NMAX = 120
MAX_TRIALS = 100
MAX_ORDER = 1000
MAX_WORK = 4_000_000


def size_error(scope: str, cfg: SuiteConfig) -> str | None:
    """Why running ``scope`` at the sizes of ``cfg`` is refused, or None if
    it is within the size contract."""
    if cfg.nmax > MAX_NMAX:
        return f"--nmax {cfg.nmax} is above the size limit {MAX_NMAX}"
    if cfg.order > MAX_ORDER:
        return f"--order {cfg.order} is above the size limit {MAX_ORDER}"
    if cfg.trials is not None and cfg.trials > MAX_TRIALS:
        return f"--trials {cfg.trials} is above the size limit {MAX_TRIALS}"
    names = suite_names(scope, cfg.index)
    square = not {"weighted-sums", "mobius-pairings"}.isdisjoint(names)
    linear = not {"dirichlet-transfer", "convolution-examples"}.isdisjoint(names)
    per_trial = sum(square * n * n + linear * 30 * cfg.order for n in cfg.pick_ns((6, 12, 30)))
    work = (cfg.pick_trials(20) + 8) * per_trial
    if work > MAX_WORK:
        return (
            f"the run's work (trials + 8) x sum of (n^2 + 30 x order) over its conductors is {work}, "
            f"above the size limit {MAX_WORK}"
        )
    return None


def suite_names(scope: str, index: int | None = None) -> list[str]:
    """The suites that one scope runs, in canonical order; a proposition
    ``index`` of the scope 'prop' keeps its suite alone."""
    if scope not in SCOPE_SUITES:
        raise ValueError(f"unknown scope {scope!r}")
    if index is not None and scope not in ("prop", "example"):
        raise ValueError(f"--index applies to the scopes 'prop' and 'example' only, not {scope!r}")
    if scope == "prop" and index is not None:
        if index not in _PROP_INDEX_SUITE:
            raise ValueError(f"prop index must be 1..9, got {index}")
        return [_PROP_INDEX_SUITE[index]]
    return SCOPE_SUITES[scope]


def run_scope(scope: str, cfg: SuiteConfig, timings: dict[str, float] | None = None) -> list[Report]:
    """Run the suites of one scope in canonical order; each suite's wall time
    in seconds goes into ``timings`` when it is given."""
    names = suite_names(scope, cfg.index)
    table = dict(SUITES)
    reports = []
    for name in names:
        start = time.perf_counter()
        reports.append(table[name](cfg))
        if timings is not None:
            timings[name] = time.perf_counter() - start
    return reports


def rerun_command(scope: str, cfg: SuiteConfig, report: Report) -> str | None:
    """The command that repeats a failing report's first mismatch at its
    conductor alone, or None when that mismatch names no conductor.

    It keeps the scope, --index and --seed, and --nmax, --order and --trials
    when they differ from the defaults.  Each suite key and conductor n has
    one generator, seeded from the seed and the key, whose trials draw from
    it in order (:meth:`SuiteConfig.draw`), so ``--n`` draws at n what the
    failing run drew there.  The catalog suite runs whole whatever --n says,
    so its command leaves --n out; it is the one such suite whose mismatches
    name a conductor.
    """
    n = report.mismatches[0].get("n") if report.mismatches else None
    if type(n) is not int or n < 1:
        return None
    words = ["cyclozeta", "verify", scope]
    if cfg.index is not None:
        words += ["--index", str(cfg.index)]
    words += ["--seed", str(cfg.seed)]
    if report.check != "catalog":
        words += ["--n", str(n)]
    defaults = SuiteConfig()
    for name in ("nmax", "order", "trials"):
        if getattr(cfg, name) != getattr(defaults, name):
            words += [f"--{name}", str(getattr(cfg, name))]
    return " ".join(words)
