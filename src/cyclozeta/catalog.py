"""Built-in singularity catalog and its internal consistency verifier.

Each entry stores the divisor coefficients of the multiplicity and power-sum
generating functions

    sum_k m(k) q**k / (1 - q**n)   and   sum_k p(k) q**k / (1 - q**n)

exactly as printed in the standard tables, misprints included; the verifier,
not the data, is where correctness lives.  The A and D families are generated
from their closed forms for any rank (coefficients landing on the same
divisor are merged, e.g. D_3 = A_3).

Two stored entries are intentionally inconsistent with the exponent relation
p-coefficient(d) = d * e(d) and are reported as flags: the X_9 power line has
a flipped sign at d = 2, and the J_10 power line carries exponent 4, which
does not divide 6 (the recomputed term sits at d = 3).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .arith import DivisorMap, canonical_int, divisors, mobius_transform
from .exactpoly import PolynomialQ
from .report import Report
from .zetaprod import ZetaProduct, root_weights, saito_dual, saito_transform

_EXPECTED_ANOMALIES = ("X_9", "J_10")
# the A and D families are walked up to this rank by every catalog-wide check
FAMILY_RANK = 12


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n: int
    m_line: dict[int, int]
    p_line: dict[int, int]
    source: str
    note: str = ""

    def exponents(self) -> DivisorMap:
        """e(d) = m-line coefficient at n/d (requires a divisor-legal m-line)."""
        return DivisorMap(self.n, {d: self.m_line.get(self.n // d, 0) for d in divisors(self.n)})

    def zeta_product(self) -> ZetaProduct:
        return ZetaProduct(self.n, self.exponents())

    def m_even(self) -> DivisorMap:
        return mobius_transform(DivisorMap.from_partial(self.n, self.m_line))

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "n": self.n,
            "m_line": {str(d): v for d, v in sorted(self.m_line.items())},
            "p_line": {str(d): v for d, v in sorted(self.p_line.items())},
            "source": self.source,
        }
        if self.note:
            out["note"] = self.note
        return out


@cache
def entries() -> tuple[CatalogEntry, ...]:
    """The fixed catalog entries (families come from :func:`get`)."""
    raw = json.loads(resources.files("cyclozeta").joinpath("data/catalog.json").read_text())
    return tuple(
        CatalogEntry(
            name=item["name"],
            n=item["n"],
            m_line={int(k): v for k, v in item["m_line"].items()},
            p_line={int(k): v for k, v in item["p_line"].items()},
            source=item["source"],
            note=item.get("note", ""),
        )
        for item in raw["entries"]
    )


def _merge(terms: list[tuple[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for d, v in terms:
        out[d] = out.get(d, 0) + v
    return {d: v for d, v in sorted(out.items()) if v}


def a_family(l: int) -> CatalogEntry:
    """A-series entry of rank l >= 1: conductor n = l + 1."""
    if l < 1:
        raise ValueError("A family needs rank >= 1")
    n = l + 1
    return CatalogEntry(
        name=f"A_{l}",
        n=n,
        m_line=_merge([(1, 1), (n, -1)]),
        p_line=_merge([(1, -1), (n, n)]),
        source="simple-parabolic",
    )


def d_family(l: int) -> CatalogEntry:
    """D-series entry of rank l >= 3: conductor n = 2l - 2."""
    if l < 3:
        raise ValueError("D family needs rank >= 3")
    n = 2 * l - 2
    return CatalogEntry(
        name=f"D_{l}",
        n=n,
        m_line=_merge([(1, 1), (2, -1), (n // 2, 1), (n, -1)]),
        p_line=_merge([(1, -1), (2, 2), (n // 2, -(n // 2)), (n, n)]),
        source="simple-parabolic",
    )


def walked_entries() -> list[CatalogEntry]:
    """The entries every catalog-wide check walks: the fixed ones, then
    A_1..A_FAMILY_RANK and D_3..D_FAMILY_RANK."""
    return [
        *entries(),
        *map(a_family, range(1, FAMILY_RANK + 1)),
        *map(d_family, range(3, FAMILY_RANK + 1)),
    ]


def get(name: str) -> CatalogEntry:
    """Look an entry up by name: fixed names like ``E8``/``Q_12``, or the
    families ``A_<l>`` / ``D_<l>`` (rank in canonical ASCII decimal)."""
    # spaces are dropped, but a number split by them names no entry
    squeezed = "" if re.search("[0-9] +[0-9]", name) else name.replace(" ", "")
    fam = re.fullmatch(r"([AD])_?(.*)", squeezed)
    if fam and (rank := canonical_int(fam.group(2), minimum=1)):
        return a_family(rank) if fam.group(1) == "A" else d_family(rank)
    canon = squeezed if "_" in squeezed else re.sub(r"([A-Z]+)(\d+)", r"\1_\2", squeezed)
    for entry in entries():
        if entry.name == canon:
            return entry
    raise KeyError(f"unknown catalog entry {name!r}")


# ---------------------------------------------------------------------------
# known root exponents of the finite reflection groups


def coxeter_exponents(name: str) -> list[int] | None:
    """Exponent multiset for the simple entries; None for the others."""
    fam = re.fullmatch(r"([ADE])_(\d+)", name)
    if not fam:
        return None
    letter, rank = fam.group(1), int(fam.group(2))
    if letter == "A":
        return list(range(1, rank + 1))
    if letter == "D":
        return sorted(list(range(1, 2 * rank - 3 + 1, 2)) + [rank - 1])
    if letter == "E" and rank in (6, 7, 8):
        return {
            6: [1, 4, 5, 7, 8, 11],
            7: [1, 5, 7, 9, 11, 13, 17],
            8: [1, 7, 11, 13, 17, 19, 23, 29],
        }[rank]
    return None


# ---------------------------------------------------------------------------
# verification


def verify_entry(entry: CatalogEntry) -> Report:
    """Internal consistency of one entry.

    Recovers the exponents e from the m-line, recomputes the implied power
    line p(d) = d e(d), and compares against the stored one; any discrepancy
    is reported as one flag describing every offending term.  Entries with
    known Coxeter exponents additionally have their multiplicity expansion
    compared with the exponent multiset.
    """
    report = Report("catalog-entry", context={"name": entry.name, "n": entry.n})
    n = entry.n
    bad_m = [d for d in entry.m_line if n % d != 0]
    if not report.expect(not bad_m, identity="m-line divides n", exponents=bad_m):
        return report
    implied = {d: v for d, v in root_weights(entry.zeta_product(), "p").items() if v}
    problems = []
    for d in sorted(entry.p_line):
        if n % d != 0:
            v = entry.p_line[d]
            hint = [dd for dd, vv in implied.items() if vv == v and dd not in entry.p_line]
            where = f"; recomputed term sits at d={hint[0]}" if hint else ""
            problems.append(f"stored {v}/(1-q^{d}) but {d} does not divide {n}{where}")
    for d in sorted(set(divisors(n)) | set(k for k in entry.p_line if n % k == 0)):
        stored = entry.p_line.get(d, 0)
        want = implied.get(d, 0)
        if stored != want:
            problems.append(f"stored {stored}/(1-q^{d}) vs recomputed {want}/(1-q^{d})")
    if problems:
        report.flag(f"{entry.name} power line inconsistent with its m-line: " + "; ".join(problems))

    expo = coxeter_exponents(entry.name)
    if expo is not None:
        expansion = PolynomialQ(entry.m_even().residues())
        want = PolynomialQ([sum(1 for x in expo if x == k) for k in range(n)])
        report.expect(expansion == want, identity="root-exponents", lhs=expansion, rhs=want)
    return report


def verify_all() -> list[Report]:
    """Verify each of :func:`walked_entries`."""
    return [verify_entry(entry) for entry in walked_entries()]


def expected_anomalies() -> tuple[str, ...]:
    return _EXPECTED_ANOMALIES


def verify_catalog() -> list[Report]:
    """:func:`verify_all`, the dual-pair search, and one check that the
    flagged entries are exactly the expected anomalies."""
    reports = verify_all()
    found = sorted(r.context["name"] for r in reports if r.status == "flagged")
    expected = sorted(expected_anomalies())
    anomalies = Report("anomaly-set")
    anomalies.expect(found == expected, found=found, expected=expected)
    return reports + [saito_dual_pairs(), anomalies]


def saito_dual_pairs() -> Report:
    """Apply the exponent reindexing d -> e(n/d) to every fixed entry and
    search the catalog for matches of the transform and of its negation."""
    report = Report("saito-dual-pairs")
    by_product = {entry.zeta_product(): entry.name for entry in entries()}
    table = []
    for entry in entries():
        z = entry.zeta_product()
        star = saito_transform(z)
        report.expect(saito_transform(star) == z, identity="involution", entry=entry.name)
        table.append(
            {
                "name": entry.name,
                "transform": {d: v for d, v in star.e.items()},
                "transform_match": by_product.get(star),
                "dual_match": by_product.get(saito_dual(z)),
            }
        )
    report.context["pairs"] = table
    return report
