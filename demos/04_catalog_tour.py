"""Tour of the built-in singularity catalog.

The catalog stores divisor coefficients exactly as printed in the standard
tables, including two known misprints, so verification is a first-class
operation rather than a data-cleaning step.
"""

from cyclozeta import catalog

print("fixed entries:")
for entry in catalog.entries():
    print(f"  {entry.name:6s} n={entry.n:<3d} m-line {entry.m_line}")

print("\nfamilies on demand:")
for name in ("A_2", "A_7", "D_4", "D_3"):
    entry = catalog.get(name)
    print(f"  {name}: n={entry.n}, m-line {entry.m_line}, p-line {entry.p_line}")

print("\nconsistency sweep (rank families up to 12):")
flagged = [r for r in catalog.verify_all() if r.status == "flagged"]
for rep in flagged:
    print(f"  [{rep.context['name']}] {rep.flags[0]}")
print(f"  -> {len(flagged)} anomalies, exactly the recorded ones:",
      sorted(r.context["name"] for r in flagged) == sorted(catalog.expected_anomalies()))

print("\nexponent-reindexing pairs (matches through the inverse transform):")
pairs = catalog.saito_dual_pairs().context["pairs"]
for row in pairs:
    if row["dual_match"]:
        print(f"  {row['name']:6s} <-> {row['dual_match']}")
