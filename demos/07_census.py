# Empirical census: which abelian groups carry any structure at all?
# Cyclic groups of prime-power order never decompose, so they carry none;
# the Klein four-group carries exactly one up to isomorphism, and so does
# Z4xZ4: the null left action of Z4 on itself through the identity.  Z2^3
# carries five: each is fixed by its splitting triple (R0, halo, phi), and the
# census keeps the first structure it finds for each triple up to isomorphism.

from huliu import catalog, direct_sum_group, enumerate_lcrngs, lcrng_isomorphic, zmod

for label, group in [
    ("Z2", zmod(2).group),
    ("Z4", zmod(4).group),
    ("Z6", zmod(6).group),
    ("Z2xZ2", direct_sum_group([2, 2])),
    ("Z2xZ4", direct_sum_group([2, 4])),
    ("Z4xZ4", direct_sum_group([4, 4])),
    ("Z2xZ2xZ2", direct_sum_group([2, 2, 2])),
]:
    census = enumerate_lcrngs(group)
    raw = enumerate_lcrngs(group, dedup=False)
    print(f"{label}: {len(raw)} structures, {len(census)} up to isomorphism")
    for s in census:
        print(f"   left identity {s.left_identity}, halo {sorted(s.halo)}")

print()
klein = enumerate_lcrngs(direct_sum_group([2, 2]))[0]
print("the Klein structure is the catalog's r4:",
      lcrng_isomorphic(klein, catalog()["r4"]))
