# Graded integral elements: each component of an element satisfies a monic
# relation over the matching component of a subrng.  Finite extensions make
# this automatic; the interesting output is the minimal degree, and the
# push-down identity transports a halo relation along any 0-part scalar.

from huliu import (
    catalog,
    component_ring,
    identity_hom,
    integral_witness,
    push_down_check,
    ring_product,
    semidirect_null,
    validate_lcrng,
    zmod,
)

r8 = catalog()["r8"]
s1 = r8.halo  # the halo part of the whole carrier, as a coefficient subring
ring1 = component_ring(r8, 1)
for u1 in sorted(r8.halo):
    w = integral_witness(ring1, s1, u1)
    print(f"r8: halo element {u1} has minimal monic degree {w.degree},"
          f" coefficients {w.coefficients}")
    for x0 in sorted(r8.r0):
        assert push_down_check(r8, x0, u1, w)
print("push-down identity holds for every scalar in the 0-part\n")

# a structure of order 16 whose halo ring is F2 x F2: over the tiny subring
# {0, local identity} the idempotents need a degree-2 relation
b = ring_product(zmod(2), zmod(2))
u16 = validate_lcrng(semidirect_null(b, b, identity_hom(b), name="u16"))
ring1 = component_ring(u16, 1)
small = frozenset({0, u16.local_identity})
for u in sorted(u16.halo):
    w = integral_witness(ring1, small, u)
    print(f"u16: halo element {u} is integral of degree {w.degree} over {sorted(small)}")
