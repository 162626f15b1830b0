"""Mechanically verify the triality rotations and the pentagon identity.

Both sides are computed as exact truncated series and compared
coefficient by coefficient.  The infinite charge sum on the pentagon's
right-hand side is truncated exactly: the exact degree of each term is
one quadratic in e3 between consecutive zeros of the charges and past
the outermost ones, so every term that starts below the requested order
is found, however far out it lies (degree profiles are not monotone),
and the window covers them all.

Run:  python3 demos/02_pentagon_and_triality.py
"""

from tetindex import (
    pentagon_check,
    pentagon_lhs,
    pentagon_rhs,
    pentagon_shifted_check,
    pentagon_window_extent,
    triality_check,
)

print("Triality: I(m,e) = (-q^(1/2))^m I(-e-m,m) = (-q^(1/2))^(-e) I(e,-e-m)\n")
for m, e in [(1, 0), (-2, 3), (4, -4)]:
    rep = triality_check(m, e, 12)
    print(f"  (m,e)=({m},{e}): {'holds' if rep.holds else 'FAILS'} to H={rep.verified_to}")

print("\nPentagon: I(m1-e2,e1) I(m2-e1,e2) = sum_e3 q^(e3) I(m1,e1+e3) I(m2,e2+e3) I(m1+m2,e3)\n")
for args in [(0, 0, 0, 0), (1, -1, 2, 0), (2, 2, 2, 2)]:
    rep = pentagon_check(*args, 8)
    w = pentagon_window_extent(*args, 8)
    status = "holds" if rep.holds else f"FAILS at {rep.first_mismatch}"
    print(f"  {args}: {status}, window half-width {w}")

print("\nThe case (2,2,2,2) is instructive: both sides reduce to")
print(f"  lhs = {pentagon_lhs(2, 2, 2, 2, 8)}")
print(f"  rhs = {pentagon_rhs(2, 2, 2, 2, 8)}")
print("and the only surviving right-hand term sits at e3 = -4, well past")
print("where a naive local-convergence test would have stopped the window.")

print("\nShifted pentagon (the seed of the Bailey machinery):")
for args in [(0, 0, 0, 0, 1), (1, 0, 1, 0, -1)]:
    rep = pentagon_shifted_check(*args, 8)
    print(f"  {args}: {'holds' if rep.holds else 'FAILS'}")
