"""Compute the tetrahedron index I(m, e) as an exact q-series.

The index is a Laurent series in q^(1/2) with integer coefficients.  All
precision bounds are given in half-units: `prec = H` means every
coefficient of q^(h/2) with h < H is exact.

Run:  python3 demos/01_tetrahedron_index.py
"""

from tetindex import tet_index, tet_min_degree

print("A few indices to order q^6 (H = 12 half-units):\n")
for m, e in [(0, 0), (1, 0), (0, -1), (2, -3), (-1, 2)]:
    print(f"  I({m:>2},{e:>2}) = {tet_index(m, e, 12)}")

print("\nFor odd e the series lives in half-integer powers of q:\n")
print(f"  I( 1, 1) = {tet_index(1, 1, 9)}")

print("\nMinimal degrees (half-units) are piecewise quadratic in (m, e), and 0")
print("on the rays m = 0, e >= 0 and e = 0, m <= 0:")
row = "      " + " ".join(f"{e:>4}" for e in range(-4, 5))
print(row)
for m in range(-4, 5):
    cells = " ".join(f"{tet_min_degree(m, e):>4}" for e in range(-4, 5))
    print(f"  m={m:>2} {cells}")
print("\n(These degrees are exact, in closed form; they drive every truncation.)")
