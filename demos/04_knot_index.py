"""Evaluate lattice sums of tetrahedron indices from the expression DSL.

The figure-eight-knot index is the rank-2 lattice sum
    sum_{k1,k2} I(k1, k2) I(k2, k1)
whose first coefficients are 1, -8, -9, 18, 46.  The evaluator bounds
the term degree from below on boxes of directions, finds every lattice
point whose term starts below the requested order, and sums only those;
the box half-width is the max-norm of the farthest of them.

Run:  python3 demos/04_knot_index.py
"""

from tetindex import IND41_TEXT, eval_expr_with_box, format_expr, parse_expr

expr = parse_expr(IND41_TEXT)
print(f"Expression: {format_expr(expr)}\n")

series, box = eval_expr_with_box(expr, 14)
print(f"Value to order q^7 (box half-width {box}):\n  {series}\n")

print("Any expression in the grammar works, e.g. a rank-1 sum with a")
print("half-integer prefactor:\n")
text = "sum k : q^(k/2) * I(1, k) * I(-1, k + 1)"
e2 = parse_expr(text)
s2, box2 = eval_expr_with_box(e2, 10)
print(f"  {text}")
print(f"  = {s2}   (box half-width {box2})")
