"""Independent naive reference implementation used as a test oracle.

Deliberately shares nothing with the package under test: series are
plain dicts {half_exponent: int_coefficient}, summation windows are
fixed and huge, there is no caching and no early stopping.  Keep this
file dumb; its value is that it can only be wrong independently.
"""

import itertools

N_WINDOW = 200  # summands taken above the summation floor
E_WINDOW = 32  # half-width of fixed charge-sum windows


def trim(d, prec):
    return {h: c for h, c in d.items() if c and h < prec}


def dict_add(a, b, prec):
    out = dict(trim(a, prec))
    for h, c in trim(b, prec).items():
        out[h] = out.get(h, 0) + c
    return trim(out, prec)


def dict_mul(a, b, prec):
    out = {}
    for ha, ca in a.items():
        for hb, cb in b.items():
            h = ha + hb
            if h < prec:
                out[h] = out.get(h, 0) + ca * cb
    return trim(out, prec)


def dict_scale(a, c, h):
    """c * q^(h/2) * a, for c != 0."""
    return {x + h: c * y for x, y in a.items()}


def dict_inv(a, prec):
    # constant term must be +-1; solve the convolution triangularly
    a0 = a[0]
    assert a0 in (1, -1)
    out = {0: a0}
    for h in range(1, prec):
        acc = 0
        for ha, ca in a.items():
            if 0 < ha <= h:
                acc += ca * out.get(h - ha, 0)
        if acc:
            out[h] = -a0 * acc
    return trim(out, prec)


def naive_qpoch(n, prec):
    out = {0: 1}
    for k in range(1, n + 1):
        out = dict_mul(out, {0: 1, 2 * k: -1}, prec)
    return out


def naive_tet_term(n, m, e, prec):
    lead = n * (n + 1) - (2 * n + e) * m
    rel = prec - lead
    if rel <= 0:
        return {}
    body = dict_mul(
        dict_inv(naive_qpoch(n, rel), rel), dict_inv(naive_qpoch(n + e, rel), rel), rel
    )
    sign = -1 if n % 2 else 1
    return {h + lead: sign * c for h, c in body.items()}


def naive_tet_index(m, e, prec, n_window=N_WINDOW):
    floor = max(0, -e)
    out = {}
    for n in range(floor, floor + n_window + 1):
        out = dict_add(out, naive_tet_term(n, m, e, prec), prec)
    return out


def naive_min_degree(m, e, prec):
    d = naive_tet_index(m, e, prec)
    assert d, f"oracle precision {prec} too low to see the degree of I({m},{e})"
    return min(d)


def naive_lattice_sum(term, rank, half_width, prec):
    """The sum of term(k) over the whole cube max|k_j| <= half_width, with
    term(k) = (sign, pref_h, [(m, e), ...]) standing for
    sign * q^(pref_h/2) * prod I(m, e).  Each factor is summed to
    prec - pref_h, which is enough because no index has a term below
    q^0 (asserted on every factor)."""
    out = {}
    side = range(-half_width, half_width + 1)
    for k in itertools.product(side, repeat=rank):
        sign, pref_h, charges = term(k)
        rel = prec - pref_h
        if rel <= 0:
            continue
        prod = {0: sign}
        for m, e in charges:
            factor = naive_tet_index(m, e, rel)
            assert min(factor, default=0) >= 0, (m, e)
            prod = dict_mul(prod, factor, rel)
        out = dict_add(out, {h + pref_h: c for h, c in prod.items()}, prec)
    return out


def naive_pentagon_lhs(m1, m2, e1, e2, prec):
    return dict_mul(
        naive_tet_index(m1 - e2, e1, prec), naive_tet_index(m2 - e1, e2, prec), prec
    )


def naive_pentagon_rhs(m1, m2, e1, e2, prec, e_window=E_WINDOW):
    m3 = m1 + m2
    out = {}
    for e3 in range(-e_window, e_window + 1):
        rel = prec - 2 * e3
        if rel <= 0:
            continue
        term = dict_mul(
            naive_tet_index(m1, e1 + e3, rel),
            dict_mul(
                naive_tet_index(m2, e2 + e3, rel),
                naive_tet_index(m3, e3, rel),
                rel,
            ),
            rel,
        )
        out = dict_add(out, {h + 2 * e3: c for h, c in term.items()}, prec)
    return out


def series_to_dict(s):
    return {s.lead + i: c for i, c in enumerate(s.coeffs) if c}


def same_to_order(d, s, prec):
    """Compare an oracle dict against a QSeries below half-exponent prec."""
    assert s.prec >= prec
    return trim(d, prec) == trim(series_to_dict(s), prec)
