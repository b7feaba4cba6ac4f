"""Counting semigroups by genus slice and by containment of a second element.

Both counting problems reduce to lattice point enumeration: genus g picks the
coordinate vectors with entry sum g, and containment of q = i + n*p caps the
i-th coordinate at n (coordinatewise caps come from the two-generator
semigroup itself, whose class minima dominate those of every supersemigroup).

Every point set counted here is cut out by rows
head * v_d + sum(a * v_i) + b >= 0 over integer variables, each filed under
its last variable v_d.  Once v_0..v_{d-1} are fixed, the rows of v_d leave
it one interval, so a single walker, _walk_rows, fixes the variables in
order on an explicit stack and hands each prefix the interval of the last.

The semigroups containing p are the points of a cone in the Apéry
coordinates x_1..x_n (n = p - 1).  Their walk ends with the range of
x_{n-2}; once that is fixed too, x_{n-1} and x_n lie in a polygon whose
edges have slopes 0, 1, -1, 2 and 1/2.  Split where its top and its bottom
edge change slope, it is counted in closed form, a sum of arithmetic
progressions and floor sums (Beck & Robins, "Computing the Continuous
Discretely", ch. 1).  A genus window adds the same pieces to difference
arrays over sums, one per stride of the sum along an edge, so a whole
window is counted in one walk without visiting a point.  The ends of the
pieces come from one function as a flat tuple, and the loop over x_{n-2}
and both leaves are straight-line integer code: no builtin min or max, no
list of pieces and no generator per polygon.

A containment count walks the coordinates in the order of the residues
q, 2q, 3q, ... mod p, whose caps floor(t q / p) grow along it, so that the
large caps come last (_cone_rows); a genus window has equal caps and keeps
the natural order.

Each earlier coordinate x_d is bounded by the least sum a completion must
still add: the cone pairs x_{d+1}..x_n so that every pair, and twice a
middle one, is at least x_d - 1, so a prefix whose least completion
overshoots the window is never expanded.  x_{n-2} is bounded further by the
polygon's own lines, so a value that leaves x_{n-1} no value is never
tried.

'medim' is 'all' moved by the all-ones vector: S -> {0} u (p + S) adds 1 to
each coordinate and p - 1 to the genus, and holds q when S holds q - p
(Rosales & García-Sánchez, "Numerical Semigroups", 2009).

Symmetric and pseudo-symmetric semigroups are not found by testing points:
each class lies on a few affine loci of the cone of dimension about p/2, one
per residue of the largest Apéry element, built here from the pairing of
residues against it.  Each locus is walked in its own variables, and all
its points with one value of the first variable have the same sum, so a
count adds the length of each last interval.

A face of the cone under caps, on which some coordinates sit at their caps,
is walked the same way: the paper's staircases of <p, q> with at most h
rows, and those new at q, lie on such faces (nsg.paths).  So is the
hyperplane section sum(x) = g, whose points are the semigroups of genus g.
Loci, faces and the section alike write each coordinate as an affine form in
the walk's variables.  Loci and faces substitute the forms into the cone's
rows (_cone_on).  The section is walked in _walk's variables under the
levels of _cone_rows and the O(p) rows that hold x_n = g - (x_1 + ... +
x_{n-1}), read through the walk's prefix sum with the genus in their
constants only (_section_rows).  The counts visit no point; every listing
reads its points off one of these walks through one decoder, _points, and
genus_points hands them out one genus slice at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import accumulate

from . import core
from ._record import Record
from .cone import inequalities

CLASS_FILTERS = ("all", "sym", "psym", "medim")


class NotCoprime(ValueError):
    """The contained element must be coprime to p."""


def _check_args(p: int, class_filter: str) -> None:
    if p < 3:
        raise ValueError("p must be at least 3")
    if class_filter not in CLASS_FILTERS:
        raise ValueError(f"class_filter must be one of {CLASS_FILTERS}")


def _row(terms, b):
    """(d, (head, rest, b)) for the row sum(a * v_i for i, a in terms) + b >= 0.

    Coefficients of a repeated index add up; d is the last variable with a
    nonzero one, or None if there is none.
    """
    coefs = {}
    for i, a in terms:
        coefs[i] = coefs.get(i, 0) + a
    rest = sorted((i, a) for i, a in coefs.items() if a)
    if not rest:
        return None, (0, (), b)
    d, head = rest.pop()
    return d, (head, tuple(rest), b)


def _walk_rows(rows, v, total=None):
    """Yield (lo, hi) for each prefix v_0..v_{L-2} (L = len(rows)) whose last
    variable v_{L-1} has the nonempty range lo..hi.

    rows[d] holds the rows (head, terms, b) of v_d, each meaning
    head * v_d + sum(a * v_i for i, a in terms) + b >= 0.  Every variable is
    nonnegative and needs at least one upper row.  The prefix is written to
    v, shared between yields.  Variables are fixed in order on an explicit
    stack, each over the range its rows leave.  With total, an index of v
    past the variables, v[total] holds v_0 + ... + v_{d-1} while the rows of
    v_d are read, so that a row bounds the sum of the prefix with one term.
    """
    last = len(rows) - 1
    stack: list = []  # one iterator over the untried values of each fixed variable
    sums = [0] * (last + 1)  # sums[d] = v_0 + ... + v_{d-1}
    if total is not None:
        v[total] = 0
    d = 0
    while True:
        lo, hi = 0, math.inf
        for head, terms, b in rows[d]:
            for i, a in terms:
                b += a * v[i]
            if head > 0:
                b = -(b // head)
                if b > lo:
                    lo = b
            else:
                b //= -head
                if b < hi:
                    hi = b
        if d < last:
            stack.append(iter(range(lo, hi + 1)))
        elif lo <= hi:
            yield lo, hi
        while stack:
            d = len(stack) - 1
            x = next(stack[-1], None)
            if x is not None:
                v[d] = x
                if total is not None:
                    v[total] = sums[d + 1] = sums[d] + x
                d += 1
                break
            stack.pop()
        else:
            return


@lru_cache(maxsize=None)
def _cone_rows(p: int, r: int = 1):
    """The cone's rows over mu = (x_0, x_1, ..., x_n), n = p - 1, as (levels, tails).

    Walk coordinate x_t holds the residue t * r mod p, for an r coprime to
    p: each inequality (i, j, k, c) is relabelled to i / r, j / r and
    k / r mod p with its c unchanged, so the rows keep their shape, since
    i + j = k mod p still holds, and only their constants move.  r = 1 is
    the natural order.

    levels[d], for d = 0..n-1, holds the rows whose last coordinate is x_d
    for _walk_rows (_walk walks n - 1 levels, _section_points all n); the
    one row of x_0 pins it to 0, so that x_0 stands in for x_{n-2} when
    p = 3.  tails holds the rules of x_{n-1} and of x_n, each sorted by how
    the variable e just before it enters (the rules are read with e = 0):
      uppers (i, j, c):  x_d <= x_i + x_j - c, by the slope of e: 0, 1, 2
      lowers (i, k, c):  x_d >= x_k + c - x_i, by the slope of e: 0, -1
      singles (k, c):    2 x_d >= x_k + c
    """
    n = p - 1
    levels = [[(-1, (), 0)]] + [[] for _ in range(n - 1)]
    tails = [[[] for _ in range(6)] for _ in range(2)]
    up, down = [(i, 1) for i in range(p)], [(i, -1) for i in range(p)]  # shared terms
    inverse = pow(r, -1, p)
    label = [t * inverse % p for t in range(p)]  # the walk coordinate of each residue
    for i, j, k, c in inequalities(p):
        i, j, k = label[i], label[j], label[k]
        if i > j:
            i, j = j, i
        if k > j:
            d, row, kind = k, (-1, (up[i], up[j]), -c), (i == k - 1) + (j == k - 1)
        elif i == j:
            d, row, kind = j, (2, (down[k],), -c), 5
        else:
            d, row, kind = j, (1, (up[i], down[k]), -c), 3 + (i == j - 1)
        if d < n:
            levels[d].append(row)
        if d >= n - 1:  # an upper, a lower or a single rule, by kind
            rule = (i, j, c) if kind < 3 else (i, k, c) if kind < 5 else (k, c)
            tails[d - n + 1][kind].append(rule)
    return tuple(map(tuple, levels)), tuple(tuple(map(tuple, rules)) for rules in tails)


def _walk(p, caps, low, high, leaf, r=1):
    """Count the lattice points under caps in the cone through leaf.

    Only points whose sum lies in low..high are counted, and no
    point is visited: leaf is handed each prefix's polygon instead.

    caps[i - 1] caps the coordinate of residue i.  The walk fixes the
    residues r, 2r, 3r, ... mod p in turn (_cone_rows), so r = q mod p
    walks a containment count in the order in which its caps
    floor(t q / p) grow; any r other than 1 needs low = 0, since the
    reach row below holds only in natural order.

    _walk_rows fixes x_1..x_{n-3} (n = p - 1) under the cone's rows, the
    caps, the least sum a completion must still add and the most it can
    still reach, and hands over the range of x_{n-2}.  For each value v of
    x_{n-2}, with sum total over x_1..x_{n-3}, every bound on x_n is affine
    in x = x_{n-1}, or half of it:
        x_n <= min(A, x + B, 2x + C, K - x)
        x_n >= max(D, F - x, ceil((x + G) / 2))
    for x in lo..xmax.  A, B, C, D and F, and the bounds of x_{n-1} from its
    own rules, are each the least or the greatest of a few forms affine in
    v, folded once per prefix to one constant per slope; the loop over v
    finds them, lo and xmax by plain comparisons, not builtin min and max
    calls.  leaf gets (total + v - low, lo, xmax, A, B, C, D, F, G, K).
    """
    if r != 1 and low:
        raise ValueError("only a total count from 0 may walk out of natural order")
    n = p - 1
    m = n - 1  # x_m is x_{n-1}, x_{m-1} is x_{n-2}
    sum_at = n + 1  # mu[sum_at] holds the sum of the fixed prefix
    caps = [caps[t * r % p - 1] for t in range(1, p)]
    levels, (x_rules, y_rules) = _cone_rows(p, r)
    levels = [list(level) for level in levels[:m]]
    for d in range(1, m):
        # Least completion: with s = n - d, the pairs (d + j, n + 1 - j),
        # j = 1..s // 2, each sum to d + p, so the cone's rows give
        # x_{d+j} + x_{n+1-j} >= x_d - 1: the weakest constant, so it holds
        # in any walk order.  For odd s the middle index u has 2u = d + p,
        # so 2 x_u >= x_d - 1.  x_{d+1}..x_n thus add at least s (x_d - 1) / 2:
        #     2 high - 2 (x_1 + ... + x_{d-1}) - (s + 2) x_d + s >= 0.
        # As the row one level up keeps x_1 + ... + x_{d-1} <= high, this
        # row implies the sum cap x_1 + ... + x_d <= high and takes its place.
        # Reach: x_{d+j} <= x_d + j x_1 (from x_1 + x_{d+j-1} >= x_{d+j},
        # whose c is 0 only in natural order), so a prefix reaches at most
        # its sum plus (s + 1) x_d + s (s + 1) / 2 x_1.
        s = n - d
        levels[d] += [(-1, (), caps[d - 1]), (-(s + 2), ((sum_at, -2),), 2 * high + s)]
        if d > 1 and low:  # with low = 0 the row always holds
            levels[d].append((s + 1, ((1, s * (s + 1) // 2), (sum_at, 1)), -low))
    tops, rises, twice, fixed, falls, singles = x_rules
    up0, up1, up2, flat, falling, [(_, G)] = y_rules  # 2 x_n >= x + G (2n mod p = n - 1)
    far = high + 1  # an absent bound: x + far and 2x + far exceed K - x
    none = -2 * far  # an absent lower bound: total + v <= high, so v + none < low - total - v

    # Each form of A, B and C is affine in v with slope 0, 1 or 2, and each
    # of D and F with slope -1, 0 or 1, fixed by p; so is each form of the
    # bounds of x_{n-1}, top (slopes 0, 1, 2) and least (slopes -1, 0).
    # Filed here by coefficient and slope, each file folds to one constant
    # per prefix.
    v_at = m - 1
    upper_forms = [(3 * f + (i == v_at) + (j == v_at), i, j, c)
                   for f, rules in enumerate((up0, up1, up2, tops + rises + twice))
                   for i, j, c in rules]
    lower_forms = [(3 * f + 1 + (k == v_at) - (i == v_at), i, k, c)
                   for f, rules in enumerate((flat, falling, falls + fixed)) for i, k, c in rules]
    # x_n <= caps[n - 1] and x_{n-1} <= caps[n - 2] before any form
    upper_start = [caps[n - 1]] + [far] * 8 + [caps[m - 1], far, far]
    mu = [0] * (n + 2)  # mu[m - 1] and mu[m] stay 0, so that each form below reads v and x as 0
    for lo, hi in _walk_rows(levels, mu, sum_at):
        total = mu[sum_at]
        K = high - total
        upper = upper_start[:]  # A = min(a0, v + a1, 2v + a2), and so B, C and top
        for f, i, j, c in upper_forms:
            if mu[i] + mu[j] - c < upper[f]:
                upper[f] = mu[i] + mu[j] - c
        # D = max(dm - v, d0, v + dp), and so F and least
        lower = [none, 0, none, low - total, none, none, -far, 0]
        for f, i, k, c in lower_forms:
            if mu[k] + c - mu[i] > lower[f]:
                lower[f] = mu[k] + c - mu[i]
        a0, a1, a2, b0, b1, b2, c0, c1, c2, top, rise, double = upper
        dm, d0, dp, fm, f0, fp, fall, least = lower
        for k, c in singles:
            if (mu[k] + c + 1) // 2 > least:
                least = (mu[k] + c + 1) // 2
        # max(least, fall - v) <= x_{n-1} <= min(top, v + rise, 2v + double)
        if least > top or fall > K:
            continue
        # With 2 x_n >= x_{n-1} + G and the sum cap, x_{n-1} has a value
        # and x_{n-1} + x_n <= K - v can hold only for v in lo..hi.
        lo = max(lo, least - rise, fall - top, -((rise - fall) // 2), 3 * fall + G - 2 * K)
        hi = min(hi, K - least - max(0, (least + G + 1) // 2))
        KG = 2 * K - G
        for v in range(lo, hi + 1):
            # Each bound is the least or greatest of its forms at v, folded by
            # plain comparisons: a builtin min or max would cost a call.
            w = v + v
            B = v + b1
            if b0 < B:
                B = b0
            if w + b2 < B:
                B = w + b2
            C = v + c1
            if c0 < C:
                C = c0
            if w + c2 < C:
                C = w + c2
            F = v + fp
            if f0 > F:
                F = f0
            if fm - v > F:
                F = fm - v
            # x_n >= F - x meets x_n <= x + B and 2x + C only from here on
            x_lo = fall - v
            if least > x_lo:
                x_lo = least
            if -((B - F) // 2) > x_lo:
                x_lo = -((B - F) // 2)
            if -((C - F) // 3) > x_lo:
                x_lo = -((C - F) // 3)
            D = v + dp
            if d0 > D:
                D = d0
            if dm - v > D:
                D = dm - v
            Kv = K - v
            # x + x_n <= Kv fails past this, since x_n >= D and 2 x_n >= x + G.
            xmax = v + rise
            if top < xmax:
                xmax = top
            if w + double < xmax:
                xmax = w + double
            if Kv - D < xmax:
                xmax = Kv - D
            if (KG - w) // 3 < xmax:
                xmax = (KG - w) // 3
            if xmax < x_lo:
                continue
            A = v + a1
            if a0 < A:
                A = a0
            if w + a2 < A:
                A = w + a2
            leaf(total + v - low, x_lo, xmax, A, B, C, D, F, G, Kv)


def _pieces(lo, xmax, A, B, C, D, F, G, K):
    """The pieces of the polygon of the lattice points (x, y) with lo <= x <= xmax,
        y <= min(A, x + B, 2x + C, K - x) and 2y >= max(2D, 2F - 2x, x + G),
    as the flat tuple (xl, c, b, a, f, d, xr), or None if no x has a point.

    The x with a point form the range xl..xr.  Over it the top is 2x + C up
    to c, then x + B up to b, then A up to a, then K - x up to xr; the
    bottom is F - x up to f, then D up to d, then ceil((x + G) / 2) up to
    xr.  Each piece starts past the end of the one before it, so any of them
    may be empty.

    y has a value exactly where every upper line lies on or above every
    lower one, a linear inequality in x per pair, so those x form one range.
    Over it, the upper bound is a minimum of lines, so its active line only
    ever moves to a smaller slope as x grows, and the lower bound's only to a
    larger one; each line ends where it first crosses a later one.
    """
    xl = lo
    if F - A > xl:
        xl = F - A
    if D - B > xl:
        xl = D - B
    if G - 2 * B > xl:
        xl = G - 2 * B
    if -((B - F) // 2) > xl:
        xl = -((B - F) // 2)
    if -((C - D) // 2) > xl:
        xl = -((C - D) // 2)
    if -((2 * C - G) // 3) > xl:
        xl = -((2 * C - G) // 3)
    if -((C - F) // 3) > xl:
        xl = -((C - F) // 3)
    xr = xmax
    if 2 * A - G < xr:
        xr = 2 * A - G
    if K - D < xr:
        xr = K - D
    if (2 * K - G) // 3 < xr:
        xr = (2 * K - G) // 3
    if xl > xr or A < D or K < F:
        return None
    # Each end is the last x where its line is the bound, clamped to lie
    # between the end before it and xr.
    c = B - C
    if (A - C) // 2 < c:
        c = (A - C) // 2
    if (K - C) // 3 < c:
        c = (K - C) // 3
    if c < xl:
        c = xl - 1
    elif c > xr:
        c = xr
    b = A - B
    if (K - B) // 2 < b:
        b = (K - B) // 2
    if b < c:
        b = c
    elif b > xr:
        b = xr
    a = K - A
    if a < b:
        a = b
    elif a > xr:
        a = xr
    f = F - D
    if (2 * F - G) // 3 < f:
        f = (2 * F - G) // 3
    if f < xl:
        f = xl - 1
    elif f > xr:
        f = xr
    d = 2 * D - G
    if d < f:
        d = f
    elif d > xr:
        d = xr
    return xl, c, b, a, f, d, xr


# Up to this many values of x, looping over them costs less than splitting
# their polygon into pieces.  Timed per polygon of the p = 5..7 walks (CPython
# 3.11): the loop costs about 0.5 us plus 0.15 to 0.2 us per value, the
# pieces 1.4 to 2 us at any length; the two meet at 5 to 8 values, and past
# 40 the pieces cost a quarter of the loop or less.
SHORT_RANGE = 6


def _polygon_count(lo, xmax, A, B, C, D, F, G, K):
    """Number of lattice points of the polygon of _pieces."""
    if xmax - lo < SHORT_RANGE:  # a plain loop over x, without a generator
        count = 0
        for x in range(lo, xmax + 1):
            top = A if A < x + B else x + B
            if 2 * x + C < top:
                top = 2 * x + C
            if K - x < top:
                top = K - x
            bottom = D if D > F - x else F - x
            if (x + G + 1) // 2 > bottom:
                bottom = (x + G + 1) // 2
            if bottom <= top:
                count += top - bottom + 1
        return count
    pieces = _pieces(lo, xmax, A, B, C, D, F, G, K)
    if pieces is None:
        return 0
    xl, c, b, a, f, d, xr = pieces
    # Each piece adds top + 1 - bottom over its x.  The x of a piece i + 1..j
    # sum to T(j) - T(i), T(n) = n (n + 1) / 2, and ceil((x + G) / 2) over
    # x = i + 1..j sums to H(j + G + 1) - H(i + G + 1), H(n) = the sum of
    # floor(k / 2) over k <= n, which is floor(n / 2) * ceil(n / 2).
    e = xl - 1
    Te, Tc, Tb, Ta = e * xl // 2, c * (c + 1) // 2, b * (b + 1) // 2, a * (a + 1) // 2
    Tf, Tr = f * (f + 1) // 2, xr * (xr + 1) // 2
    Hd, Hr = (d + G + 1) // 2 * ((d + G + 2) // 2), (xr + G + 1) // 2 * ((xr + G + 2) // 2)
    tops = ((C + 1) * (c - e) + 2 * (Tc - Te) + (B + 1) * (b - c) + Tb - Tc
            + (A + 1) * (a - b) + (K + 1) * (xr - a) - Tr + Ta)
    return tops - F * (f - e) + Tf - Te - D * (d - f) - Hr + Hd


def _polygon_runs(runs, offset, lo, xmax, A, B, C, D, F, G, K):
    """Add the points (x, y) of the polygon of _pieces to runs by offset + x + y.

    runs[s] is a difference array of stride s: an entry v at i adds v to
    the differences at i, i + s, i + 2s, ...  Each x adds one at its least
    sum and takes one off past its greatest, and along a piece these indices
    step by a fixed stride, the slope of the bound plus one.  A half-slope
    lower bound steps by 3 over every other x, so each parity of x is a run.
    """
    if xmax - lo < SHORT_RANGE:  # a plain loop over x, without a generator
        diff = runs[0]
        for x in range(lo, xmax + 1):
            top = A if A < x + B else x + B
            if 2 * x + C < top:
                top = 2 * x + C
            if K - x < top:
                top = K - x
            bottom = D if D > F - x else F - x
            if (x + G + 1) // 2 > bottom:
                bottom = (x + G + 1) // 2
            if bottom <= top:
                diff[offset + x + bottom] += 1
                diff[offset + x + top + 1] -= 1
        return
    pieces = _pieces(lo, xmax, A, B, C, D, F, G, K)
    if pieces is None:
        return
    xl, c, b, a, f, d, xr = pieces
    flat, step1, step2, step3 = runs
    # the tops: x + y + 1 is 3x + C + 1, 2x + B + 1, x + A + 1, then K + 1
    if c >= xl:
        i = offset + C + 1 + 3 * xl
        step3[i] -= 1
        step3[i + 3 * (c - xl + 1)] += 1
    if b > c:
        i = offset + B + 3 + 2 * c
        step2[i] -= 1
        step2[i + 2 * (b - c)] += 1
    if a > b:
        i = offset + A + 2 + b
        step1[i] -= 1
        step1[i + a - b] += 1
    if xr > a:
        flat[offset + K + 1] -= xr - a
    # the bottoms: x + y is F, then x + D, then (3x + G + 1) / 2 on each parity
    if f >= xl:
        flat[offset + F] += f - xl + 1
    if d > f:
        i = offset + D + f + 1
        step1[i] += 1
        step1[i + d - f] -= 1
    for x in range(d + 1, min(d + 2, xr) + 1):
        i = offset + (3 * x + G + 1) // 2
        step3[i] += 1
        step3[i + 3 * ((xr - x) // 2 + 1)] -= 1


def _fold_runs(runs, size):
    """Counts by sum index 0..size-1 from the strided difference arrays."""
    for s in (1, 2, 3):
        run = runs[s]
        for r in range(s):
            run[r::s] = accumulate(run[r::s])
    return list(accumulate(map(sum, zip(*runs))))[:size]


def _substitute(forms, signs, b):
    """The _row of sum(sign * x_c for c, sign in signs) + b >= 0, where
    forms[c - 1] = (terms, b_c) writes x_c = sum(a * v_i for i, a in terms) + b_c
    in the variables of a walk."""
    terms = [(i, sign * a) for c, sign in signs for i, a in forms[c - 1][0]]
    return _row(terms, b + sum(sign * forms[c - 1][1] for c, sign in signs))


def _cone_on(p, forms, size, extra):
    """The rows of the cone, x >= 0 and the extra (signs, b) rows over the size
    variables of forms, filed for _walk_rows; None if a constant row fails."""
    rows = [[] for _ in range(size)]
    rules = [([(c, 1)], 0) for c in range(1, p)]  # x_c >= 0
    rules += [([(i, 1), (j, 1), (l, -1)], -c) for i, j, l, c in inequalities(p)]
    for signs, b in rules + extra:
        d, row = _substitute(forms, signs, b)
        if d is not None:
            rows[d].append(row)
        elif row[2] < 0:
            return None
    return tuple(map(tuple, rows))


def _points(forms, ranges, v):
    """Yield the point x, x_c = sum(a * v_i for i, a in terms) + b for
    (terms, b) = forms[c - 1], at each value of the last variable in each
    range (lo, hi) of _walk_rows over v.  The last variable is the greatest
    index the forms use; v may hold the prefix sum of _walk_rows past it.
    The prefix is read once per range; each further value adds the last
    variable's coefficients."""
    last = max(i for terms, _ in forms for i, _ in terms)
    steps = [(c, a) for c, (terms, _) in enumerate(forms) for i, a in terms if i == last]
    for lo, hi in ranges:
        v[last] = lo
        x = [sum(a * v[i] for i, a in terms) + b for terms, b in forms]
        for _ in range(lo, hi):
            yield tuple(x)
            for c, a in steps:
                x[c] += a
        yield tuple(x)


@lru_cache(maxsize=None)
def _section_rows(p):
    """The rows of the hyperplane section sum(x) = g that hold x_n, whatever
    g, per level of _cone_rows(p): (head, terms, b, a) for the row
    (head, terms, b + a * g).

    The section is walked in _walk's variables, x_0 = 0 and x_1..x_{n-1}
    (n = p - 1), and index n + 1 (sum_at) holds the prefix sum
    x_0 + ... + x_{d-1} while x_d is fixed.  The rows without x_n are
    _cone_rows(p)'s levels, and those with x_n its rules of x_n.  A rule
    (sigma = minus the sign of x_n in it) reads x_n = g - (x_1 + ... +
    x_{n-1}), so it gives every variable sigma: it is filed under the last
    variable whose coefficient does not vanish, and the variables before it
    enter as sigma times the prefix sum plus a term each for the rule's own
    coordinates; no row is constant.  x_{n-1} is bounded by x_n >= 0, and
    each x_d, 0 < d < n - 1, by _walk's least-completion row at high = g,
    which implies x_1 + ... + x_d <= g; the caps (g, ..., g) follow from
    x >= 0.
    """
    n, sum_at = p - 1, p
    up0, up1, up2, flat, falling, singles = _cone_rows(p)[1][1]
    rules = [(((i, 1), (j, 1)), 1, c) for i, j, c in up0 + up1 + up2]  # x_n <= x_i + x_j - c
    rules += [(((i, 1), (k, -1)), -1, c) for i, k, c in flat + falling]  # x_n >= x_k + c - x_i
    rules += [(((k, -1),), -2, c) for k, c in singles]  # 2 x_n >= x_k + c
    rows = [[] for _ in range(n)]
    for signs, sigma, c in rules:
        coefs = {}  # the rule's coefficients but that of x_n
        for index, sign in signs:
            coefs[index] = coefs.get(index, 0) + sign
        d = n - 1
        while coefs.get(d) == -sigma:
            d -= 1
        terms = ((sum_at, sigma),) + tuple((m, a) for m, a in sorted(coefs.items()) if m < d)
        rows[d].append((sigma + coefs.get(d, 0), terms, -c, -sigma))
    rows[n - 1].append((-1, ((sum_at, -1),), 0, 1))  # x_n >= 0
    for d in range(1, n - 1):  # _walk's least-completion row, 2 high read as 2 g
        s = n - d
        rows[d].append((-(s + 2), ((sum_at, -2),), s, 2))
    return tuple(map(tuple, rows))


def _section_points(p, genus):
    """The points of the hyperplane section sum(x) = genus of the cone, in
    lexicographic order: x_1..x_{n-1} (n = p - 1) are walked under the
    levels of _cone_rows(p) and _section_rows, and x_n = genus - (x_1 + ... +
    x_{n-1})."""
    n = p - 1
    levels, _ = _cone_rows(p)
    rows = [level + tuple([(head, terms, b + a * genus) for head, terms, b, a in moving])
            for level, moving in zip(levels, _section_rows(p))]
    forms = [(((c, 1),), 0) for c in range(1, n)] + [(tuple((c, -1) for c in range(1, n)), genus)]
    v = [0] * (n + 2)
    return _points(forms, _walk_rows(rows, v, n + 1), v)


def _face_ranges(p, caps, free, v, total=None):
    """(forms, ranges) for _points over the face of the cone under caps on
    which every residue but those of free sits at its cap, walk variable v_f
    being the coordinate of residue free[f]; ranges come from _walk_rows."""
    forms = [((), cap) for cap in caps]
    for f, c in enumerate(free):
        forms[c - 1] = (((f, 1),), 0)
    rows = _cone_on(p, forms, len(free), [([(c, -1)], caps[c - 1]) for c in free])
    return forms, () if rows is None else _walk_rows(rows, v, total)


class _Locus(Record):
    """One affine locus of 'sym' or 'psym' points, with the cone written on it.

    The variables are v = (t', y_1, ..., y_m): x_k = t = s t' + r, where k
    is the residue of the largest Apéry element, s is 2 when some
    coordinate is t halved (then r makes it an integer) and 1 otherwise, and
    y_f is one coordinate of the f-th pair.  forms[c-1] = (terms, b) gives
    x_c = sum(a * v_i for i, a in terms) + b; rows are the locus's rows in
    the format of _walk_rows.  The sum of a point is slope t' + offset.
    """

    __slots__ = ("forms", "rows", "slope", "offset")
    forms: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    rows: tuple[tuple[tuple[int, tuple[tuple[int, int], ...], int], ...], ...]
    slope: int
    offset: int


def _locus(p: int, k: int, h: int | None) -> _Locus | None:
    """The 'sym' locus of k (h None) or the 'psym' locus of k and h, if not empty.

    Every residue i other than k (and h) pairs with j = (k - i) mod p by
    x_i + x_j + e = x_k, where e = (i + j - k) / p is 0 or 1; a residue
    paired with itself gives 2 x_i + e = x_k.  For 'psym', 2 x_h = x_k + 1
    if 2h = k and 2 x_h = x_k if 2h = k + p, and x_k >= 1.
    """
    others = [i for i in range(1, p) if i not in (k, h)]
    pairs = [(i, (k - i) % p) for i in others if i < (k - i) % p]
    halves = {i: -((2 * i - k) // p) for i in others if 2 * i % p == k}  # 2 x_i = t + b
    if h is not None:
        halves[h] = int(2 * h == k)
    parities = {b % 2 for b in halves.values()}
    if len(parities) > 1:
        return None
    s, r = (2, parities.pop()) if parities else (1, 0)
    forms = [None] * (p - 1)
    forms[k - 1] = (((0, s),), r)
    for i, b in halves.items():
        forms[i - 1] = (((0, 1),), (r + b) // 2)
    for f, (i, j) in enumerate(pairs, start=1):
        forms[i - 1] = (((f, 1),), 0)
        forms[j - 1] = (((0, s), (f, -1)), r - (i + j - k) // p)
    extra = [] if h is None else [([(k, 1)], -1)]  # the origin is not 'psym'
    rows = _cone_on(p, forms, len(pairs) + 1, extra)
    if rows is None:
        return None
    _, (slope, _, offset) = _substitute(forms, [(c, 1) for c in range(1, p)], 0)
    return _Locus(tuple(forms), rows, slope, offset)


@lru_cache(maxsize=None)
def _class_loci(p: int, class_filter: str) -> tuple[_Locus, ...]:
    """The nonempty loci of a class; they are disjoint, since k is the argmax."""
    loci = []
    for k in range(1, p):
        if class_filter == "sym":
            specials = [None]
        else:
            specials = [h for h in range(1, p) if 2 * h % p == k]
        loci += [_locus(p, k, h) for h in specials]
    return tuple(locus for locus in loci if locus is not None)


def _locus_ranges(locus, caps, low, high, v):
    """_walk_rows over one locus, under caps and with sums low..high."""
    rows = [list(level) for level in locus.rows]
    for c, cap in enumerate(caps, start=1):
        d, row = _substitute(locus.forms, [(c, -1)], cap)
        rows[d].append(row)
    rows[0] += [(locus.slope, (), locus.offset - low), (-locus.slope, (), high - locus.offset)]
    return _walk_rows(rows, v)


def _counted(p, caps, low, high, class_filter, total=False, r=1):
    """Counts of the points of one walk with each sum low..high, or their total.

    The cone of 'all' is walked in the order of r (_walk); the loci of 'sym'
    and 'psym' keep their own variables.
    """
    if class_filter == "all":
        if total:
            count = 0

            def add(offset, *polygon):
                nonlocal count
                count += _polygon_count(*polygon)

            _walk(p, caps, low, high, add, r)
            return count
        runs = [[0] * (high - low + 5) for _ in range(4)]
        _walk(p, caps, low, high, partial(_polygon_runs, runs))
        return _fold_runs(runs, high - low + 1)
    counts = 0 if total else [0] * (high - low + 1)
    for locus in _class_loci(p, class_filter):
        v = [0] * len(locus.rows)
        slope, offset = locus.slope, locus.offset - low
        for lo, hi in _locus_ranges(locus, caps, low, high, v):
            if total:
                counts += hi - lo + 1
            elif len(v) > 1:
                counts[slope * v[0] + offset] += hi - lo + 1
            else:  # the range is of t' itself, and each t' has its own sum
                for i in range(slope * lo + offset, slope * hi + offset + 1, slope):
                    counts[i] += 1
    return counts


def genus_points(p: int, genus: int, class_filter: str = "all"):
    """The mu of every semigroup containing p with the given genus, in mu
    order, as an iterator.  The arguments are checked at the call.  'all'
    and 'medim' walk the hyperplane section one point at a time; 'sym' and
    'psym' gather the points of their loci, a small slice, and sort them."""
    _check_args(p, class_filter)
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if class_filter == "all":
        return _section_points(p, genus)
    if class_filter == "medim":  # the shift adds 1 to each coordinate and p - 1 to the genus
        return (tuple(x + 1 for x in mu) for mu in _section_points(p, genus - p + 1))
    mus, caps = [], (genus,) * (p - 1)
    for locus in _class_loci(p, class_filter):
        v = [0] * len(locus.rows)
        mus += _points(locus.forms, _locus_ranges(locus, caps, genus, genus, v), v)
    mus.sort()
    return iter(mus)


def enumerate_by_genus(p: int, genus: int, class_filter: str = "all"):
    """All semigroups containing p with the given genus, in mu order (genus_points)."""
    return [core.Semigroup._trusted(p, mu) for mu in genus_points(p, genus, class_filter)]


def genus_window(p: int, low: int, high: int, class_filter: str = "all") -> list[int]:
    """Counts for every genus low..high, from one walk of the cone."""
    _check_args(p, class_filter)
    if low < 0:
        raise ValueError("genus must be nonnegative")
    if high < low:
        raise ValueError("genus window is empty")
    if class_filter != "medim":
        return _counted(p, (high,) * (p - 1), low, high, class_filter)
    zeros = [0] * (min(high, p - 2) - low + 1)  # the shift adds p - 1 to the genus
    return zeros + genus_window(p, max(0, low - p + 1), high - p + 1) if high >= p - 1 else zeros


def count_by_genus(p: int, genus: int, class_filter: str = "all") -> int:
    return genus_window(p, genus, genus, class_filter)[0]


def genus_count_series(p: int, g_max: int, class_filter: str = "all") -> list[int]:
    """Counts for every genus 0..g_max: genus_window(p, 0, g_max)."""
    _check_args(p, class_filter)
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    return genus_window(p, 0, g_max, class_filter)


def containment_caps(p: int, q: int) -> tuple[int, ...]:
    """Coordinatewise caps for semigroups containing both p and q.

    The class minima of any such semigroup are bounded by those of the
    semigroup generated by p and q alone.
    """
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    if q < 1:
        raise ValueError("q must be positive")
    return core.from_generators((p, q), p).mu


def count_containing(p: int, q: int, class_filter: str = "all") -> int:
    """Number of semigroups containing both p and q, optionally filtered."""
    _check_args(p, class_filter)
    caps = containment_caps(p, q)  # also checks q for 'medim'
    if class_filter == "medim":  # the shift holds q when S holds q - p
        return count_containing(p, q - p) if q > p else 0
    return _counted(p, caps, 0, sum(caps), class_filter, total=True, r=q % p)
