"""Independent brute-force oracles used to cross-check the library.

Everything here works from first principles on explicit membership tables,
gap sets or exhaustive subsets of cone inequalities and rays, sharing no code
path with the structures under test.  The exceptions: ``GapSet`` and
``SigmaLocus`` return and raise the library's types, and the checks at the
end call the library, because what they test is a relation between its
results.  ``perfbench/checks.py`` loads this file by path, without
registering it as a module, in a process that does not import ``nsg``.  So
``nsg`` is imported only inside the functions that need it, and nothing here
is a dataclass, which cannot be created under such a load.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations, product


def sieve_members(gens, bound: int) -> list[bool]:
    """Membership table of the additive closure of gens on 0..bound."""
    hit = [False] * (bound + 1)
    hit[0] = True
    for g in sorted(set(gens)):
        for n in range(g, bound + 1):
            if hit[n - g]:
                hit[n] = True
    return hit


def sieve_gaps(gens) -> list[int]:
    """All gaps of the numerical semigroup generated by gens (gcd must be 1)."""
    gens = sorted(set(gens))
    assert reduce(math.gcd, gens) == 1
    m = gens[0]
    bound = 2 * m * gens[-1] + 2
    while True:
        hit = sieve_members(gens, bound)
        run = 0
        for n, member in enumerate(hit):
            run = run + 1 if member else 0
            if run == m:
                conductor = n - m + 1
                return [k for k in range(1, conductor) if not hit[k]]
        bound *= 2


def sieve_apery(gens, p: int) -> list[int]:
    """Least member of each nonzero class mod p, by direct scan."""
    gaps = set(sieve_gaps(gens))
    out = []
    for i in range(1, p):
        n = i
        while n in gaps:
            n += p
        out.append(n)
    return out


def is_gapset_of_semigroup(gaps) -> bool:
    """Whether the complement of the finite set is closed under addition."""
    gaps = set(gaps)
    if not gaps:
        return True
    if min(gaps) <= 0:
        return False
    top = max(gaps)
    members = [n for n in range(1, top + 1) if n not in gaps]
    for i, a in enumerate(members):
        for b in members[i:]:
            if a + b > top:
                break
            if a + b in gaps:
                return False
    return True


class GapSet:
    """A numerical semigroup given by its finite set of gaps.

    Validates on construction that the complement really is a numerical
    semigroup, i.e. closed under addition of members.
    """

    def __init__(self, gaps: tuple[int, ...]):
        if tuple(sorted(set(gaps))) != gaps:
            raise ValueError("gaps must be sorted and duplicate-free")
        if gaps and gaps[0] <= 0:
            raise ValueError("gaps must be positive")
        if not is_gapset_of_semigroup(gaps):
            raise ValueError("complement not closed under addition")
        self.gaps = gaps

    @classmethod
    def from_generators(cls, gens) -> "GapSet":
        return cls(tuple(sieve_gaps(gens)))

    def genus(self) -> int:
        return len(self.gaps)

    def frobenius(self) -> int:
        from nsg import FrobeniusOfN

        if not self.gaps:
            raise FrobeniusOfN("the full semigroup has no gaps")
        return self.gaps[-1]

    def contains(self, n: int) -> bool:
        return n >= 0 and n not in self.gaps

    def to_semigroup(self, p: int):
        """Canonical nsg.Semigroup (p, mu); p must be a member."""
        from nsg import PNotInSemigroup, Semigroup

        if p < 3:
            raise ValueError("p must be at least 3")
        if not self.contains(p):
            raise PNotInSemigroup(f"{p} is a gap")
        mu = []
        for i in range(1, p):
            n = i
            while not self.contains(n):
                n += p
            mu.append((n - i) // p)
        return Semigroup(p, tuple(mu))


def tree_gapsets(max_genus: int) -> list[frozenset]:
    """All numerical semigroups of genus <= max_genus, as gap sets.

    Children of a semigroup are obtained by removing one minimal generator
    larger than its Frobenius number; every semigroup arises exactly once.
    """
    out = [frozenset()]
    level = [frozenset()]
    for _ in range(max_genus):
        next_level = []
        for gaps in level:
            f = max(gaps) if gaps else -1
            m = 1
            while m in gaps:
                m += 1
            if not gaps:
                candidates = [1]
            else:
                candidates = [x for x in range(f + 1, f + m + 1) if x not in gaps]
            for x in candidates:
                if x <= 0:
                    continue
                decomposable = any(
                    a not in gaps and (x - a) not in gaps
                    for a in range(1, x // 2 + 1)
                )
                if not decomposable:
                    next_level.append(gaps | {x})
        out.extend(next_level)
        level = next_level
    return out


def tree_counts_containing_p(p: int, max_genus: int) -> dict[int, int]:
    """Genus -> number of semigroups of that genus containing p."""
    counts = {g: 0 for g in range(max_genus + 1)}
    for gaps in tree_gapsets(max_genus):
        if p not in gaps:
            counts[len(gaps)] += 1
    return counts


def staircase_profiles(caps) -> list[tuple[int, ...]]:
    """All non-increasing height profiles below caps, including the empty one."""
    out = []

    def rec(prefix, prev):
        out.append(tuple(prefix))
        c = len(prefix)
        if c >= len(caps):
            return
        for h in range(1, min(prev, caps[c]) + 1):
            rec(prefix + [h], h)

    rec([], max(caps, default=0))
    return out


def brute_admissible_profiles(p: int, q: int, caps) -> list[tuple[int, ...]]:
    """Nonempty staircases passing the raw pairwise closure conditions."""
    keep = []
    for profile in staircase_profiles(caps):
        if not profile:
            continue
        pts = {(a, b) for a, h in enumerate(profile) for b in range(h)}
        ok = True
        for a, b in pts:
            for a2, b2 in pts:
                if a + a2 >= q - 1 and (a + a2 - q + 1, b + b2 + 1) not in pts:
                    ok = False
                    break
                if b + b2 >= p - 1 and (a + a2 + 1, b + b2 - p + 1) not in pts:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            keep.append(profile)
    return keep


def brute_containing_gapsets(p: int, q: int) -> list[frozenset]:
    """Gap sets of all semigroups containing p and q, by subset exhaustion."""
    base_gaps = sieve_gaps((p, q))
    out = []
    for mask in product((False, True), repeat=len(base_gaps)):
        gaps = frozenset(g for g, keep in zip(base_gaps, mask) if keep)
        if is_gapset_of_semigroup(gaps):
            out.append(gaps)
    return out


# ---------------------------------------------------------------------------
# Recession cone x_i + x_j >= x_{(i+j) mod p}: exact rational linear algebra.


def star_normals(p: int) -> list[tuple[int, ...]]:
    """Normals of x_i + x_j - x_{(i+j) mod p} >= 0 over i <= j, p not dividing i + j."""
    normals = []
    for i in range(1, p):
        for j in range(i, p):
            k = (i + j) % p
            if k == 0:
                continue
            v = [0] * (p - 1)
            v[i - 1] += 1
            v[j - 1] += 1
            v[k - 1] -= 1
            normals.append(tuple(v))
    return normals


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m[:r], pivots


def rank(rows) -> int:
    return len(_rref(rows)[1])


def _kernel(rows) -> list[list[Fraction]]:
    ncols = len(rows[0])
    echelon, pivots = _rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][fc]
        basis.append(v)
    return basis


def subset_search_edges(p: int) -> tuple[tuple[int, ...], ...]:
    """Edge generators of the recession cone, sorted, by trying every facet subset.

    Each (p-2)-subset of normals with a one-dimensional kernel gives a line;
    a primitive direction on it is an edge when it satisfies every
    inequality.  There are C(m, p-2) subsets for m normals: 8,568 at p = 7.
    """
    normals = star_normals(p)
    rays = set()
    for subset in combinations(normals, p - 2):
        kernel = _kernel(subset)
        if len(kernel) != 1:
            continue
        denom = math.lcm(*(f.denominator for f in kernel[0]))
        ints = [int(f * denom) for f in kernel[0]]
        g = math.gcd(*ints)
        base = tuple(v // g for v in ints)
        for cand in (base, tuple(-v for v in base)):
            if all(sum(n * c for n, c in zip(normal, cand)) >= 0 for normal in normals):
                rays.add(cand)
    return tuple(sorted(rays))


@lru_cache(maxsize=None)
def _ray_bases(rays) -> list[list[list[int]]]:
    """Inverses of all square matrices whose columns are independent rays.

    Each row is scaled by a positive integer, which keeps the signs of the
    coefficients it computes.
    """
    dim = len(rays[0])
    inverses = []
    for subset in combinations(rays, dim):
        augmented = [
            [ray[c] for ray in subset] + [int(r == c) for r in range(dim)]
            for c in range(dim)
        ]
        echelon, pivots = _rref(augmented)
        if pivots[:dim] == list(range(dim)):
            inverse = []
            for row in echelon:
                scale = math.lcm(*(f.denominator for f in row[dim:]))
                inverse.append([int(f * scale) for f in row[dim:]])
            inverses.append(inverse)
    return inverses


def ray_span_contains(rays, x) -> bool:
    """Whether x is a nonnegative rational combination of the rays.

    Carathéodory: if it is, some linearly independent subset of the rays
    already certifies it, and that subset extends to a basis of rays when
    the rays span the space.  So x is tried against every basis of rays.
    """
    rays = tuple(tuple(ray) for ray in rays)
    x = tuple(x)
    if rank(rays) < len(x):
        raise ValueError("the rays must span the space")
    return any(
        all(sum(a * v for a, v in zip(row, x)) >= 0 for row in inverse)
        for inverse in _ray_bases(rays)
    )


# ---------------------------------------------------------------------------
# Plain depth-first walks of the Apéry coordinate cone, one coordinate at a
# time with every coordinate's range taken from its interval bounds.  They
# are the reference for counting._walk, which resolves the last two
# coordinates from affine bounds instead.


def cone_inequalities(p: int) -> list[tuple[int, int, int, int]]:
    """(i, j, k, c): x_i + x_j - x_k >= c, over i <= j with i + j != p."""
    out = []
    for i in range(1, p):
        for j in range(i, p):
            if i + j < p:
                out.append((i, j, i + j, 0))
            elif i + j > p:
                out.append((i, j, i + j - p, -1))
    return out


@lru_cache(maxsize=None)
def _depth_rules(p: int, strict: bool):
    """Interval constraints grouped by the coordinate that resolves them.

    For coordinate d (1-based) with all earlier coordinates fixed:
      uppers  (i, j, c):  x_d <= x_i + x_j - c          (the inequality's k is d)
      singles (k, c):     x_d >= ceil((x_k + c) / 2)    (i == j == d)
      lowers  (i, k, c):  x_d >= x_k + c - x_i          (j == d, i < d)
    Strict mode shifts every c by one, which turns the system into its
    interior version.
    """
    margin = 1 if strict else 0
    uppers = [[] for _ in range(p)]
    singles = [[] for _ in range(p)]
    lowers = [[] for _ in range(p)]
    for i, j, k, c in cone_inequalities(p):
        d = max(i, j, k)
        if k == d:
            uppers[d].append((i, j, c + margin))
        elif i == j:
            singles[d].append((k, c + margin))
        else:
            lowers[d].append((i, k, c + margin))
    return tuple(
        (tuple(uppers[d]), tuple(singles[d]), tuple(lowers[d])) for d in range(p)
    )


def _bounds(d, mu, total, caps, rules, cap_total):
    hi = caps[d - 1]
    if cap_total is not None and cap_total - total < hi:
        hi = cap_total - total
    lo = 0
    uppers, singles, lowers = rules[d]
    for i, j, c in uppers:
        v = mu[i - 1] + mu[j - 1] - c
        if v < hi:
            hi = v
    for k, c in singles:
        v = (mu[k - 1] + c + 1) // 2
        if v > lo:
            lo = v
    for i, k, c in lowers:
        v = mu[k - 1] + c - mu[i - 1]
        if v > lo:
            lo = v
    return lo, hi


def dfs_iter_points(p, caps, *, target=None, max_total=None, strict=False, first=None):
    """Yield coordinate vectors in lexicographic order.

    target fixes the exact coordinate sum; max_total only bounds it.  first
    restricts the leading coordinate (used to split work across processes).
    """
    rules = _depth_rules(p, strict)
    n = p - 1
    mu = [0] * n
    cap_total = target if target is not None else max_total

    def rec(d, total):
        lo, hi = _bounds(d, mu, total, caps, rules, cap_total)
        if d == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        if d == n:
            if target is not None:
                v = target - total
                if lo <= v <= hi:
                    mu[-1] = v
                    yield tuple(mu)
                return
            for v in range(lo, hi + 1):
                mu[-1] = v
                yield tuple(mu)
            return
        for v in range(lo, hi + 1):
            mu[d - 1] = v
            yield from rec(d + 1, total + v)

    yield from rec(1, 0)


def dfs_count_points(p, caps, *, target=None, strict=False, first=None):
    """Count instead of yielding; the innermost coordinate is a closed range."""
    rules = _depth_rules(p, strict)
    n = p - 1
    mu = [0] * n

    def rec(d, total):
        lo, hi = _bounds(d, mu, total, caps, rules, target)
        if d == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        if d == n:
            if target is not None:
                return 1 if lo <= target - total <= hi else 0
            return hi - lo + 1 if hi >= lo else 0
        count = 0
        for v in range(lo, hi + 1):
            mu[d - 1] = v
            count += rec(d + 1, total + v)
        return count

    return rec(1, 0)


def dfs_sum_series(p, caps, g_max, strict=False):
    """Number of points with each sum 0..g_max, from a difference array."""
    rules = _depth_rules(p, strict)
    n = p - 1
    mu = [0] * n
    diff = [0] * (g_max + 2)

    def rec(d, total):
        lo, hi = _bounds(d, mu, total, caps, rules, g_max)
        if d == n:
            if hi >= lo:
                diff[total + lo] += 1
                diff[total + hi + 1] -= 1
            return
        for v in range(lo, hi + 1):
            mu[d - 1] = v
            rec(d + 1, total + v)

    rec(1, 0)
    out = []
    running = 0
    for g in range(g_max + 1):
        running += diff[g]
        out.append(running)
    return out


# ---------------------------------------------------------------------------
# Symmetric and pseudo-symmetric points found by testing every cone point:
# the reference for counting's walk over the loci of these classes.


def point_frobenius(p: int, mu) -> int:
    """Largest gap of the semigroup with Apéry coordinates mu; -1 if none."""
    return max(i + m * p for i, m in enumerate(mu, start=1)) - p


def filter_class_points(p, caps, low, high, cls) -> list[tuple[int, ...]]:
    """Points under caps with sums low..high in class cls, in lexicographic order.

    A semigroup of genus g is symmetric when 2g = F + 1 and pseudo-symmetric
    when 2g = F + 2; with F = -1, the one without gaps is symmetric.
    """
    excess = {"sym": 1, "psym": 2}[cls]
    return [
        mu
        for mu in dfs_iter_points(p, caps, max_total=high)
        if sum(mu) >= low and 2 * sum(mu) == point_frobenius(p, mu) + excess
    ]


# ---------------------------------------------------------------------------
# The staircase model walked one column at a time, and its semigroups found
# by closing gaps one at a time: the references for the row-width walk of
# ``nsg.paths``.


def column_walk_heights(system, h0_max=None):
    """Yield height profiles of admissible nonempty staircases of a PathSystem.

    Columns are fixed left to right.  Adding column c with height h creates
    the point pairs between column c and every earlier column; each pair
    either checks against an already-fixed column or turns into a minimum
    height demand on a later column.  Since heights never increase, a demand
    exceeding the current height, the target cap, or an unmet demand at
    termination kills the branch immediately.
    """
    p, q = system.p, system.q
    caps = system.column_caps()
    ncols = len(caps)
    heights: list[int] = []
    pending: dict[int, int] = {}
    # One frame per column being filled, kept on an explicit stack so that
    # long triangles do not hit the interpreter's recursion limit: the next
    # height to try, the top height, the demand the column owed on entry,
    # and the pending changes made by the height under trial.
    frames: list[list] = []
    entering = True
    while True:
        if entering:
            entering = False
            c = len(heights)
            if c >= 1 and not pending:
                yield tuple(heights)  # ending the path here satisfies every demand
            if c < ncols:
                hi = min(heights[-1] if heights else max(caps), caps[c])
                if c == 0 and h0_max is not None:
                    hi = min(hi, h0_max)
                # Heights never increase, so every outstanding demand (this
                # column or any later one) bounds the current height from below.
                lo = max(max(pending.values(), default=0), 1)
                if lo <= hi:
                    frames.append([lo, hi, pending.pop(c, None), []])
        if not frames:
            return
        frame = frames[-1]
        c = len(frames) - 1
        del heights[c:]
        recorded = frame[3]
        for u, old in reversed(recorded):
            if old is None:
                del pending[u]
            else:
                pending[u] = old
        recorded.clear()
        h = frame[0]
        if h > frame[1]:
            frames.pop()
            if frame[2] is not None:
                pending[c] = frame[2]
            continue
        frame[0] = h + 1
        ok = True
        # Pairs whose required point sits in an already fixed column: only
        # earlier columns a with a + c >= q - 1.
        for a in range(max(q - 1 - c, 0), c + 1):
            ha = heights[a] if a < c else h
            if heights[a + c - q + 1] < ha + h:
                ok = False
                break
        # Pairs that demand a later column: heights never increase, so these
        # are the columns a up to the first with heights[a] + h <= p.
        for a in range(c + 1) if ok else ():
            ha = heights[a] if a < c else h
            if ha + h <= p:
                break
            u = a + c + 1
            need = ha + h - p
            if need > h or u >= ncols or caps[u] < need:
                ok = False
                break
            if pending.get(u, 0) < need:
                recorded.append((u, pending.get(u)))
                pending[u] = need
        if ok:
            heights.append(h)
            entering = True


@lru_cache(maxsize=None)
def _two_generator_gaps(p: int, q: int) -> frozenset:
    return frozenset(sieve_gaps((p, q)))


def gap_closure_mu(system, heights) -> tuple[int, ...]:
    """mu of <p, q> with the gaps of the staircase's points closed, by sieving."""
    p, q = system.p, system.q
    closed = {
        system.gap_of_point(a, b) for a, h in enumerate(heights) for b in range(h)
    }
    gaps = _two_generator_gaps(p, q)
    mu = []
    for i in range(1, p):
        n = i
        while n in gaps and n not in closed:
            n += p
        mu.append((n - i) // p)
    return tuple(mu)


# ---------------------------------------------------------------------------
# The interior-shift identity on a grid, and the pseudo-symmetric loci by a
# search over all permutations: the references for the 'medim' and 'psym'
# counts of ``nsg.counting``.


def interior_shift_witness(p: int, bound: int) -> tuple[int, ...] | None:
    """First grid point <= bound violating 'interior = all-ones shift of cone'.

    Returns None when the identity holds on the whole grid {0..bound}^{p-1}.
    """
    ineqs = cone_inequalities(p)

    def holds(x, margin):
        return all(x[i - 1] + x[j - 1] - x[k - 1] >= c + margin for i, j, k, c in ineqs)

    for x in product(range(bound + 1), repeat=p - 1):
        interior = holds(x, 1)
        shifted = all(v >= 1 for v in x) and holds(tuple(v - 1 for v in x), 0)
        if interior != shifted:
            return x
    return None


def interior_shift_check(p: int, bound: int) -> bool:
    if bound < 1:
        raise ValueError("bound must be at least 1")
    return interior_shift_witness(p, bound) is None


class SigmaLocus:
    """Equality system selecting one family of pseudo-symmetric vectors.

    sigma is a permutation of {1, ..., p-1} (sigma[i-1] is the image of i)
    whose values pair up, modulo p, against the image of p-2.  equations
    holds tuples (a, b, k, d) meaning x_a + x_b - x_k = d.
    """

    def __init__(self, p: int, sigma: tuple[int, ...]):
        self.p = p
        self.sigma = sigma
        self.equations = _sigma_equations(p, sigma)

    def contains(self, x) -> bool:
        from nsg import DimensionMismatch

        x = tuple(x)
        if len(x) != self.p - 1:
            raise DimensionMismatch(
                f"expected {self.p - 1} coordinates, got {len(x)}"
            )
        return all(
            x[a - 1] + x[b - 1] - x[k - 1] == d for a, b, k, d in self.equations
        )


def _sigma_qualifies(p: int, sigma: tuple[int, ...]) -> bool:
    # sigma[i-1] = image of i; pairing congruences plus the doubling one.
    s = lambda i: sigma[i - 1]
    for i in range(1, p - 2):
        if (s(i) + s(p - 2 - i) - s(p - 2)) % p != 0:
            return False
    return (2 * s(p - 1) - s(p - 2)) % p == 0


def _sigma_equations(p: int, sigma: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    s = lambda i: sigma[i - 1]
    eqs = []
    for i in range(1, p - 2):
        if i > p - 2 - i:
            break  # the pair (i, p-2-i) was already emitted
        a, b, k = s(i), s(p - 2 - i), s(p - 2)
        d = 0 if a + b == k else -1  # otherwise a + b == k + p
        eqs.append((a, b, k, d))
    a, k = s(p - 1), s(p - 2)
    d = 1 if 2 * a == k else 0  # otherwise 2a == k + p
    eqs.append((a, a, k, d))
    return tuple(eqs)


@lru_cache(maxsize=None)
def sigma_star_set(p: int) -> tuple[SigmaLocus, ...]:
    """All qualifying permutations with their equality systems, sorted."""
    if p < 3:
        raise ValueError("p must be at least 3")
    loci = []
    for perm in permutations(range(1, p)):
        if _sigma_qualifies(p, perm):
            loci.append(SigmaLocus(p, perm))
    return tuple(sorted(loci, key=lambda locus: locus.sigma))


# ---------------------------------------------------------------------------
# Identities between the library's own counts, and quasi-polynomial checks
# built on its fit.


def verify_interior_identity(p: int, g_max: int) -> bool:
    """Interior counts at genus g match full counts at genus g - (p-1)."""
    from nsg import genus_count_series

    if g_max < p - 1:
        raise ValueError("g_max must be at least p - 1")
    full = genus_count_series(p, g_max)
    inner = genus_count_series(p, g_max, "medim")
    return all(inner[g] == full[g - (p - 1)] for g in range(p - 1, g_max + 1))


def verify_medim_identity(p: int, q_max: int) -> bool:
    """Maximal-embedding-dimension counts shift: medim at q equals all at q - p."""
    from nsg import count_containing

    if q_max <= 2 * p:
        raise ValueError("q_max must exceed 2 * p")
    for q in range(p + 1, q_max + 1):
        if math.gcd(p, q) != 1:
            continue
        if count_containing(p, q, "medim") != count_containing(p, q - p):
            return False
    return True


def cumulative_by_genus(p: int, genus: int) -> int:
    """Number of semigroups containing p with genus at most the given one."""
    from nsg import genus_count_series

    return sum(genus_count_series(p, genus))


def partial_sum(qp):
    """n -> sum of the values at 0..n of an nsg.QuasiPolynomial, as another.

    The result has the same period and degree at most one higher, so it is
    recovered by exact interpolation on enough prefix sums.
    """
    from nsg import fit

    d = max(qp.degree, 0)
    sums = []
    acc = Fraction(0)
    for n in range(qp.period * (d + 3)):
        acc += qp.evaluate(n)
        sums.append(acc)
    return fit(sums, qp.period, d + 1)


AsymptoticReport = namedtuple(
    "AsymptoticReport",
    "exponent limit bound_constant checked largest_q gap_at_largest worst_scaled_gap ok",
)


def asymptotic_ratio_check(
    counter,
    exponent: int,
    limit,
    q_max: int,
    *,
    bound_constant,
    q_min: int = 1,
    coprime_to: int | None = None,
):
    """Check |counter(q)/q^e - limit| <= C/q on a q range, exactly.

    counter is called on every q in [q_min, q_max] (restricted to values
    coprime to ``coprime_to`` when given) and must return exact integers.
    """
    limit = Fraction(limit)
    bound = Fraction(bound_constant)
    ok = True
    checked = 0
    worst = Fraction(0)
    last_q = None
    last_gap = None
    for q in range(q_min, q_max + 1):
        if coprime_to is not None and math.gcd(q, coprime_to) != 1:
            continue
        gap = abs(Fraction(counter(q), q**exponent) - limit)
        checked += 1
        last_q, last_gap = q, gap
        worst = max(worst, gap * q)
        if gap > bound / q:
            ok = False
    if last_q is None:
        raise ValueError("empty q range")
    return AsymptoticReport(
        exponent, limit, bound, checked, last_q, last_gap, worst, ok
    )


def solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of rows @ x = rhs by Gauss-Jordan elimination.

    None if the system is inconsistent; free variables are set to zero.
    """
    ncols = len(rows[0])
    echelon, pivots = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = echelon[r][ncols]
    return tuple(x)
