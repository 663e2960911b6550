"""Modules with a non-negative integer basis over weak based rings.

A module datum assigns to every ring basis index i a rank x rank matrix
action[i] with action[i][l][k] = coefficient of m_k in m_l * b_i.  The module
law is checked exhaustively: action matrices must satisfy

    action(i) action(j) = sum_k c[i][j][k] action(k)          (composition)
    sum_i a[i] action(i) = identity                            (unit action)

The laws, the searches and their prunes read the ring's nonzero constants,
the cells {k: c} of ``ValidatedRing.mult``, so a sum over k such as the right
side above has one term per nonzero c[i][j][k], and one in all for a group
ring.

Irreducibility asks that the closure of any single basis index under the
positive-entry reachability relation is the whole basis; indecomposability
asks that the undirected positivity graph is connected.

The enumerations implement the finiteness bounds of the classification
argument.  With b the sum of all ring basis elements and b^2 = sum n_i b_i,
set N = max n_i.  For an irreducible module the total action matrix F of b is
strictly positive, its minimal row sum f_min satisfies N f_min >= f_min^2,
and N^2 >= sum_{j,k} F[l0][j] F[j][k] for the minimizing row l0.  That bounds
the module rank by N and the entries through the N^2 budget.  For ring
homomorphisms the coordinate sums of f(b) are bounded by |J| N, with N taken
from the source ring.  Both searches accept a cap multiplier (at least 1) so
the stability of the counts under enlarged caps can be demonstrated.

A basis element b_i with b_i b_j = 1 acts by a permutation matrix, which the
module search uses to prune.  Both searches count their work, the values they
try plus the terms their caps and prunes sum or compare, over every module
rank of one call, and raise SizeGuardExceeded once it passes
``SEARCH_WORK_BUDGET``; the count is deterministic.  Z/2^3 -> Z/2^3 homs, the
largest admitted case, count 6,808,935 (1.3-1.5 s), and the modules of the
group rings of order 8 3.4-3.9 million (1.0-1.9 s with their canonical keys;
the module search recurses through plain frames, and where in that range a
call falls depends on how deep its caller's stack is).  Z/3 x Z/3,
Fib (x) Fib and Z/3 (x) Fib modules (13, 55 and 9 s to finish) are refused
after 0.7-1.4 s, Z/2^4 -> Z/2^4 homs after 0.9-1 s (in-process, Python
3.11.7, on a 2-CPU host 1.5-1.7x slower than perfbench's reference).
"""

from __future__ import annotations

from operator import mul

from .basedring import (SEARCH_WORK_BUDGET, ValidatedRing, WeakBasedCertificate, _ints,
                        _is_list, find_weak_based_involutions, lex_min_key)
from .errors import SizeGuardExceeded, UsageError, ValidationError, record


class NegativeEntry(ValidationError):
    def __init__(self, i: int, l: int, k: int):
        super().__init__(f"negative action entry at generator {i}, cell ({l}, {k})")
        self.indices = (i, l, k)


class UnitActionFails(ValidationError):
    def __init__(self):
        super().__init__("the ring unit does not act as the identity matrix")


class ActionLawFails(ValidationError):
    def __init__(self, i: int, j: int):
        super().__init__(f"action(b_{i}) action(b_{j}) != action(b_{i} b_{j})")
        self.indices = (i, j)


class RingNotWeakBased(ValidationError):
    def __init__(self):
        super().__init__("ring admits no weak based involution")


@record
class ZPlusModuleData:
    ring: ValidatedRing
    rank: int
    action: tuple  # per ring basis index, a rank x rank tuple of tuples

    @classmethod
    def build(cls, ring: ValidatedRing, action) -> "ZPlusModuleData":
        """The datum of rank len(action[0]).  Raises UsageError unless action
        holds one rank x rank matrix per ring basis index and every entry is
        an int (a bool is not); signs and the module laws are left to
        validation."""
        if not _is_list(action, ring.rank):
            raise UsageError(f"action must hold one matrix per ring basis index, "
                             f"{ring.rank} in all")
        first = action[0] if action else ()
        rank = len(first) if isinstance(first, (list, tuple)) else 0
        for i, mat in enumerate(action):
            if not _is_list(mat, rank) or not all(_is_list(row, rank) for row in mat):
                raise UsageError(f"action[{i}] must be a {rank} x {rank} matrix")
        action = tuple(tuple(_ints(row, f"action[{i}][{l}]") for l, row in enumerate(mat))
                       for i, mat in enumerate(action))
        return cls(ring=ring, rank=rank, action=action)


class ValidatedModule:
    """A module datum whose laws have been checked."""

    def __init__(self, data: ZPlusModuleData):
        self.data = data
        self.ring = data.ring
        self.rank = data.rank
        self.action = data.action

    def canonical_key(self):
        """(rank, the least concatenated action matrices over simultaneous
        permutations of the module basis), by ``lex_min_key``."""
        return self.rank, lex_min_key([(mat, 2) for mat in self.action], self.rank)

    def __repr__(self) -> str:
        return f"ValidatedModule(rank={self.rank} over rank-{self.ring.rank} ring)"


def validate_module(data: ZPlusModuleData) -> ValidatedModule:
    """Check rank, non-negativity, the unit action and the composition law;
    raise on failure.  The zero module is refused, as rank-0 rings are."""
    ring = data.ring
    r = data.rank
    if r == 0:
        raise ValidationError("rank must be at least 1: a module needs a nonempty basis")
    for i, mat in enumerate(data.action):
        for l in range(r):
            for k in range(r):
                if mat[l][k] < 0:
                    raise NegativeEntry(i, l, k)
    unit_action = tuple(
        tuple(sum(a * data.action[i][l][k] for i, a in enumerate(ring.unit_coeffs))
              for k in range(r))
        for l in range(r))
    if unit_action != tuple(tuple(int(l == k) for k in range(r)) for l in range(r)):
        raise UnitActionFails()
    # A_i A_j against sum_k c_ij^k A_k, over the nonzero constants of b_i b_j,
    # row by row on packed rows; with E the largest entry given, a field of
    # either side is at most r E^2 or E sum_k c_ij^k, so the width below
    # holds it and two rows are equal exactly when their ints are
    largest = max(max(row) for mat in data.action for row in mat)
    c_sum = max(sum(cell.values()) for plane in ring.mult for cell in plane)
    width = max(r * largest * largest, c_sum * largest, 1).bit_length()
    packed = [[_pack(row, width) for row in mat] for mat in data.action]
    for i, plane in enumerate(ring.mult):
        for j, cell in enumerate(plane):
            for l, row in enumerate(data.action[i]):
                if sum(map(mul, row, packed[j])) != sum(c * packed[k][l]
                                                        for k, c in cell.items()):
                    raise ActionLawFails(i, j)
    return ValidatedModule(data)


def _pack(row, width: int) -> int:
    """The int whose ``width``-bit field k holds row[k]; each entry must be
    non-negative and below 2**width."""
    packed = 0
    for v in reversed(row):
        packed = packed << width | v
    return packed


def _positivity_graph(module: ValidatedModule, undirected: bool) -> list[set[int]]:
    """adj[l]: every k with a positive cell (l, k) in some action matrix, and
    with a positive cell (k, l) too when ``undirected``."""
    r = module.rank
    adj = [set() for _ in range(r)]
    for mat in module.action:
        for l in range(r):
            for k in range(r):
                if mat[l][k] > 0:
                    adj[l].add(k)
                    if undirected:
                        adj[k].add(l)
    return adj


def _reach(adj: list[set[int]], start: int) -> set[int]:
    seen, frontier = {start}, [start]
    while frontier:
        for k in adj[frontier.pop()]:
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    return seen


def is_irreducible(module: ValidatedModule) -> bool:
    """No proper non-empty basis subset generates a proper submodule."""
    adj = _positivity_graph(module, undirected=False)
    return all(len(_reach(adj, start)) == module.rank for start in range(module.rank))


def is_indecomposable(module: ValidatedModule) -> bool:
    """The undirected positivity graph on the basis is connected."""
    return len(_reach(_positivity_graph(module, undirected=True), 0)) == module.rank


def regular_module(ring: ValidatedRing) -> ValidatedModule:
    """The ring acting on itself: action[i][l][k] = c[l][i][k]."""
    action = [tuple(plane[i] for plane in ring.data.mult) for i in range(ring.rank)]
    return validate_module(ZPlusModuleData.build(ring, action))


def direct_sum(a: ValidatedModule, b: ValidatedModule) -> ValidatedModule:
    if a.ring is not b.ring and a.ring.data != b.ring.data:
        raise ValueError("modules must share the ring")
    # the block-diagonal matrix of each pair of actions
    action = [[row + (0,) * b.rank for row in mat_a] + [(0,) * a.rank + row for row in mat_b]
              for mat_a, mat_b in zip(a.action, b.action)]
    return validate_module(ZPlusModuleData.build(a.ring, action))


@record
class EnumerationBounds:
    """Search caps, recomputed from the ring data (never user-supplied)."""

    n_max: int                 # N = max coefficient of b^2 over the basis, module rank <= N
    coeff_bound_hom: int = 0   # |J| N, set when built for a hom search

    @classmethod
    def for_ring(cls, ring: ValidatedRing, cap_scale: int = 1) -> "EnumerationBounds":
        """Caps for a module search; a ``cap_scale`` below 1 would cut the
        exhaustive search short of the forced bound, so it is refused."""
        if cap_scale < 1:
            raise UsageError(f"cap_scale must be at least 1, got {cap_scale}")
        ones = [1] * ring.rank
        b_squared = ring.product(ones, ones)
        n = max(b_squared) * cap_scale
        return cls(n_max=n)

    @classmethod
    def for_hom(cls, source: ValidatedRing, target: ValidatedRing,
                cap_scale: int = 1) -> "EnumerationBounds":
        """Caps for a homomorphism search; N comes from the source ring and
        the per-coordinate cap is the target rank times N."""
        bounds = cls.for_ring(source, cap_scale)
        return cls(n_max=bounds.n_max, coeff_bound_hom=target.rank * bounds.n_max)


def _as_certificate(ring) -> WeakBasedCertificate:
    if isinstance(ring, WeakBasedCertificate):
        return ring
    certs = find_weak_based_involutions(ring)
    if not certs:
        raise RingNotWeakBased()
    return certs[0]


def enumerate_irreducible_modules(ring, cap_scale: int = 1) -> list[ValidatedModule]:
    """All irreducible modules up to basis permutation, by bounded search.

    ``ring`` is a weak based certificate (or a validated ring, which is then
    certified first).  ``cap_scale`` multiplies every search cap; the result
    must be independent of it, which the tests exercise.  Raises
    SizeGuardExceeded once the search's work passes ``SEARCH_WORK_BUDGET``.
    """
    vring = _as_certificate(ring).ring
    bounds = EnumerationBounds.for_ring(vring, cap_scale)
    found: dict[tuple, ValidatedModule] = {}
    for action in _search_actions(vring, bounds, invertible_generators(vring)):
        module = validate_module(ZPlusModuleData.build(vring, action))
        if not is_irreducible(module):
            continue
        key = module.canonical_key()
        if key not in found:
            found[key] = module
    return [found[k] for k in sorted(found)]


def invertible_generators(ring: ValidatedRing) -> frozenset[int]:
    """The basis indices i with b_i b_j = 1 for some basis index j."""
    one = {k: a for k, a in enumerate(ring.unit_coeffs) if a}
    return frozenset(i for i, plane in enumerate(ring.mult) if one in plane)


def _search_width(b_squared: list[int], mult, n_max: int) -> int:
    """Bits per field of the module search's packed rows, one int per row with a field
    per column.  Row 0 is capped at n_max, and the lp = 0 budget equality with F >= 1
    gives every row sum f_l <= sum_j F[0][j] f_j = sum_i n_i rowsum(A_i[0]) <= max(b^2)
    n_max = M.  So a law's sum over a row is at most M^2 and its target at most M max(b^2)
    <= M^2 or M max_ij sum_m c_ij^m; the fields hold these below a guard bit, no packed
    sum carries between fields, and ((target | G) - partial) & G == G, G the guard bits,
    holds exactly when no field of partial exceeds that of target."""
    bound = max(b_squared) * n_max
    c_sum = max(sum(cell.values()) for plane in mult for cell in plane)
    return max(bound * bound, bound * c_sum).bit_length() + 1


def _search_actions(ring: ValidatedRing, bounds: EnumerationBounds,
                    invertible: frozenset[int]) -> list[list[tuple]]:
    """The module actions found by backtracking over the rows of all
    generator matrices, at each module rank r = 1, ..., N in turn.

    Row l is filled for every generator matrix A_i at once, cell by cell and
    within a cell generator by generator, each value counting up from its
    least admissible value; so the actions are listed in lexicographic order
    of that filling sequence, and the first labeling met of each module class
    is the same one the search without the row-0 order below would meet first.
    Row 0 is normalized to carry the minimal total row sum, which the
    finiteness argument bounds by N.  Every entry, unit coefficient and
    structure constant is non-negative, so a partial sum only grows as the
    search goes deeper, and that makes each prune sound:

    * invertible generators act by permutation matrices: if b_i b_j = 1
      then A_i A_j = I, and if row l of A_i had positive entries in columns
      s != s', rows s and s' of A_j would both vanish off column l, so A_j
      would be singular; hence each row of A_i holds a single entry, in a
      column no other row uses as A_i is invertible too, and that entry is 1
      because A_i[l][s] A_j[s][l] = 1.
      So every cell of an invertible A_i is at most 1, each of its rows sums
      to exactly 1, and a column taken by a filled row is closed to the rest;
    * unit law, per generator: the partial sum of sum_t a_t A_t[l][k] =
      delta_lk is carried down the generators of a cell; once above its
      target it stays above, and once no later a_t is nonzero it stays put;
    * F strictly positive: every cell of F = sum_i A_i is at least 1, as
      irreducibility requires;
    * per-cell caps, set once per row: in the law A_i A_j = sum_m c_ij^m A_m
      at a filled row lp and column k, the left side's term through row l is
      A_i[lp][l] A_j[l][k], so A_j[l][k] is at most (target - the terms
      through rows below l) // A_i[lp][l];
    * row-0 column order: the columns 1..r-1 of row 0 are lexicographically
      non-decreasing in (A_0[0][k], ..., A_{n-1}[0][k]); relabeling the basis
      by a permutation fixing 0 sorts them and keeps row 0 the minimal row,
      so every class keeps its lexicographically first labeling;
    * per-row budget equalities: the coordinate sum of m_l b b computed both
      ways gives sum_j F[l][j] f_j = sum_i n_i rowsum(A_i[l]) exactly, with
      unfilled row sums at least max(f_0, r); it also caps the next row sum;
    * the matrix law for b itself: F F = sum_i n_i A_i entrywise, checked on
      partial sums;
    * partial sums of the generator law equations against their exact
      targets on filled rows.
    """
    n_gen = ring.rank
    unit = ring.unit_coeffs
    last_unit = max(t for t in range(n_gen) if unit[t])
    ones = [1] * n_gen
    b_squared = ring.product(ones, ones)  # n_i coefficients
    cells = [[tuple(cell.items()) for cell in plane] for plane in ring.mult]
    width = _search_width(b_squared, ring.mult, bounds.n_max)  # each filled row is also kept packed
    field = (1 << width) - 1
    rows: list[list[list[int]]] = [[] for _ in range(n_gen)]  # rows[i][l] = row l of A_i
    packed: list[list[int]] = [[] for _ in range(n_gen)]      # packed[i][l] = row l of A_i
    f_mat: list[list[int]] = []     # rows of F = sum_i A_i
    f_packed: list[int] = []        # the same rows, packed
    f_rows: list[int] = []          # total row sums of F
    budgets: list[int] = []         # sum_i n_i rowsum(A_i[l]) per row l
    actions: list[list[tuple]] = []
    work = 0

    def prune_ok(filled: int, f_min: int) -> bool:
        nonlocal work
        complete = filled == r
        # coordinate sums of m_l b b computed both ways give, for every l,
        # sum_j F[l][j] f_j == sum_i n_i rowsum(A_i[l]) exactly; unfilled row
        # sums are at least f_min
        for l in range(filled):
            work += r * (n_gen + 1) + 1
            row = f_mat[l]
            lower = sum(map(mul, row, f_rows)) + f_min * sum(row[filled:])
            if lower > budgets[l] or (complete and lower != budgets[l]):
                return False
        # F law: F F = sum_i n_i A_i
        for lp in range(filled):
            work += r * (n_gen + filled + 1)
            target = sum(n * packed[m][lp] for m, n in enumerate(b_squared))
            partial = sum(map(mul, f_mat[lp], f_packed))
            if (partial != target if complete
                    else ((target | guard) - partial) & guard != guard):
                return False
        # generator laws
        for i in range(n_gen):
            rows_i = rows[i]
            for j, cell in enumerate(cells[i]):
                packed_j = packed[j]
                for lp in range(filled):
                    work += r * (len(cell) + filled + 1)
                    target = sum(c * packed[m][lp] for m, c in cell)
                    partial = sum(map(mul, rows_i[lp], packed_j))
                    if (partial != target if complete
                            else ((target | guard) - partial) & guard != guard):
                        return False
        return True

    def extend(l: int):
        nonlocal work
        if l == r:
            actions.append([tuple(tuple(row) for row in rows[i]) for i in range(n_gen)])
            return
        if l == 0:
            cap = bounds.n_max
        else:
            # f_l enters every filled budget equality; each gives an upper
            # bound (target - other terms at their minima) / F[lp][l]
            f_min = max(f_rows[0], r)
            cap = None
            for lp in range(l):
                row = f_mat[lp]
                others = sum(map(mul, row, f_rows)) + f_min * sum(row[l + 1:])
                row_cap = (budgets[lp] - others) // row[l]
                if cap is None or row_cap < cap:
                    cap = row_cap
            if cap is None or cap < f_min:
                return
        current = [[0] * r for _ in range(n_gen)]
        # vmax[j][k]: the largest A_j[l][k] that keeps every generator law at
        # a filled row within its target; prune_ok has already checked the
        # terms through rows below l, so a zero A_i[lp][l] gives no bound
        vmax = [[cap] * r for _ in range(n_gen)]
        for i in range(n_gen):
            for lp in range(l):
                row_ilp = rows[i][lp]
                a = row_ilp[l]
                if not a:
                    continue
                for j, cell in enumerate(cells[i]):
                    work += r * (len(cell) + l + 1)
                    # target - base, packed; prune_ok has passed on rows < l,
                    # so no field of it is negative and none borrows
                    room = (sum(c * packed[m][lp] for m, c in cell)
                            - sum(map(mul, row_ilp, packed[j])))
                    vmax_j = vmax[j]
                    for k in range(r):
                        v = (room >> k * width & field) // a
                        if v < vmax_j[k]:
                            vmax_j[k] = v
        # an invertible A_i is a permutation matrix: cells at most 1, and the
        # l columns taken by the filled rows are closed to row l
        last_free = [r] * n_gen  # the last column where row l of A_i can take its 1
        for i in invertible:
            taken = {rows[i][lp].index(1) for lp in range(l)}
            vmax[i] = [min(vmax[i][k], 0 if k in taken else 1) for k in range(r)]
            last_free[i] = max(k for k in range(r) if k not in taken)
        placed = [0] * n_gen  # row sum of A_i[l] so far

        def fill(k: int, used: int):
            """Cells k, k+1, ... of row l, with ``used`` the row sum of F so
            far; at k == r the row is complete and the rows below it follow."""
            if work > SEARCH_WORK_BUDGET:
                raise SizeGuardExceeded(work, SEARCH_WORK_BUDGET)
            if k < r:
                assign(k, used, 0, 0, 0, l == 0 and k >= 2)
                return
            if l > 0 and used < f_rows[0]:
                return  # row 0 is the minimal row
            for i in range(n_gen):
                rows[i].append(current[i][:])
                packed[i].append(_pack(current[i], width))
            f_mat.append([sum(column) for column in zip(*current)])
            f_packed.append(sum(packed[i][l] for i in range(n_gen)))
            f_rows.append(used)
            budgets.append(sum(map(mul, b_squared, map(sum, current))))
            if prune_ok(l + 1, max(f_rows[0], r)):
                extend(l + 1)
            for i in range(n_gen):
                rows[i].pop()
                packed[i].pop()
            f_mat.pop()
            f_packed.pop()
            f_rows.pop()
            budgets.pop()

        def assign(k: int, used: int, i: int, cell_sum: int, unit_sum: int, tied: bool):
            """Cell k of row l for generators i, i+1, ...; while ``tied``,
            column k of row 0 equals column k-1 so far."""
            nonlocal work
            if i == n_gen:
                if cell_sum >= 1:  # F must be strictly positive for irreducibility
                    fill(k + 1, used + cell_sum)
                return
            unit_target = 1 if k == l else 0
            prev = current[i][k - 1] if tied else 0
            low, high = prev, min(vmax[i][k], cap - used - cell_sum)
            if i in invertible:
                # row l of A_i sums to exactly 1
                high = min(high, 1 - placed[i])
                if k == last_free[i] and not placed[i]:
                    low = max(low, 1)
            for v in range(low, high + 1):
                work += 1
                partial = unit_sum + unit[i] * v
                if partial > unit_target:
                    break
                if partial < unit_target and i >= last_unit:
                    continue
                current[i][k] = v
                placed[i] += v
                assign(k, used, i + 1, cell_sum + v, partial, tied and v == prev)
                placed[i] -= v
            current[i][k] = 0

        fill(0, 0)

    # the helpers read r and the guard bits of its r fields when called, so
    # each rank reuses them
    for r in range(1, bounds.n_max + 1):
        guard = sum(1 << (k * width + width - 1) for k in range(r))
        extend(0)
    return actions


@record
class RingHomCandidate:
    """A homomorphism of weak based rings in basis coordinates."""

    source: WeakBasedCertificate
    target: WeakBasedCertificate
    matrix: tuple  # matrix[i][j] = coefficient of d_j in f(b_i)


def enumerate_ring_homs(source, target, cap_scale: int = 1) -> list[RingHomCandidate]:
    """All homomorphisms of weak based rings source -> target.

    Every coordinate of f(b_i) is bounded by cap = |J| N with N the maximal
    coefficient of b^2 in the source; the search is exhaustive under that cap
    (times ``cap_scale``).  f(b_i) is built one coordinate at a time, each
    counting up from 0, and f(b_i*) = f(b_i)* is written along with it.
    Structure constants and coordinates are non-negative, so every product
    only grows as coordinates are filled, and that makes each prune sound:

    * unit law after each coordinate: sum_t a_t f(b_t) = 1 read with
      unfilled coordinates as 0 must not exceed the unit's coordinates, and
      a larger value only raises it, so the value loop stops there;
    * pair bound after each coordinate: for each pair of assigned images with
      b_i or b_i* as a factor, f(b_j) f(b_k) read with unfilled coordinates
      as 0 must not exceed sum_m c_jk^m f(b_m) read with f(b_i), f(b_i*) and
      every unassigned image at cap; a larger value of the same coordinate
      only raises the left side, so the value loop stops there;
    * a self-dual b_i = b_i* needs a self-dual image: filling coordinate c
      of f(b_i) fills coordinate c* too;
    * once f(b_i) is complete, the unit law and the law for every pair of
      assigned images are checked against the range their unassigned terms
      can still add, each at most cap;
    * the complete assignment is checked exactly against the ring, unit and
      involution laws.
    """
    src = _as_certificate(source)
    tgt = _as_certificate(target)
    sring, tring = src.ring, tgt.ring
    n_src, n_tgt = sring.rank, tring.rank
    cap = EnumerationBounds.for_hom(sring, tring, cap_scale).coeff_bound_hom

    sigma_s, sigma_t = src.involution, tgt.involution
    assigned: list[list[int] | None] = [None] * n_src
    results: list[RingHomCandidate] = []
    work = 0

    source_unit = {t: a for t, a in enumerate(sring.unit_coeffs) if a}

    def law_ok(lhs, terms: dict, complete: bool) -> bool:
        """Whether lhs = sum_k c f(b_k) over the {k: c} terms can still hold:
        lhs is at least the assigned terms and at most those plus cap per
        unit of c on an unassigned image, and equal to them when complete."""
        nonlocal work
        work += n_tgt * (1 + len(terms))
        lower = [0] * n_tgt
        unknown = 0
        for k, c in terms.items():
            if assigned[k] is None:
                unknown += c
            else:
                for coord, x in enumerate(assigned[k]):
                    lower[coord] += c * x
        slack = unknown * cap
        for have, low in zip(lhs, lower):
            if have < low or have > low + slack or (complete and have != low):
                return False
        return True

    def prune_ok(complete: bool) -> bool:
        # the unit law, then f(b_i) f(b_j) = f(b_i b_j) for the assigned pairs
        done = [i for i in range(n_src) if assigned[i] is not None]
        return law_ok(tring.unit_coeffs, source_unit, complete) and all(
            law_ok(tring.product(assigned[i], assigned[j]), sring.mult[i][j], complete)
            for i in done for j in done)

    def extend(i: int):
        if i == n_src:
            if prune_ok(complete=True):
                results.append(RingHomCandidate(
                    source=src, target=tgt,
                    matrix=tuple(tuple(vec) for vec in assigned)))
            return
        if assigned[i] is not None:
            extend(i + 1)
            return
        partner = sigma_s[i]
        vec = [0] * n_tgt
        star = vec if partner == i else [0] * n_tgt
        assigned[i], assigned[partner] = vec, star
        fresh = {i, partner}
        # (f(b_j), f(b_k), upper bound of each coordinate of f(b_j b_k)) for
        # the assigned pairs touching b_i or b_i*
        pair_bounds = [
            (assigned[j], assigned[k],
             [sum(c * (cap if m in fresh or assigned[m] is None else assigned[m][coord])
                  for m, c in sring.mult[j][k].items())
              for coord in range(n_tgt)])
            for j in range(n_src) for k in range(n_src)
            if (j in fresh or k in fresh)
            and assigned[j] is not None and assigned[k] is not None]
        unit_terms = [(a, assigned[t]) for t, a in enumerate(sring.unit_coeffs)
                      if a and assigned[t] is not None]
        coords = [c for c in range(n_tgt) if partner != i or sigma_t[c] >= c]
        value_work = 1 + n_tgt * len(pair_bounds)  # a value and its pair bounds

        def exceeds(c: int) -> bool:
            """Whether, after coordinate c of f(b_i) was set, the left side
            of the unit law or of a pair law already exceeds its largest
            reachable value."""
            return (any(sum(a * g[d] for a, g in unit_terms) > tring.unit_coeffs[d]
                        for d in (c, sigma_t[c]))
                    or any(x > bound for gj, gk, upper in pair_bounds
                           for x, bound in zip(tring.product(gj, gk), upper)))

        def fill(pos: int):
            nonlocal work
            if work > SEARCH_WORK_BUDGET:
                raise SizeGuardExceeded(work, SEARCH_WORK_BUDGET)
            if pos == len(coords):
                if prune_ok(complete=False):
                    extend(i + 1)
                return
            c = coords[pos]
            for v in range(cap + 1):
                work += value_work
                vec[c] = star[sigma_t[c]] = v
                if exceeds(c):
                    break
                fill(pos + 1)
            vec[c] = star[sigma_t[c]] = 0

        fill(0)
        assigned[i] = assigned[partner] = None

    extend(0)
    results.sort(key=lambda h: h.matrix)
    return results
