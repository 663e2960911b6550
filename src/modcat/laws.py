"""The ring laws on sparse structure constants: associativity and the
two-sided unit, expanded over the nonzero constants only.

:func:`first_law_failure` needs nothing of a field, only ``+``, ``*`` and a
truth value of the coefficients, so ``algebras`` checks its algebras with it
and ``basedring`` its integer rings, without the algebra layer.

Associativity is checked only on the rows e_i, i in a generating set S of
the left nucleus N = {a : (a, x, y) = 0 for all x, y}, where
(a, b, c) = (ab)c - a(bc) is the associator.  N is a subspace closed under
products, by the Teichmueller identity

    (ab, c, d) - (a, bc, d) + (a, b, cd) = a(b, c, d) + (a, b, c)d

which holds in every nonassociative ring (Schafer, *An Introduction to
Nonassociative Algebras*, ch. II): for a, b in N every term but the first
vanishes.  :func:`nucleus_generators` picks S so that the unit and the
single-term products of S reach every basis element; once the rows of S and
the unit law pass, N is everything.  In an associative algebra an element
that commutes with a generating set commutes with everything, so
``StructureConstantAlgebra.center_basis`` takes the commutators with S
only.
"""


def _combine(terms) -> dict:
    """Nonzero entries of sum coeff * cell over the (coeff, cell) terms.

    Every coeff and every constant in the cells must be nonzero, field
    elements or ints: a product of two is then nonzero, so only a key that
    received two terms can cancel, and with none the filter is skipped."""
    out = {}
    merged = False
    for coeff, cell in terms:
        for k, c in cell.items():
            t = coeff * c
            if k in out:
                out[k] += t
                merged = True
            else:
                out[k] = t
    return {k: c for k, c in out.items() if c} if merged else out


def nucleus_generators(mult, unit) -> list[int]:
    """A generating set S of basis indices, ascending, whose rows are all
    :func:`first_law_failure` needs to check for associativity.

    An index joins S when nothing reached so far reaches it.  The unit's
    index u is reached when the unit is c e_u; after each new member the
    reached set is closed under products: reached e_a, e_b whose product
    e_a e_b is a single term c e_k reach k.  Once the rows of S and the unit
    law hold, every reached index lies in the left nucleus: the unit does,
    products of nucleus elements do, and so does e_k when c e_k does, since
    c is invertible over a field and the constants are torsion-free over Z.

    Only the lengths of the cells ``mult[a][b]``, dicts {k: c} of nonzero
    constants, and the nonzero coordinates of ``unit`` are read."""
    support = [m for m, um in enumerate(unit) if um]
    reached = set(support) if len(support) == 1 else set()
    generators = []
    for i in range(len(mult)):
        if i in reached:
            continue
        generators.append(i)
        reached.add(i)
        todo = [i]
        while todo:
            a = todo.pop()
            for b in list(reached):
                for cell in (mult[a][b], mult[b][a]):
                    if len(cell) == 1:
                        (k,) = cell
                        if k not in reached:
                            reached.add(k)
                            todo.append(k)
    return generators


def _law_failure(mult, unit, one, rows):
    """The first failure of associativity on the rows e_i, i in ``rows``,
    or else of the two-sided unit law; None when both hold."""
    dim = len(mult)
    for i in rows:
        for j in range(dim):
            cell_ij = mult[i][j]
            for k in range(dim):
                left = _combine((cm, mult[m][k]) for m, cm in cell_ij.items())
                right = _combine((cm, mult[i][m]) for m, cm in mult[j][k].items())
                if left != right:
                    return (i, j, k), left, right
    units = [(m, um) for m, um in enumerate(unit) if um]
    for i in range(dim):
        basis_i = {i: one}
        left = _combine((um, mult[m][i]) for m, um in units)
        if left != basis_i:
            return (i, "left"), left, basis_i
        right = _combine((um, mult[i][m]) for m, um in units)
        if right != basis_i:
            return (i, "right"), right, basis_i
    return None


def first_law_failure(mult, unit, one, generators):
    """The first failure of associativity or of the two-sided unit law, or
    None when both hold.

    ``mult[i][j]`` is the dict {k: c} of the nonzero constants of e_i e_j
    and ``unit`` the unit's coordinates; ``one`` is the coefficient 1 and
    ``generators`` is ``nucleus_generators(mult, unit)``.  Both sides of
    every law are expanded over the nonzero constants only, so the
    coefficients need just ``+``, ``*`` and a truth value: field elements
    and ints alike.  A failure is (indices, left, right), the two sides as
    {l: c} dicts of their nonzero coordinates.  Associativity comes first:
    indices (i, j, k) for the first triple in lex order with
    (e_i e_j) e_k != e_i (e_j e_k).  Then, for each i in turn, indices
    (i, "left") when 1 e_i != e_i and (i, "right") when e_i 1 != e_i.

    The laws hold when associativity holds on the rows of ``generators``
    and the unit law holds (see the module docstring).  When either fails,
    the same expansion runs again over every row, to name the first
    failure in the order above.
    """
    if _law_failure(mult, unit, one, generators) is None:
        return None
    return _law_failure(mult, unit, one, range(len(mult)))
