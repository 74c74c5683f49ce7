"""Helpers shared by the test modules."""

from collections import Counter

from dglevels.field import pivot_columns
from dglevels.graded import CochainComplex, GradedVectorSpace, dense_rows
from dglevels.module import DGModulePresentation


def rank(rows, field):
    """The rank of a dense matrix: the number of its pivot columns."""
    return len(pivot_columns(rows, field))


def matrix(cx, n):
    """d^n of a complex as dense rows, all zero for a map it does not store."""
    return dense_rows(cx.cols.get(n) or [()] * cx.dim(n), cx.dim(n + 1), cx.field)


def differential(cx):
    """{n: d^n as dense rows} for every map the complex stores."""
    return {n: matrix(cx, n) for n in cx.cols}


def shift_degrees(M):
    """The degrees of a trivial module's K-summands, with multiplicity,
    ascending."""
    return [n for n in M.complex.space.degrees() for _ in range(M.complex.dim(n))]


def raw_expansion(module):
    """A free module over H*(S^d) as a raw module: its expansion in the
    default window with the action of x as matrices."""
    A = module.algebra
    (x,) = A.generators
    exp = module.expand(module.default_window())
    actions = {}
    for n, elems in exp.elements.items():
        targets = exp.elements.get(n + x.degree)
        if targets:
            mat = actions[n] = [[A.field.zero()] * len(elems) for _ in targets]
            for j, e in enumerate(elems):
                for t, c in exp.act_element(e, A.generator_poly(x.label)).items():
                    mat[exp.pos[t][1]][j] = c
    return DGModulePresentation.raw(A, exp.complex, {x.label: actions})


def with_k(raw, shifts):
    """raw ⊕ Σ^{-s}K for each s in ``shifts``: one basis vector more in
    degree s, which d and the action neither hit nor move."""
    cx, zero = raw.complex, raw.field.zero()
    extra = Counter(shifts)
    basis = {n: [*cx.space.labels(n), *(f"κ{i}" for i in range(extra[n]))]
             for n in {*cx.space.degrees(), *extra}}

    def pad(rows, src, tgt):
        width = cx.dim(src) + extra[src]
        return [row + [zero] * extra[src] for row in rows] + \
            [[zero] * width for _ in range(extra[tgt])]

    (x,) = raw.algebra.generators
    complex = CochainComplex(GradedVectorSpace(raw.field, basis),
                             {n: pad(matrix(cx, n), n, n + 1) for n in cx.cols})
    actions = {g: {n: pad(dense_rows(cols, cx.dim(n + x.degree), raw.field), n, n + x.degree)
                   for n, cols in maps.items()}
               for g, maps in raw.actions.items()}
    return DGModulePresentation.raw(raw.algebra, complex, actions)
