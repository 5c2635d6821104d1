"""Tensor over a monoid, restriction compatibility, syzygy resolutions."""

from fractions import Fraction
from itertools import product

import pytest

from c2_graded import c2_group_algebra
from koszulcat.category import CategoryPresentation, DayTensor
from koszulcat.errors import KoszulcatError, StabilityError, StructuralError, WindowError
from koszulcat.field import QQ, Field
from koszulcat.hochschild import build_enveloping
from koszulcat.matrix import Matrix, Subspace, place, quotient
from koszulcat.monoid import (
    Module,
    degree_zero_carrier,
    generated_submodule,
    identity_monoid,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
    validate_module,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import (
    c2_convolution_category,
    c2_regular_representation,
    dual_numbers,
)
from koszulcat.tensor import (
    OuterStructure,
    build_syzygy_resolution,
    module_over_identity,
    tensor_over_monoid,
    unit_law_maps,
)

CAT = CategoryPresentation.trivial(QQ)
U = CAT.unit
F101 = Field(101)


def cyclic_quotient(a, gens):
    return quotient_module(regular_bimodule(a), generated_submodule(a, gens)).module


def test_tensor_with_self_recovers_monoid():
    a = dual_numbers(QQ)
    reg = regular_bimodule(a)
    coeq = tensor_over_monoid(reg, reg)
    assert coeq.dim(U, 0) == 2
    unit_law_maps(coeq, "left")
    unit_law_maps(coeq, "right")


def test_tensor_unit_laws_on_quotient_module():
    a = dual_numbers(QQ)
    reg = regular_bimodule(a)
    n = cyclic_quotient(a, [a.basis_element("xbar")])
    coeq = tensor_over_monoid(reg, n)
    assert coeq.dim(U, 0) == n.carrier.dim(U, 0) == 1
    unit_law_maps(coeq, "left")


def _twist_dual_numbers(field):
    """The algebra automorphism xbar -> 2 xbar of the dual numbers, on (one, xbar)."""
    return Matrix.from_entries(field, 2, 2, {(0, 0): field.one(), (1, 1): field.from_int(2)})


def test_unit_law_rejects_an_action_that_does_not_kill_the_relations():
    # A with the right action twisted by the automorphism: A (x)_A A is formed
    # with m.phi(a), so the multiplication of A does not descend to it
    a = dual_numbers(QQ)
    twisted = {key: mat * Matrix.identity(QQ, 2).kron(_twist_dual_numbers(QQ))
               for key, mat in a.pairing.items()}
    m = Module(a, a.carrier, None, twisted, name="A-twisted")
    coeq = tensor_over_monoid(m, regular_bimodule(a))
    with pytest.raises(StabilityError, match="action map does not kill the relations"):
        unit_law_maps(coeq, "left")


@pytest.mark.parametrize("side", ["left", "right"])
def test_outer_action_that_breaks_the_relations_is_a_stability_failure(side):
    # the scalars acting on one factor of A (x)_A A through a map that is not A-linear
    a = dual_numbers(QQ)
    reg = regular_bimodule(a)
    outer = OuterStructure(scalar_monoid(CAT), {(U, 0, U, 0): _twist_dual_numbers(QQ)})
    kwargs = {"m_outer": outer} if side == "left" else {"n_outer": outer}
    with pytest.raises(StabilityError,
                       match="outer %s action does not preserve the relations" % side):
        tensor_over_monoid(reg, reg, **kwargs)


@pytest.mark.parametrize("side", ["left", "right"])
def test_outer_multiplication_descends_to_the_multiplication(side):
    # A = Q[t1, t2] multiplying one factor of A (x)_A A from outside: through
    # the unit-law iso A (x)_A A -> A the induced action is A's multiplication
    a = polynomial_monoid(scalar_monoid(CAT), 2, 3)
    reg = regular_bimodule(a)
    outer = OuterStructure(a, dict(a.pairing))
    coeq = tensor_over_monoid(reg, reg, **{("m_outer" if side == "left" else "n_outer"): outer})
    iso = unit_law_maps(coeq, "right")
    acts = coeq.outer_left if side == "left" else coeq.outer_right
    assert len(acts) == 10
    for (_, d1, _, d2), act in acts.items():
        ident = Matrix.identity(QQ, a.carrier.dim(U, d1 if side == "left" else d2))
        widened = ident.kron(iso[(U, d2)]) if side == "left" else iso[(U, d1)].kron(ident)
        assert iso[(U, d1 + d2)] * act == a.pairing_cell(U, d1, U, d2) * widened


def _hand_placed_outer(coeq, outer, on_left_factor):
    """Oracle for the outer actions: the raw action placed by hand, then descended.

    On the block M_{d1} (x) N_{d2} the raw action is outer (x) I_N with
    columns outer (x) tensor, so its column block k goes to column
    k dim(cell) + offset; or I_M (x) outer with columns tensor (x) outer, at
    column offset offset dim(outer).
    """
    field, gt = coeq.monoid.field, coeq.gt
    dcar = outer.monoid.carrier
    out = {}
    for d in range(gt.cap + 1):
        for d2 in range(dcar.cap + 1):
            dim_o = dcar.dim(U, d2)
            if d + d2 > gt.cap or not dim_o:
                continue
            src_dim = gt.dim(U, d)
            blocks = []
            for b in gt.layout[(U, d)]:
                if on_left_factor:
                    tb = gt.layout[(U, d + d2)][b.d1 + d2]
                    act = outer.cells[(U, d2, U, b.d1)].kron(
                        Matrix.identity(field, coeq.right_module.carrier.dim(U, b.d2)))
                    blocks += [(tb.offset, k * src_dim + b.offset,
                                act.select_columns(range(k * b.dim, (k + 1) * b.dim)))
                               for k in range(dim_o)]
                else:
                    tb = gt.layout[(U, d + d2)][b.d1]
                    blocks.append((tb.offset, b.offset * dim_o, Matrix.identity(
                        field, coeq.left_module.carrier.dim(U, b.d1)).kron(
                            outer.cells[(U, b.d2, U, d2)])))
            raw = place(field, gt.dim(U, d + d2), dim_o * src_dim, blocks)
            ident_o = Matrix.identity(field, dim_o)
            q_src = coeq.quots[(U, d)]
            basis, section = [ident_o.kron(m) if on_left_factor else m.kron(ident_o)
                              for m in (q_src.sub.basis, q_src.section)]
            # the former descent along the formed wide factors, kept inline
            image = coeq.quots[(U, d + d2)].projection * raw
            out[(U, d2, U, d) if on_left_factor else (U, d, U, d2)] = \
                image * section if (image * basis).is_zero() else None
    return out


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kinds", [("regular", "regular"), ("regular", "cyclic"),
                                   ("cyclic", "regular"), ("cyclic", "cyclic")],
                         ids="-".join)
def test_outer_actions_match_the_hand_placed_oracle(field, n, kinds):
    """A acting from outside on both factors of M (x)_A N, M and N each
    regular or cyclic: the actions placed through `map_factor` equal the
    hand-placed ones entry for entry."""
    a = polynomial_monoid(scalar_monoid(CategoryPresentation.trivial(field)), n, 3)
    reg = regular_bimodule(a)
    cyc = cyclic_quotient(a, [variable_element(a, 1)])
    m, nm = (reg if kind == "regular" else cyc for kind in kinds)
    m_outer = OuterStructure(a, dict(m.left))
    n_outer = OuterStructure(a, dict(nm.right))
    coeq = tensor_over_monoid(m, nm, m_outer=m_outer, n_outer=n_outer)
    assert coeq.outer_left == _hand_placed_outer(coeq, m_outer, True)
    assert coeq.outer_right == _hand_placed_outer(coeq, n_outer, False)
    assert coeq.outer_left and coeq.outer_right


@pytest.mark.parametrize("side", ["left", "right"])
def test_outer_cells_of_the_wrong_shape_are_refused(side):
    """The regular bimodule's cells used as the outer action on a cyclic module."""
    a = polynomial_monoid(scalar_monoid(CAT), 1, 3)
    reg = regular_bimodule(a)
    cyc = cyclic_quotient(a, [variable_element(a, 1)])
    if side == "left":
        kwargs = {"m_outer": OuterStructure(a, dict(reg.left))}
        m, nm = cyc, reg
    else:
        kwargs = {"n_outer": OuterStructure(a, dict(reg.right))}
        m, nm = reg, cyc
    with pytest.raises(KoszulcatError):
        tensor_over_monoid(m, nm, **kwargs)


def test_polynomial_cyclic_quotient_tensor():
    a = polynomial_monoid(scalar_monoid(CAT), 1, 4)
    reg = regular_bimodule(a)
    n = cyclic_quotient(a, [variable_element(a, 1)])
    coeq = tensor_over_monoid(reg, n)
    assert [coeq.dim(U, d) for d in range(5)] == [1, 0, 0, 0, 0]


def test_tensor_over_identity_is_plain_tensor():
    cat = c2_convolution_category(QQ)
    ident = identity_monoid(cat)
    f_car = degree_zero_carrier(c2_regular_representation(cat), "reg")
    m = module_over_identity(f_car, ident)
    assert validate_module(m).ok
    coeq = tensor_over_monoid(m, m)
    # relations degenerate: dims match the Day convolution of the carriers
    from koszulcat.gtensor import GradedTensor

    gt = GradedTensor(f_car, f_car)
    for x in cat.objects:
        assert coeq.dim(x, 0) == gt.dim(x, 0)


def test_tensor_monoid_mismatch_rejected():
    a = dual_numbers(QQ)
    b = polynomial_monoid(scalar_monoid(CAT), 1, 2)
    with pytest.raises(StructuralError):
        tensor_over_monoid(regular_bimodule(a), regular_bimodule(b))


def test_tensor_oracle_equivalence_dual_numbers():
    # independent oracle: span the relation vectors by hand and row-reduce
    a = dual_numbers(QQ)
    reg = regular_bimodule(a)
    n = cyclic_quotient(a, [a.basis_element("xbar")])
    coeq = tensor_over_monoid(reg, n)
    dim_m, dim_n = 2, 1
    rels = []
    for mi in range(dim_m):
        for aj in range(dim_m):
            ma = reg.right_cell(U, 0, U, 0).column(mi * 2 + aj)
            for nk in range(dim_n):
                an = n.left_cell(U, 0, U, 0).column(aj * 1 + nk)
                vec = [Fraction(0)] * (dim_m * dim_n)
                for r, v in enumerate(ma):
                    vec[r * dim_n + nk] += v
                for r, v in enumerate(an):
                    vec[mi * dim_n + r] -= v
                rels.append(vec)
    rank = _naive_rank(rels, dim_m * dim_n)
    assert coeq.dim(U, 0) == dim_m * dim_n - rank


def _naive_rank(rows, ncols):
    work = [list(map(Fraction, r)) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def test_restriction_compatibility_dual_numbers():
    # D = E = Q acting by scalars on both sides: A (x)_A A is A, and the
    # scalar 1 acts on it as the identity from either side
    a = dual_numbers(QQ)
    q = scalar_monoid(CAT)
    reg = regular_bimodule(a)
    scalar_left = OuterStructure(q, {(U, 0, U, 0): Matrix.identity(QQ, 2)})
    scalar_right = OuterStructure(q, {(U, 0, U, 0): Matrix.identity(QQ, 2)})
    coeq = tensor_over_monoid(reg, reg, m_outer=scalar_left, n_outer=scalar_right)
    assert coeq.dims() == {(U, 0): 2}
    assert coeq.outer_left == coeq.outer_right == {(U, 0, U, 0): Matrix.identity(QQ, 2)}


def test_three_monoid_associativity_cross_check():
    # (M (x)_A N) (x)_D Q against M (x)_A (N (x)_D Q) on dimension tables
    a = dual_numbers(QQ)
    d_mon = polynomial_monoid(scalar_monoid(CAT), 1, 2)
    reg_a = regular_bimodule(a)
    reg_d = regular_bimodule(d_mon)

    # N = A (x) D as an (A, D)-bimodule, built cellwise
    dims = {(U, k): 2 * d_mon.carrier.dim(U, k) for k in range(3)}
    actions = {((U, U, 0), k): Matrix.identity(QQ, dims[(U, k)]) for k in range(3)}
    from koszulcat.monoid import GradedCarrier

    carrier = GradedCarrier(CAT, 2, True, dims, actions)
    left = {}
    right = {}
    for d1 in range(3):
        for d2 in range(3):
            if d1 + d2 > 2:
                continue
            # left action of A on the A-part
            amat = a.pairing_cell(U, 0, U, 0)
            dn = d_mon.carrier.dim(U, d2)
            if d1 == 0:
                swap_in = Matrix.zeros(QQ, 2 * 2 * dn, 2 * 2 * dn)
                for i in range(2):
                    for j in range(2):
                        for k in range(dn):
                            swap_in.rows[(i * 2 + j) * dn + k][i * (2 * dn) + j * dn + k] \
                                = QQ.one()
                big = amat.kron(Matrix.identity(QQ, dn)) * swap_in
                left[(U, 0, U, d2)] = big
            # right action of D on the D-part
            dmat = d_mon.pairing_cell(U, d2, U, d1)
            right[(U, d2, U, d1)] = Matrix.identity(QQ, 2).kron(dmat)
    n_mod = Module(a, carrier, left, None, name="A(x)D")
    n_right = OuterStructure(d_mon, right)

    t1 = tensor_over_monoid(reg_a, n_mod, n_outer=n_right)
    # side one: (M (x)_A N) (x)_D D == dims of M (x)_A N
    inner_dims = t1.dims()
    # build the (M (x)_A N) as a right D-module and tensor with D
    from koszulcat.monoid import GradedCarrier as GC

    car2 = GC(CAT, 2, True, {c: q.dim for c, q in t1.quots.items()},
              {((U, U, 0), k): Matrix.identity(QQ, t1.dim(U, k)) for k in range(3)})
    m2 = Module(d_mon, car2, None, t1.outer_right, name="(MxN)")
    t_left = tensor_over_monoid(m2, regular_bimodule(d_mon))
    # side two: N (x)_D D == N, then M (x)_A N
    n_as_right_d = Module(d_mon, carrier, None, right, name="N-right-D")
    t_nd = tensor_over_monoid(n_as_right_d, regular_bimodule(d_mon))
    assert {c: q.dim for c, q in t_nd.quots.items()} == dict(carrier.dims)
    assert t_left.dims() == inner_dims


def _composite_relations(a, m, n, gt, x, d):
    """The relation columns of one tensor cell, spanned through every composite arrow.

    For each intermediate object w, basis arrow hp: y<>y2 -> w and basis
    arrow h: w<>z -> x, the relation [h (hp<>z); m.a, n] - [h (hp<>z); m, a.n]
    is read through the pure-tensor maps of the two Day blocks.  This spans
    the same relations as `tensor._delta_relations`, which uses the basis of
    hom(y<>y2<>z, x) alone.
    """
    cat, field = a.cat, a.field
    blocks, ncols = [], 0
    cell = gt.layout[(x, d)]
    for dm in range(d + 1):
        for da in range(d + 1 - dm):
            dn = d - dm - da
            for y in cat.objects:
                for y2 in cat.objects:
                    for z in cat.objects:
                        dim_m, dim_n = m.carrier.dim(y, dm), n.carrier.dim(z, dn)
                        if not (dim_m and a.carrier.dim(y2, da) and dim_n):
                            continue
                        yy2, y2z = cat.dobj(y, y2), cat.dobj(y2, z)
                        act1 = m.right_cell(y, dm, y2, da).kron(Matrix.identity(field, dim_n))
                        act2 = Matrix.identity(field, dim_m).kron(n.left_cell(y2, da, z, dn))
                        for w in cat.objects:
                            for hp in range(cat.hom_dim(yy2, w)):
                                for h in range(cat.hom_dim(cat.dobj(w, z), x)):
                                    hh = cat.compose(cat.basis_mor(cat.dobj(w, z), x, h),
                                                     cat.diamond(cat.basis_mor(yy2, w, hp),
                                                                 cat.identity_mor(z)))
                                    if not hh.coeffs:
                                        continue
                                    blocks.append((cell[dm + da].offset, ncols, gt.day[(
                                        dm + da, dn)].pure_map(x, yy2, z, hh) * act1))
                                    blocks.append((cell[dm].offset, ncols, -(gt.day[(
                                        dm, da + dn)].pure_map(x, y, y2z, hh) * act2)))
                                    ncols += act1.ncols
    return place(field, gt.dim(x, d), ncols, blocks)


def _c2_tensor_cases(field):
    """(M, N) pairs over the C2 Day unit, where every Day quotient is proper."""
    cat = c2_convolution_category(field)
    ident = identity_monoid(cat)
    cases = []
    for nvars in (1, 2):
        a = polynomial_monoid(ident, nvars, 3)
        reg, cyc = regular_bimodule(a), cyclic_quotient(a, [variable_element(a, 1)])
        cases += [(reg, reg), (reg, cyc), (cyc, cyc)]
    m = module_over_identity(degree_zero_carrier(c2_regular_representation(cat), "reg"), ident)
    return cases + [(m, m)]


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "F101"])
def test_relations_from_the_hom_basis_match_the_composite_route(field):
    for m, n in _c2_tensor_cases(field):
        coeq = tensor_over_monoid(m, n)
        for (x, d), q in sorted(coeq.quots.items()):
            old = quotient(coeq.gt.dim(x, d), Subspace.from_matrix_columns(
                _composite_relations(m.monoid, m, n, coeq.gt, x, d)))
            assert (q.dim, q.projection, q.section, q.sub.basis, list(q.sub.pivots)) == \
                (old.dim, old.projection, old.section, old.sub.basis, list(old.sub.pivots))


def test_relations_use_no_composite_or_pure_map(monkeypatch):
    # on prebuilt Day tensors (a warm memo), the relations compose no arrow and
    # read no pure-tensor map; the composite route does both
    m, n = _c2_tensor_cases(F101)[4]
    tensor_over_monoid(m, n)
    calls = []
    for owner, name in ((DayTensor, "pure_map"), (CategoryPresentation, "compose"),
                        (CategoryPresentation, "diamond")):
        def counted(self, *args, _name=name, _orig=getattr(owner, name)):
            calls.append(_name)
            return _orig(self, *args)
        monkeypatch.setattr(owner, name, counted)
    coeq = tensor_over_monoid(m, n)
    assert calls == []
    _composite_relations(m.monoid, m, n, coeq.gt, "e", 2)
    assert {"pure_map", "compose", "diamond"} <= set(calls)


def _self_tensor_dims(obj, law, table):
    """dim (A (x)_A A)(x) per object x of a discrete category, from plain data.

    obj maps each basis element to its object, law is the object product and
    table[(u, v)] the basis element u v (structure constant 1).  The Day
    convolution at x sums A(y) (x) A(z) over y z = x, and every triple u, a, v
    with (y y2) z = x gives the relation [u a, v] - [u, a v].
    """
    dims = {}
    for x in sorted(set(law.values())):
        pairs = [(u, v) for u, v in product(obj, repeat=2) if law[obj[u], obj[v]] == x]
        rels = []
        for u, a, v in product(obj, repeat=3):
            if law[law[obj[u], obj[a]], obj[v]] == x:
                vec = [0] * len(pairs)
                vec[pairs.index((table[u, a], v))] += 1
                vec[pairs.index((u, table[a, v]))] -= 1
                rels.append(vec)
        dims[x] = len(pairs) - _naive_rank(rels, len(pairs))
    return dims


@pytest.mark.parametrize("sign", [1, -1])
def test_self_tensor_of_c2_group_algebra_is_the_algebra(sign):
    # A(g) = theta is not generated from A(e), so at x = e the relation
    # [theta theta, one] - [theta, theta one] exists only with a = theta at
    # y2 = g: without it the cell at e would have dimension 2
    obj = {"one": "e", "theta": "g"}
    law = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    table = {("one", "one"): "one", ("one", "theta"): "theta",
             ("theta", "one"): "theta", ("theta", "theta"): "one"}
    expected = _self_tensor_dims(obj, law, table)
    assert expected == {"e": 1, "g": 1}  # A (x)_A A = A
    reg = regular_bimodule(c2_group_algebra(QQ, sign))
    coeq = tensor_over_monoid(reg, reg)
    assert {x: coeq.dim(x, 0) for x in expected} == expected
    unit_law_maps(coeq, "left")
    unit_law_maps(coeq, "right")


# -- syzygy resolutions --------------------------------------------------------------


def test_syzygy_resolution_cyclic_module():
    e = build_enveloping(scalar_monoid(CAT), 1, 4)
    m = cyclic_quotient(e.a_n, [variable_element(e.a_n, 1)])
    res = build_syzygy_resolution(e, m)
    assert res.passed
    assert res.length == 2  # n + 1 terms above the module
    assert [res.complex.terms[1].dim(U, d) for d in range(5)] == [1, 1, 1, 1, 1]


def test_syzygy_resolution_of_the_monoid_itself():
    e = build_enveloping(scalar_monoid(CAT), 2, 3)
    res = build_syzygy_resolution(e, regular_bimodule(e.a_n))
    assert res.passed
    assert res.length == 3
    names = {c.name for c in res.report.certificates}
    assert "terms-induced-from-base" not in names and "length-bound" not in names


def test_syzygy_window_error():
    with pytest.raises(WindowError):
        build_enveloping(scalar_monoid(CAT), 1, 0)


def test_syzygy_differentials_are_module_maps():
    # d commutes with the left action of the polynomial monoid on the terms
    e = build_enveloping(scalar_monoid(CAT), 1, 3)
    m = cyclic_quotient(e.a_n, [variable_element(e.a_n, 1)])
    res = build_syzygy_resolution(e, m)
    t1 = variable_element(e.a_n, 1)
    from koszulcat.monoid import mult_operator

    op_a = mult_operator(e.a_n, t1, regular_bimodule(e.a_n), side="left")
    act = res.tensor.map_factor(op_a.cells, 1, "left")
    d1 = res.complex.diffs[1]
    op_m = mult_operator(e.a_n, t1, m, side="left")
    for (x, d), mat in act.items():
        if d + 1 > res.complex.cap:
            continue
        lhs = d1.block(x, d + 1, d + 1) * mat
        rhs = op_m.cells[(x, d)] * d1.block(x, d, d)
        assert lhs == rhs
