"""Variables act by copy moves: multiplication by sum c_i t_i needs no scan and no Kronecker product.

`monoid.mult_operator` and `monoid._ideal_columns` write the cells of a
linear form on the regular module of a polynomial monoid from the monomial
shift tables once the action cell passes the copy rule, and
`GradedTensor.map_factor` moves the Day quotient coordinates of the placed
copies when an operator cell is A (x) I_base.  The oracle is the route
every such matrix took before: `fix_slot` on the action cell, and the
Kronecker product descended through the Day quotients, both copied here.
Every cell must be equal entry for entry, over Q and F_101, on the scalar
and the C2 Day-unit bases, for variables, the differences u_i - v_i and a
seeded dense form, on both sides.  A pairing entry bumped off the copy rule
takes the fallback and still matches the oracle.
"""

import random
from types import SimpleNamespace

import pytest

import koszulcat.category as category
import koszulcat.monoid as monoid
from koszulcat.category import CategoryPresentation, DaySummand, copy_coordinates, day_tensor
from koszulcat.field import QQ, Field
from koszulcat.gtensor import GradedTensor
from koszulcat.hochschild import (
    build_enveloping,
    certify_tensor_idempotent,
    hochschild_cohomology,
    koszul_bimodule_resolution,
)
from koszulcat.matrix import Matrix, hstack, place
from koszulcat.monoid import (
    Element,
    Module,
    Monoid,
    _form_coefficients,
    _ideal_columns,
    generated_submodule,
    identity_monoid,
    mult_operator,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import c2_convolution_category, dual_numbers, s3_group_algebra
from koszulcat.tensor import syzygy_resolution
from test_homology_rank import linear_form

F101 = Field(101)
FIELDS = [pytest.param(F101, id="F101"), pytest.param(QQ, id="Q")]
KINDS = ["scalar", "c2unit"]
# bases of dimension 2 and 6, the second not commutative
ALL_KINDS = KINDS + ["dual", "s3"]
SIDES = ["left", "right"]


def _base(field, kind):
    if kind == "scalar":
        return scalar_monoid(CategoryPresentation.trivial(field))
    if kind == "dual":
        return dual_numbers(field)
    if kind == "s3":
        return s3_group_algebra(field)
    return identity_monoid(c2_convolution_category(field))


# -- the oracle: the routes before copy moves, copied ---------------------------


def oracle_fix_slot(cell, vec, dim, side):
    f = cell.field
    out = []
    for r in cell.rows:
        acc = {}
        for j, v in r.items():
            i, k = divmod(j, dim) if side == "left" else divmod(j, len(vec))[::-1]
            if vec[i]:
                s = f.add(acc.get(k, f.zero()), f.mul(v, vec[i]))
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        out.append(acc)
    return Matrix(f, cell.nrows, dim, out)


def oracle_mult_operator(a, elt, m, side):
    u, car = a.cat.unit, m.carrier
    cells = {}
    for (x, d) in car.cells():
        if d + elt.degree <= car.cap:
            cell = m.left_cell(u, elt.degree, x, d) if side == "left" \
                else m.right_cell(x, d, u, elt.degree)
            cells[(x, d)] = oracle_fix_slot(cell, elt.coords, car.dim(x, d), side)
    return cells


def oracle_ideal_columns(a, gens, x, d):
    field, car, u = a.field, a.carrier, a.cat.unit
    blocks = [Matrix.zeros(field, car.dim(x, d), 0)]
    for g in gens:
        width = car.dim(x, d - g.degree) if g.degree <= d else 0
        if width:
            blocks.append(oracle_fix_slot(a.pairing_cell(x, d - g.degree, u, g.degree),
                                          g.coords, width, "right"))
    return hstack(blocks)


def oracle_map_factor(gt, op_cells, shift, factor):
    fld = gt.field
    left = factor == "left"
    acts, out = {}, {}
    for d in range(gt.cap + 1 - shift):
        for x in gt.cat.objects:
            cell = []
            for b in gt.layout[(x, d)]:
                tb_d1 = b.d1 + shift if left else b.d1
                src_day = gt.day[(b.d1, b.d2)]
                tgt_day = gt.day[(tb_d1, d + shift - tb_d1)]
                amb = []
                for (y, z), s in src_day.layout[x].items():
                    ts = tgt_day.layout[x][(y, z)]
                    if s.size == 0 or ts.size == 0:
                        continue
                    key = (b.d1, b.d2, y, z)
                    if key not in acts:
                        op = op_cells.get((y, b.d1) if left else (z, b.d2))
                        acts[key] = op if op is None else \
                            op.kron(Matrix.identity(fld, s.dim_g)) if left \
                            else Matrix.identity(fld, s.dim_f).kron(op)
                    if acts[key] is not None:
                        amb.append(ts.block(acts[key], s.offset))
                amb = place(fld, tgt_day.quot[x].ambient, src_day.quot[x].ambient, amb)
                cell.append((gt.layout[(x, d + shift)][tb_d1].offset, b.offset,
                             tgt_day.quot[x].projection * amb * src_day.quot[x].section))
            out[(x, d)] = place(fld, gt.dim(x, d + shift), gt.dim(x, d), cell)
    return out


# -- the elements ----------------------------------------------------------------


def _dense_form(a, seed):
    """A linear form with every coefficient nonzero, drawn from seed."""
    rng = random.Random(seed)
    ts = [variable_element(a, i + 1) for i in range(a.poly_info.nvars)]
    return linear_form(a.field, ts, [rng.choice([-7, -3, -2, -1, 1, 2, 5, 9])
                                     for _ in ts])


def _elements(a):
    """Each variable and a seeded dense form of the polynomial monoid a."""
    n = a.poly_info.nvars
    return [variable_element(a, i + 1) for i in range(n)] + [_dense_form(a, 7 * n + a.cap)]


def _differences(base, n, cap):
    """A_2n and its differences u_i - v_i, the Koszul faces of the bimodule resolution."""
    c = polynomial_monoid(base, 2 * n, cap)
    return c, [linear_form(c.field, [variable_element(c, i), variable_element(c, n + i)],
                           [1, -1]) for i in range(1, n + 1)]


def _cyclic(a, seed):
    return quotient_module(regular_bimodule(a), generated_submodule(a, [_dense_form(a, seed)])).module


# -- operators and ideal columns --------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n, cap", [(1, 3), (1, 5), (2, 3), (2, 4), (3, 3), (3, 5)])
def test_operators_and_ideal_columns_match_the_oracle(field, kind, n, cap):
    a = polynomial_monoid(_base(field, kind), n, cap)
    reg = regular_bimodule(a)
    elements = _elements(a)
    for elt in elements:
        assert _form_coefficients(a, elt) is not None
        for side in SIDES:
            assert mult_operator(a, elt, reg, side).cells == oracle_mult_operator(a, elt, reg, side)
    forms = [_form_coefficients(a, g) for g in elements]
    for (x, d) in a.carrier.cells():
        assert _ideal_columns(a, elements, forms, x, d)[0] == \
            oracle_ideal_columns(a, elements, x, d)
    # every cell the operators read passed the copy rule, on both sides
    assert len(a.copy_memo) == 2 * len(a.cat.objects) * cap
    assert all(verdict for _, verdict in a.copy_memo.values())


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, cap", [(1, 3), (1, 5), (2, 3), (2, 4)])
def test_differences_match_the_oracle(field, kind, n, cap):
    c, alphas = _differences(_base(field, kind), n, cap)
    reg = regular_bimodule(c)
    for alpha in alphas:
        for side in SIDES:
            assert mult_operator(c, alpha, reg, side).cells == oracle_mult_operator(c, alpha, reg,
                                                                                    side)
    forms = [_form_coefficients(c, g) for g in alphas]
    assert all(coeffs is not None for coeffs in forms)
    for (x, d) in c.carrier.cells():
        assert _ideal_columns(c, alphas, forms, x, d)[0] == oracle_ideal_columns(c, alphas, x, d)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_other_elements_and_modules_take_fix_slot(field, kind):
    """A degree-two element and a cyclic module are not copy moves."""
    a = polynomial_monoid(_base(field, kind), 2, 4)
    t1, t2 = (variable_element(a, i) for i in (1, 2))
    square = a.multiply(t1, t2)
    assert _form_coefficients(a, square) is None
    cyclic = _cyclic(a, 3)
    memo = dict(a.copy_memo)
    for side in SIDES:
        assert mult_operator(a, square, regular_bimodule(a), side).cells == \
            oracle_mult_operator(a, square, regular_bimodule(a), side)
    assert mult_operator(a, t2, cyclic).cells == oracle_mult_operator(a, t2, cyclic, "left")
    assert a.copy_memo == memo  # the cyclic cells fail on their shape, before the memo


@pytest.mark.parametrize("field", FIELDS)
def test_an_element_off_the_units_slot_takes_fix_slot(field):
    """Over the dual numbers, t1 + t2 xbar has a coordinate off the unit's slot:
    it is no linear form in the variables, and it acts as fix_slot reads it."""
    a = polynomial_monoid(_base(field, "dual"), 2, 3)
    t1, t2 = (variable_element(a, i) for i in (1, 2))
    xbar = a.basis_element("xbar")
    elt = Element(t1.obj, 1, tuple(map(field.add, t1.coords, a.multiply(t2, xbar).coords)))
    assert _form_coefficients(a, elt) is None
    for side in SIDES:
        assert mult_operator(a, elt, regular_bimodule(a), side).cells == \
            oracle_mult_operator(a, elt, regular_bimodule(a), side)


def _bumped(a, key, row, col, drop=False):
    """a with one entry of one pairing cell set to 2, or dropped, on the same carrier."""
    cell = a.pairing[key]
    rows = [dict(r) for r in cell.rows]
    if drop:
        del rows[row][col]
    else:
        rows[row][col] = a.field.from_int(2)
    pairing = dict(a.pairing)
    pairing[key] = Matrix(a.field, cell.nrows, cell.ncols, rows)
    return Monoid(a.carrier, pairing, a.unit, name=a.name, poly_info=a.poly_info)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("drop", [False, True], ids=["bumped", "dropped"])
def test_a_bumped_pairing_entry_takes_the_fallback(field, kind, side, drop):
    """An entry the copy rule reads (in the unit's slot) set to 2, or dropped."""
    a = polynomial_monoid(_base(field, kind), 2, 3)
    u, x, d = a.cat.unit, a.cat.objects[-1], 1
    key = (u, 1, x, d) if side == "left" else (x, d, u, 1)
    du, width = len(a.unit), a.carrier.dim(x, d)
    unit_slot = next(j for j, v in enumerate(a.unit) if v)
    row, col = next((r, j) for r, entries in enumerate(a.pairing[key].rows) for j in entries
                    if (j // width if side == "left" else j) % du == unit_slot)
    bad = _bumped(a, key, row, col, drop)
    reg = regular_bimodule(bad)
    for elt in _elements(a):
        assert mult_operator(bad, elt, reg, side).cells == oracle_mult_operator(bad, elt, reg, side)
    dense = _elements(a)[-1]  # every coefficient nonzero: the bumped column is read
    assert mult_operator(bad, dense, reg, side).cells != oracle_mult_operator(
        a, dense, regular_bimodule(a), side)
    assert bad.copy_memo[(side, x, d)] == (bad.pairing[key], False)
    gens = _elements(a)
    forms = [_form_coefficients(bad, g) for g in gens]
    for cell in bad.carrier.cells():
        assert _ideal_columns(bad, gens, forms, *cell)[0] == oracle_ideal_columns(bad, gens, *cell)


def test_a_verdict_is_trusted_only_for_its_cell_object():
    """A module holding a different cell object at a checked key is checked again."""
    a = polynomial_monoid(_base(F101, "scalar"), 2, 3)
    u = a.cat.unit
    t1 = variable_element(a, 1)
    mult_operator(a, t1, regular_bimodule(a))
    key = (u, 1, u, 1)
    row, col = next((r, j) for r, entries in enumerate(a.pairing[key].rows) for j in entries)
    left = dict(a.pairing)
    left[key] = _bumped(a, key, row, col).pairing[key]
    m = Module(a, a.carrier, left, dict(a.pairing), name="bumped")
    assert mult_operator(a, t1, m).cells == oracle_mult_operator(a, t1, m, "left")
    assert a.copy_memo[("left", u, 1)] == (left[key], False)
    assert mult_operator(a, t1, regular_bimodule(a)).cells == \
        oracle_mult_operator(a, t1, regular_bimodule(a), "left")
    assert a.copy_memo[("left", u, 1)] == (a.pairing[key], True)


# -- map_factor -------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", KINDS + ["dual"])
@pytest.mark.parametrize("n, cap", [(1, 3), (2, 4), (3, 3)])
def test_map_factor_matches_the_oracle(field, kind, n, cap):
    """A_n (x) M and M (x) A_n with M cyclic, and A_n (x) A_n, on the factors of copies."""
    a = polynomial_monoid(_base(field, kind), n, cap)
    cyclic = _cyclic(a, n)
    reg = regular_bimodule(a)
    tensors = [(GradedTensor(a.carrier, cyclic.carrier), ["left"]),
               (GradedTensor(cyclic.carrier, a.carrier), ["right"]),
               (GradedTensor(a.carrier, a.carrier, cap=min(cap, 3)), SIDES)]
    for elt in _elements(a):
        ops = mult_operator(a, elt, reg).cells
        for gt, factors in tensors:
            for factor in factors:
                assert gt._copy_moves(ops, 1, factor == "left")
                assert gt.map_factor(ops, 1, factor) == oracle_map_factor(gt, ops, 1, factor)


@pytest.mark.parametrize("kind", KINDS)
def test_map_factor_cells_that_are_not_copies_take_the_kronecker_route(kind):
    """A cyclic factor keeps today's route.  An operator entry bumped at one
    object is still A (x) I on a one-object base, with the bumped A; on C2 the
    two objects then disagree on A, and that degree keeps today's route."""
    a = polynomial_monoid(_base(F101, kind), 2, 3)
    cyclic = _cyclic(a, 5)
    gt = GradedTensor(a.carrier, cyclic.carrier)
    t1 = variable_element(a, 1)
    op_m = mult_operator(a, t1, cyclic).cells
    assert not gt._copy_moves(op_m, 1, False)
    assert gt.map_factor(op_m, 1, "right") == oracle_map_factor(gt, op_m, 1, "right")
    ops = dict(mult_operator(a, t1, regular_bimodule(a)).cells)
    x = a.cat.objects[-1]
    rows = [dict(r) for r in ops[(x, 1)].rows]
    row = next(r for r, entries in enumerate(rows) if entries)
    rows[row][next(iter(rows[row]))] = 2
    ops[(x, 1)] = Matrix(F101, ops[(x, 1)].nrows, ops[(x, 1)].ncols, rows)
    moved = {d1 for d1, _ in gt._copy_moves(ops, 1, True)}  # factor degrees by copy moves
    assert 0 in moved and 2 in moved
    assert (1 in moved) == (len(a.cat.objects) == 1)
    assert gt.map_factor(ops, 1, "left") == oracle_map_factor(gt, ops, 1, "left")


@pytest.mark.parametrize("moved", [True, False], ids=["moved", "dropped"])
def test_an_operator_block_off_its_form_takes_the_kronecker_route(moved):
    """Over the dual numbers an operator block is 2 x 2.  An entry moved off its
    diagonal keeps the count of A (x) I_2 and its values, but not its form; a
    dropped one keeps the form of every other entry, but not the count."""
    a = polynomial_monoid(_base(F101, "dual"), 2, 3)
    gt = GradedTensor(a.carrier, _cyclic(a, 4).carrier)
    ops = dict(mult_operator(a, variable_element(a, 1), regular_bimodule(a)).cells)
    u = a.cat.unit
    rows = [dict(r) for r in ops[(u, 1)].rows]
    row = next(r for r, entries in enumerate(rows) if entries and r % 2 == 0)
    col = next(iter(rows[row]))
    value = rows[row].pop(col)
    if moved:
        rows[row][col + 1] = value
    ops[(u, 1)] = Matrix(F101, ops[(u, 1)].nrows, ops[(u, 1)].ncols, rows)
    moved = {d1 for d1, _ in gt._copy_moves(ops, 1, True)}
    assert 0 in moved and 1 not in moved
    assert gt.map_factor(ops, 1, "left") == oracle_map_factor(gt, ops, 1, "left")


# -- the work saved ---------------------------------------------------------------


def _count(monkeypatch, cls, name, calls):
    real = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("kind", KINDS)
def test_map_factor_by_copy_moves_forms_no_kron_and_no_product(monkeypatch, kind):
    a = polynomial_monoid(_base(F101, kind), 2, 4)
    gt = GradedTensor(a.carrier, _cyclic(a, 2).carrier)
    ops = mult_operator(a, _dense_form(a, 1), regular_bimodule(a)).cells
    expected = oracle_map_factor(gt, ops, 1, "left")
    calls = []
    _count(monkeypatch, Matrix, "kron", calls)
    _count(monkeypatch, Matrix, "__mul__", calls)
    assert gt.map_factor(ops, 1, "left") == expected
    assert calls == []


def _hochschild_job(base, n, cap, form):
    """The calls of one benchmark Hochschild job: enveloping data, the bimodule
    resolution, HH^0..HH^(n+1) of A_n and the syzygies of a cyclic module."""
    env = build_enveloping(base, n, cap, idem_cert=certify_tensor_idempotent(base))
    assert koszul_bimodule_resolution(env).passed
    coeffs = regular_bimodule(env.a_n)
    for p in range(n + 2):
        assert hochschild_cohomology(env, coeffs, p).all_passed
    a_n = env.a_n
    cyclic = quotient_module(regular_bimodule(a_n), generated_submodule(
        a_n, [linear_form(a_n.field, [variable_element(a_n, i + 1) for i in range(n)],
                          form)])).module
    assert syzygy_resolution(a_n, cyclic).passed
    return env, cyclic


@pytest.mark.parametrize("kind", KINDS)
def test_a_hochschild_job_scans_only_the_cyclic_module_and_the_unit_laws(monkeypatch, kind):
    """fix_slot reads only the cyclic module's action cells and the base's pairing
    (the unit laws), and every copy-rule cell is checked once."""
    base = _base(F101, kind)
    scanned, checked = [], []
    real_fix, real_rule = monoid.fix_slot, monoid._copy_rule
    monkeypatch.setattr(monoid, "fix_slot",
                        lambda cell, *args: scanned.append(cell) or real_fix(cell, *args))
    monkeypatch.setattr(monoid, "_copy_rule", lambda a, cell, x, d, side: checked.append(
        (id(cell), side)) or real_rule(a, cell, x, d, side))
    env, cyclic = _hochschild_job(base, 2, 4, [3, -7])
    allowed = list(cyclic.left.values()) + list(base.pairing.values())
    assert scanned and all(any(cell is c for c in allowed) for cell in scanned)
    assert checked and len(set(checked)) == len(checked)
    # A_n on both sides, A_2n on both sides: every cell of positive target degree
    assert len(checked) == 4 * len(base.cat.objects) * env.cap
    assert all(verdict for m in (env.a_n, env.c) for _, verdict in m.copy_memo.values())


# -- copy coordinates -------------------------------------------------------------


def oracle_copy_ranks(amb, idx):
    order = sorted((ac[i], c, j) for c, ac in enumerate(amb) for j, i in enumerate(idx))
    ranks = [[0] * len(idx) for _ in amb]
    for r, (_, c, j) in enumerate(order):
        ranks[c][j] = r
    return ranks


def oracle_copy_coordinates(base, x, kf, kg):
    """(amb, coords, pivot ranks, sorted pivots): the sorted ranks of every position."""
    copies = [(v, w) for v in range(kf) for w in range(kg)]
    amb = [[] for _ in copies]
    for s in base.layout[x].values():
        off = kf * kg * s.offset
        for h in range(s.hom_dim):
            for a in range(s.dim_f):
                for b in range(s.dim_g):
                    for c, (v, w) in enumerate(copies):
                        amb[c].append(off + ((h * kf + v) * s.dim_f + a) * kg * s.dim_g
                                      + w * s.dim_g + b)
    comp = [i for i, r in enumerate(base.quot[x].section.rows) if r]
    pivots = base.quot[x].sub.pivots
    return (amb, oracle_copy_ranks(amb, comp), oracle_copy_ranks(amb, pivots),
            sorted(ac[p] for ac in amb for p in pivots))


def _random_layout(rng):
    """A stand-in Day tensor at one object: random summands and a random pivot set."""
    layout, off = {}, 0
    for k in range(rng.randint(1, 4)):
        s = DaySummand(rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3), off)
        layout[("y%d" % k, "z")] = s
        off += s.size
    pivots = sorted(rng.sample(range(off), rng.randint(0, off)))
    section = SimpleNamespace(rows=[{} if i in pivots else {0: 1} for i in range(off)])
    quot = SimpleNamespace(ambient=off, dim=off - len(pivots), section=section,
                           sub=SimpleNamespace(pivots=pivots))
    return SimpleNamespace(layout={"x": layout}, quot={"x": quot})


@pytest.mark.parametrize("seed", range(40))
def test_copy_coordinates_match_the_sorted_ranks(monkeypatch, seed):
    rng = random.Random(seed)
    base = _random_layout(rng)
    monkeypatch.setattr(category, "sorted", None, raising=False)  # any sort would raise
    for kf in range(1, 5):
        for kg in range(1, 5):
            amb, coords, pivot_ranks, pivots = oracle_copy_coordinates(base, "x", kf, kg)
            assert [list(c) for c in copy_coordinates(base, "x", kf, kg)] == coords
            terms = category._copy_terms(base, "x", kf, kg)
            got = [[list(c) for c in category._per_copy(t, kf, kg)] for t in terms]
            assert got == [amb, coords, pivot_ranks]
    assert sorted(pivots) == pivots


@pytest.mark.parametrize("kind", KINDS)
def test_day_tensors_store_where_their_copies_sit(kind):
    base = _base(F101, kind)
    a = polynomial_monoid(base, 2, 3)
    cat, f = a.cat, a.carrier.copies[0]
    one = day_tensor(cat, f, f)
    for x in cat.objects:
        assert [list(c) for c in one.coords[x]] == [list(range(one.quot[x].dim))]
    for kf, kg in [(2, 1), (1, 3), (3, 2)]:
        placed = category.day_tensor_copies(cat, f, f, kf, kg)
        for x in cat.objects:
            assert placed.coords[x] == copy_coordinates(one, x, kf, kg)
