"""Day tensors are built once per category and representation data."""

import hashlib

from koszulcat import category
from koszulcat.category import Representation, day_tensor
from koszulcat.field import Field
from koszulcat.hochschild import build_enveloping, koszul_bimodule_resolution
from koszulcat.matrix import Matrix
from koszulcat.monoid import generated_submodule, identity_monoid, quotient_module, regular_bimodule
from koszulcat.poly import polynomial_monoid, variable_element
from koszulcat.sample import c2_convolution_category, c2_regular_representation
from koszulcat.tensor import build_syzygy_resolution

F101 = Field(101)


def _c2_base():
    """The Day unit of the C2 convolution category over F_101."""
    return identity_monoid(c2_convolution_category(F101))


def _count_quotients(monkeypatch):
    calls = []
    real = category.quotient

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(category, "quotient", counted)
    return calls


def _edited(rep, key, row, col, value):
    """rep with the entry (row, col) of one action matrix set to value."""
    actions = dict(rep.actions)
    m = actions[key]
    rows = [dict(r) for r in m.rows]
    rows[row][col] = value
    actions[key] = Matrix(m.field, m.nrows, m.ncols, rows)
    return Representation(rep.cat, rep.dims, actions, name=rep.name)


def _padded(rep, obj):
    """rep with one zero coordinate appended at obj: the same entries, one more dim."""
    dims = dict(rep.dims)
    dims[obj] += 1
    actions = {}
    for (x, y, i), m in rep.actions.items():
        rows = [dict(r) for r in m.rows] + ([{}] if y == obj else [])
        actions[(x, y, i)] = Matrix(m.field, dims[y], dims[x], rows)
    return Representation(rep.cat, dims, actions, name=rep.name)


def _memo_digests(cat):
    """SHA-256 of every memo entry's projections, sections and induced actions."""
    out = {}
    for key, dt in cat.day_memo.items():
        data = [(x, q.projection.rows, q.section.rows) for x, q in sorted(dt.quot.items())]
        data.append(sorted((k, m.rows) for k, m in dt.rep.actions.items()))
        out[key] = hashlib.sha256(repr(data).encode()).hexdigest()
    return out


def test_equal_slices_share_one_day_tensor(monkeypatch):
    a = polynomial_monoid(_c2_base(), 1, 3)
    cat = a.cat
    s1, s2 = a.carrier.slice_rep(1), a.carrier.slice_rep(2)
    assert s1 is not s2 and s1.name != s2.name
    assert s1.dims == s2.dims and s1.actions == s2.actions
    calls = _count_quotients(monkeypatch)
    dt = day_tensor(cat, s1, s1)
    assert len(calls) == len(cat.objects)  # one elimination per object
    assert day_tensor(cat, s2, s2) is dt
    assert day_tensor(cat, s1, s2) is dt
    assert len(calls) == len(cat.objects)
    assert dt.rep.name == "(F_1(x)F_1)"


def test_changed_entry_or_dim_misses_the_memo(monkeypatch):
    cat = c2_convolution_category(F101)
    reg = c2_regular_representation(cat)
    dt = day_tensor(cat, reg, reg)
    calls = _count_quotients(monkeypatch)
    edited = _edited(reg, ("e", "g", 0), 0, 1, F101.from_int(2))
    padded = _padded(reg, "g")
    assert day_tensor(cat, edited, reg) is not dt
    assert day_tensor(cat, reg, padded) is not dt
    assert len(calls) == 2 * len(cat.objects)
    assert day_tensor(cat, reg, padded).quot["e"].ambient == dt.quot["e"].ambient + 4
    assert len(cat.day_memo) == 3


def test_separate_categories_share_nothing():
    cats = [c2_convolution_category(F101) for _ in range(2)]
    dts = [day_tensor(cat, c2_regular_representation(cat), c2_regular_representation(cat))
           for cat in cats]
    assert dts[0] is not dts[1]
    assert dts[0].rep.dims == dts[1].rep.dims
    assert [list(cat.day_memo.values()) for cat in cats] == [[dts[0]], [dts[1]]]


def test_consumers_leave_memo_entries_unchanged():
    base = _c2_base()
    cat = base.cat

    def consume():
        env = build_enveloping(base, 2, 3)
        koszul_bimodule_resolution(env)
        a = env.a_n
        cyclic = quotient_module(regular_bimodule(a),
                                 generated_submodule(a, [variable_element(a, 1)])).module
        build_syzygy_resolution(env, cyclic)

    consume()
    before = _memo_digests(cat)
    assert before
    consume()  # every Day tensor of this run is a memo hit
    assert _memo_digests(cat) == before
