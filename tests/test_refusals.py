"""Input refusals of the library, one case each: the error class and the message.

Each case builds its inputs when it runs, from the scalar monoid Q on the
trivial backend, Q[t1, t2] at cap 2 over it, and the identity monoid of the
C2 convolution category (a finite backend).
"""

import pytest

from koszulcat.category import CategoryPresentation, day_tensor
from koszulcat.errors import IsoFailureError, PreconditionError, StructuralError, WindowError
from koszulcat.field import QQ
from koszulcat.hochschild import build_enveloping, hochschild_cohomology
from koszulcat.matrix import Matrix
from koszulcat.monoid import (
    Module,
    Monoid,
    degree_zero_carrier,
    identity_monoid,
    regular_bimodule,
    scalar_monoid,
)
from koszulcat.poly import base_merge, polynomial_monoid, rename_variables, variable_element
from koszulcat.sample import c2_convolution_category
from koszulcat.tensor import OuterStructure, syzygy_resolution, tensor_over_monoid


def q():
    return scalar_monoid(CategoryPresentation.trivial(QQ))


def poly(n=2, cap=2):
    return polynomial_monoid(q(), n, cap)


def left_only(a):
    return Module(a, a.carrier, dict(a.pairing), None)


def right_only(a):
    return Module(a, a.carrier, None, dict(a.pairing))


def doubled(a):
    """The regular bimodule of a monoid like a but with every pairing cell doubled.

    Its cell dims are a's, so only the pairing tells the two monoids apart.
    """
    two = a.field.from_int(2)
    other = Monoid(a.carrier, {key: cell.scale(two) for key, cell in a.pairing.items()}, a.unit,
                   name=a.name, poly_info=a.poly_info)
    return regular_bimodule(other)


def outer_on_a_finite_backend():
    ident = identity_monoid(c2_convolution_category(QQ))
    reg = regular_bimodule(ident)
    tensor_over_monoid(reg, reg, m_outer=OuterStructure(ident, dict(ident.pairing)))


def syzygy_of_a_cap_zero_module():
    a = poly()
    carrier = degree_zero_carrier(q().carrier.slice_rep(0))
    syzygy_resolution(a, Module(a, carrier, {}, None))


def base_merge_with_a_misshapen_witness():
    base = q()
    s = base.carrier.slice_rep(0)
    base_merge(day_tensor(base.cat, s, s), base, {base.cat.unit: Matrix.zeros(QQ, 2, 2)})


CASES = [
    ("hh-coefficients-elsewhere",
     lambda: hochschild_cohomology(build_enveloping(q(), 1, 2), regular_bimodule(poly()), 0),
     StructuralError, "coefficients are not a module over the polynomial monoid"),
    ("hh-coefficients-over-another-pairing",
     lambda: hochschild_cohomology(build_enveloping(q(), 1, 2),
                                   doubled(build_enveloping(q(), 1, 2).a_n), 1),
     StructuralError, "coefficients are not a module over the polynomial monoid"),
    ("tensor-different-monoids",
     lambda: tensor_over_monoid(regular_bimodule(q()), regular_bimodule(poly())),
     StructuralError, "modules live over different monoids"),
    ("tensor-over-another-pairing",
     lambda: tensor_over_monoid(regular_bimodule(poly()), doubled(poly())),
     StructuralError, "modules live over different monoids"),
    ("tensor-left-factor-without-right-action",
     lambda: tensor_over_monoid(left_only(q()), regular_bimodule(q())),
     StructuralError, "left factor must carry a right action"),
    ("tensor-right-factor-without-left-action",
     lambda: tensor_over_monoid(regular_bimodule(q()), right_only(q())),
     StructuralError, "right factor must carry a left action"),
    ("tensor-outer-on-finite-backend", outer_on_a_finite_backend,
     StructuralError, "outer bimodule structure is supported on the trivial backend"),
    ("syzygy-not-polynomial", lambda: syzygy_resolution(q(), regular_bimodule(q())),
     PreconditionError, "not a polynomial monoid"),
    ("syzygy-without-left-action", lambda: syzygy_resolution(poly(), right_only(poly())),
     StructuralError, "the module needs a left action"),
    ("syzygy-module-elsewhere",
     lambda: syzygy_resolution(poly(), regular_bimodule(poly(1, 2))),
     StructuralError, "module is not over the polynomial monoid"),
    ("syzygy-module-over-another-pairing",
     lambda: syzygy_resolution(poly(), doubled(poly())),
     StructuralError, "module is not over the polynomial monoid"),
    ("syzygy-cap-zero-module", syzygy_of_a_cap_zero_module,
     WindowError, "cap 0 cannot certify any differential action"),
    ("poly-base-not-degree-zero", lambda: polynomial_monoid(poly(), 1, 2),
     PreconditionError, "polynomial base must be concentrated in degree 0"),
    ("poly-negative-cap", lambda: polynomial_monoid(q(), 1, -1),
     PreconditionError, "cap must be nonnegative"),
    ("rename-not-polynomial", lambda: rename_variables(q(), ("u",)),
     PreconditionError, "not a polynomial monoid"),
    ("rename-wrong-name-count", lambda: rename_variables(poly(), ("u",)),
     StructuralError, "expected 2 variable names, got 1"),
    ("variable-not-polynomial", lambda: variable_element(q(), 1),
     PreconditionError, "not a polynomial monoid"),
    ("variable-cap-zero", lambda: variable_element(poly(1, 0), 1),
     PreconditionError, "cap too small to contain the variables"),
    ("base-merge-witness-shape", base_merge_with_a_misshapen_witness,
     IsoFailureError, "witness at 1 has the wrong shape"),
    ("scalar-monoid-finite-backend", lambda: scalar_monoid(c2_convolution_category(QQ)),
     PreconditionError, "scalar_monoid needs the trivial backend"),
    ("module-without-actions", lambda: Module(q(), q().carrier, None, None),
     StructuralError, "module M has neither a left nor a right action"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_refusal_names_its_reason(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
