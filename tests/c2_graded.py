"""C2-graded test data shared by the test modules.

A discrete category with objects e and g whose object product is the group
law of C2, and the group algebra on it.  A(g) = theta is not generated from
A(e), so these are the inputs on which a computation that treats the unit
object specially, or reads the symmetry's sign, shows a difference.
"""

from koszulcat.category import CategoryPresentation
from koszulcat.monoid import monoid_from_table


def c2_graded_category(field, sign):
    """Objects e and g, identity arrows only, the group law as object product;
    the symmetry is `sign` on g (x) g and the identity elsewhere."""
    objs, one = ("e", "g"), field.one()
    return CategoryPresentation(
        backend="finite", field=field, objects=objs, unit="e",
        hom={(x, x): ("id_" + x,) for x in objs},
        compose_table={((x, x, 0), (x, x, 0)): {0: one} for x in objs},
        identities={x: {0: one} for x in objs},
        dobj_table={("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        dmor_table={((x, x, 0), (y, y, 0)): {0: one} for x in objs for y in objs},
        symmetry_table={(x, y): {0: field.from_int(sign) if x == y == "g" else one}
                        for x in objs for y in objs},
        name="c2graded%+d" % sign)


def c2_group_algebra(field, sign):
    """one at e, theta at g, theta theta = one."""
    one = field.one()
    mul = {("one", "one"): {"one": one}, ("one", "theta"): {"theta": one},
           ("theta", "one"): {"theta": one}, ("theta", "theta"): {"one": one}}
    return monoid_from_table(c2_graded_category(field, sign), {"e": ("one",), "g": ("theta",)},
                             mul, {"one": one}, name="C2")
