"""Problem-file parser: one plain-text grammar for every CLI task.

Line-oriented, comments with '#', blank lines ignored.  Scalars are exact
('3/7', '-2'; prime fields also accept 'a mod p' on input).  Linear
combinations are '+'-separated 'coefficient*name' terms, or '0'.

    field Q | field F 5
    backend trivial | backend finite

    # finite backend only
    objects e g
    unit e
    diamond e g = g
    hom e g = u_eg ...
    identity e = 1*u_ee
    compose u_gg u_eg = 1*u_eg        # g after f
    dmor u_eg u_ge = 1*u_gg           # f <> g
    symmetry e g = 1*u_gg             # in hom(e<>g, g<>e)
    rep reg dims e=2 g=2
    act reg u_eg = 1 1 ; 0 1          # rows of the matrix

    # monoids
    monoid A                          # structure-constant table
      basis one xbar                  # trivial backend: one list
      basis e : i_e                   # finite backend: per object
      unit 1*one
      mul one xbar = 1*xbar           # omitted products are zero
      act u_eg i_e = 1*i_g            # finite backend carrier actions
    end
    monoid I identity                 # the unit monoid of the category
    poly P over A vars x y            # polynomial monoid (cap set at run time)
    main P                            # the subject of the tasks

    module M quotient x               # quotient of the subject by an ideal
    module N self                     # the subject as a bimodule

    task koszul alpha=x,y max-degree=4

Objects are declared before use: by the one 'objects' line (each name once),
or on the trivial backend by the 'backend' line, whose one object is '1'.
A finite presentation has an 'identity' line per object, 'diamond' and
'symmetry' lines per ordered pair, and each 'rep ... dims' line gives every
object once.  Each arrow combination lies in the hom space of its directive:
hom(x, x) for 'identity x', hom(src f, tgt g) for 'compose g f' (f ending
where g starts), hom(src f <> src g, tgt f <> tgt g) for 'dmor f g' and
hom(x<>y, y<>x) for 'symmetry x y'.  Violations are ParseErrors naming a line.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .category import UNIT_NAME, CategoryPresentation, Representation, identity_representation
from .errors import ParseError, StructuralError
from .field import Field
from .matrix import Matrix
from .monoid import (
    Monoid,
    generated_submodule,
    identity_monoid,
    monoid_from_table,
    quotient_module,
    regular_bimodule,
)
from .poly import element_from_name, polynomial_monoid


# task-line keys: those that take an integer, those that name data, bare flags
TASK_INT_KEYS = ("max-degree", "n", "nvars", "p", "codegree")
TASK_NAME_KEYS = ("alpha", "module")
TASK_FLAGS = ("check-resolution",)


@dataclass
class MonoidDecl:
    kind: str                     # "table" | "identity" | "poly"
    basis: dict = dc_field(default_factory=dict)
    mul: dict = dc_field(default_factory=dict)
    unit: dict = dc_field(default_factory=dict)
    acts: dict = dc_field(default_factory=dict)  # mor -> basis name -> (line, lincomb)
    over: Optional[str] = None
    var_names: tuple = ()


@dataclass
class RepDecl:
    dims: dict
    acts: dict                    # mor -> (line, rows)


@dataclass
class ProblemFile:
    path: str
    field: Field
    backend: str
    category: CategoryPresentation
    monoids: dict
    reps: dict
    main: Optional[str]
    modules: dict
    task: dict

    def main_name(self) -> str:
        if self.main:
            return self.main
        if len(self.monoids) == 1:
            return next(iter(self.monoids))
        raise StructuralError("several monoids declared; add a 'main <name>' line")

    def build_monoid(self, name: str, cap: int) -> Monoid:
        try:
            decl = self.monoids[name]
        except KeyError:
            raise StructuralError("no monoid named %r in %s" % (name, self.path))
        if decl.kind == "identity":
            return identity_monoid(self.category)
        if decl.kind == "table":
            carrier_actions = None
            if decl.acts:
                where = {nm: (obj, i) for obj, names in decl.basis.items()
                         for i, nm in enumerate(names)}
                carrier_actions = {}
                for mor_name, images in decl.acts.items():
                    x, y, _ = key = _resolve_mor(self.category.hom, mor_name,
                                                 min(ln for ln, _ in images.values()))
                    mat = Matrix.zeros(self.field, len(decl.basis.get(y, ())),
                                       len(decl.basis.get(x, ())))
                    for src_name, (ln, combo) in images.items():
                        so, si = where[src_name]
                        if so != x:
                            raise ParseError(
                                "act %s applied to %s at the wrong object" % (mor_name, src_name),
                                line=ln)
                        for tgt_name, c in combo.items():
                            to, ti = where[tgt_name]
                            if to != y:
                                raise ParseError(
                                    "act %s lands at the wrong object" % mor_name, line=ln)
                            mat.rows[ti][si] = c
                    carrier_actions[key] = mat
            return monoid_from_table(self.category, decl.basis, decl.mul, decl.unit,
                                     carrier_actions=carrier_actions, name=name)
        base = self.build_monoid(decl.over, 0)
        return polynomial_monoid(base, len(decl.var_names), cap,
                                 var_names=decl.var_names)

    def build_subject(self, cap: int) -> Monoid:
        return self.build_monoid(self.main_name(), cap)

    def build_module(self, name: str, subject: Monoid):
        try:
            decl = self.modules[name]
        except KeyError:
            raise StructuralError("no module named %r in %s" % (name, self.path))
        if decl == ("self",):
            return regular_bimodule(subject)
        gens = [element_from_name(subject, g) for g in decl[1]]
        return quotient_module(regular_bimodule(subject),
                               generated_submodule(subject, gens)).module

    def build_representation(self, name: str) -> Representation:
        try:
            decl = self.reps[name]
        except KeyError:
            raise StructuralError("no representation named %r in %s" % (name, self.path))
        if decl == ("identity",):
            return identity_representation(self.category)
        mors = {}
        for mor_name, (ln, rows) in decl.acts.items():
            x, y, _ = key = _resolve_mor(self.category.hom, mor_name, ln)
            m = mors[key] = Matrix.from_rows(self.field, rows)
            if (m.nrows, m.ncols) != (decl.dims[y], decl.dims[x]):
                raise ParseError("action %s has shape %dx%d, expected %dx%d"
                                 % (mor_name, m.nrows, m.ncols, decl.dims[y], decl.dims[x]),
                                 line=ln)
        return Representation(self.category, decl.dims, mors, name=name)


def _resolve_mor(hom: dict, name: str, line: int, space=None):
    """The key (x, y, i) of the hom basis arrow `name`, in hom(*space) if given."""
    for (x, y), names in hom.items():
        if name in names:
            if space is not None and (x, y) != space:
                raise ParseError("%s lies in hom(%s, %s), expected hom(%s, %s)"
                                 % ((name, x, y) + space), line=line)
            return (x, y, names.index(name))
    raise ParseError("no hom basis element named %r" % name, line=line)


def _combination(hom: dict, combo: dict, space, line: int) -> dict:
    """A {name: scalar} combination as {basis index: scalar} of hom(*space)."""
    return {_resolve_mor(hom, nm, line, space)[2]: c for nm, c in combo.items()}


class _Parser:
    def __init__(self, text: str, path: str):
        self.path = path
        self.lines = text.splitlines()
        self.i = 0
        self.field: Optional[Field] = None
        self.backend = None
        self.objects = []
        self.objects_line = None
        self.unit = None
        self.diamond = {}                   # (x, y) -> z
        self.hom = {}                       # (x, y) -> basis names
        self.identity = {}                  # x -> (line, combination)
        self.compose = {}                   # (g, f) -> (line, combination)
        self.dmor = {}                      # (f, g) -> (line, combination)
        self.symmetry = {}                  # (x, y) -> (line, combination)
        self.reps = {}
        self.monoids = {}
        self.main = None
        self.main_line = None
        self.modules = {}
        self.task = {}

    def err(self, msg):
        raise ParseError(msg, line=self.i + 1)

    def scalar(self, text):
        try:
            return self.field.parse(text)
        except Exception:
            self.err("bad scalar %r" % text)

    def lincomb(self, text):
        text = text.strip()
        if text == "0":
            return {}
        out = {}
        for term in text.split("+"):
            term = term.strip()
            if "*" not in term:
                self.err("term %r needs the form coeff*name" % term)
            coeff, name = term.split("*", 1)
            out[name.strip()] = self.scalar(coeff.strip())
        return out

    def split(self, line, head, nargs, expected):
        """The nargs operands and the right side of a 'head a b = rhs' line."""
        left, _, rhs = line[len(head):].partition("=")
        args = left.split()
        if len(args) != nargs or not rhs.split():
            self.err("expected: " + expected)
        return (*args, rhs)

    def obj(self, name):
        """name, which must be a declared object."""
        if name not in self.objects:
            self.err("undeclared object %r (objects at %s)" % (
                name, "line %d" % self.objects_line if self.objects_line else "no line"))
        return name

    def parse(self) -> ProblemFile:
        while self.i < len(self.lines):
            raw = self.lines[self.i]
            line = raw.split("#", 1)[0].strip()
            if not line:
                self.i += 1
                continue
            toks = line.split()
            head = toks[0]
            handler = getattr(self, "p_" + head.replace("-", "_"), None)
            if handler is None:
                self.err("unknown directive %r" % head)
            try:
                handler(toks, line)
            except (ValueError, IndexError):
                # a missing token or '=': self.i is the offending line, also
                # inside a monoid block
                self.err("malformed line %r" % self.lines[self.i].split("#", 1)[0].strip())
            self.i += 1
        if self.field is None:
            raise ParseError("missing 'field' line in %s" % self.path)
        if self.backend is None:
            raise ParseError("missing 'backend' line in %s" % self.path)
        if self.main is not None and self.main not in self.monoids:
            raise ParseError("'main' names no declared monoid %r" % self.main,
                             line=self.main_line)
        cat = self.build_category()
        return ProblemFile(self.path, self.field, self.backend, cat, self.monoids,
                           self.reps, self.main, self.modules, self.task)

    # -- directives -------------------------------------------------------

    def p_field(self, toks, line):
        try:
            self.field = Field.from_descriptor(" ".join(toks[1:]))
        except Exception as exc:
            self.err(str(exc))

    def p_backend(self, toks, line):
        if toks[1] not in ("trivial", "finite"):
            self.err("backend must be trivial or finite")
        self.backend = toks[1]
        if self.backend == "trivial":  # the line declares the one object
            self.objects, self.objects_line = [UNIT_NAME], self.i + 1

    def p_objects(self, toks, line):
        names = toks[1:]
        if not names:
            self.err("expected: objects names...")
        if self.objects_line:
            self.err("objects already declared at line %d" % self.objects_line)
        twice = [x for k, x in enumerate(names) if x in names[:k]]
        if twice:
            self.err("object %r listed twice" % twice[0])
        self.objects, self.objects_line = names, self.i + 1

    def p_unit(self, toks, line):
        self.unit = self.obj(toks[1])

    def p_diamond(self, toks, line):
        x, y, z = self.split(line, "diamond", 2, "diamond x y = z")
        self.diamond[(self.obj(x), self.obj(y))] = self.obj(z.strip())

    def p_hom(self, toks, line):
        # an empty hom space is declared by omitting its line
        x, y, names = self.split(line, "hom", 2, "hom x y = names...")
        names = tuple(names.split())
        for k, nm in enumerate(names):
            if nm in names[:k] or any(nm in other for other in self.hom.values()):
                self.err("duplicate hom basis name %r" % nm)
        self.hom[(self.obj(x), self.obj(y))] = names

    def p_identity(self, toks, line):
        x, expr = self.split(line, "identity", 1, "identity x = lincomb")
        self.identity[self.obj(x)] = (self.i + 1, self.lincomb(expr))

    def p_compose(self, toks, line):
        # compose g f = lincomb  (g after f)
        g, f, expr = self.split(line, "compose", 2, "compose g f = lincomb")
        self.compose[(g, f)] = (self.i + 1, self.lincomb(expr))

    def p_dmor(self, toks, line):
        f, g, expr = self.split(line, "dmor", 2, "dmor f g = lincomb")
        self.dmor[(f, g)] = (self.i + 1, self.lincomb(expr))

    def p_symmetry(self, toks, line):
        x, y, expr = self.split(line, "symmetry", 2, "symmetry x y = lincomb")
        self.symmetry[(self.obj(x), self.obj(y))] = (self.i + 1, self.lincomb(expr))

    def p_rep(self, toks, line):
        name = toks[1]
        if len(toks) == 3 and toks[2] == "identity":
            self.reps[name] = ("identity",)
            return
        if len(toks) < 3 or toks[2] != "dims":
            self.err("expected: rep name dims obj=dim ... or rep name identity")
        dims = {}
        for pair in toks[3:]:
            obj, val = pair.split("=")
            if self.obj(obj) in dims:
                self.err("rep %s gives object %r twice" % (name, obj))
            dims[obj] = int(val)
        for x in self.objects:
            if x not in dims:
                self.err("rep %s gives no dimension for object %r" % (name, x))
        self.reps[name] = RepDecl(dims, {})

    def p_act(self, toks, line):
        # either 'act <rep> <mor> = rows' or inside a monoid block (handled there)
        rep, mor, expr = self.split(line, "act", 2, "act rep mor = rows")
        if rep not in self.reps or self.reps[rep] == ("identity",):
            self.err("unknown representation %r" % rep)
        rows = []
        for chunk in expr.split(";"):
            rows.append([self.scalar(v) for v in chunk.split()])
        if len({len(r) for r in rows}) > 1:
            self.err("ragged rows in action %s" % mor)
        self.reps[rep].acts[mor] = (self.i + 1, rows)

    def p_monoid(self, toks, line):
        name = toks[1]
        if len(toks) == 3 and toks[2] == "identity":
            self.monoids[name] = MonoidDecl("identity")
            return
        decl = MonoidDecl("table")
        opened = self.i + 1
        basis_lines = []
        uses = []  # (line, basis names the line refers to)
        self.i += 1
        while self.i < len(self.lines):
            raw = self.lines[self.i].split("#", 1)[0].strip()
            if not raw:
                self.i += 1
                continue
            if raw == "end":
                break
            toks2 = raw.split()
            if toks2[0] == "basis":
                basis_lines.append("line %d" % (self.i + 1))
                if ":" in toks2:
                    sep = toks2.index(":")
                    decl.basis[self.obj(toks2[1])] = tuple(toks2[sep + 1:])
                else:
                    if self.backend != "trivial":
                        self.err("finite backend basis needs 'basis obj : names'")
                    decl.basis["1"] = tuple(toks2[1:])
            elif toks2[0] == "unit":
                decl.unit = self.lincomb(raw[len("unit"):])
                uses.append((self.i + 1, decl.unit))
            elif toks2[0] == "mul":
                a, b, expr = self.split(raw, "mul", 2, "mul a b = lincomb")
                combo = decl.mul[(a, b)] = self.lincomb(expr)
                uses.append((self.i + 1, [a, b] + list(combo)))
            elif toks2[0] == "act":
                mor, src, expr = self.split(raw, "act", 2, "act mor basisname = lincomb")
                combo = self.lincomb(expr)
                decl.acts.setdefault(mor, {})[src] = (self.i + 1, combo)
                uses.append((self.i + 1, [src] + list(combo)))
            else:
                self.err("unknown monoid directive %r in the block opened at line %d"
                         % (toks2[0], opened))
            self.i += 1
        else:
            self.err("monoid block for %r opened at line %d not closed with 'end'"
                     % (name, opened))
        declared = {nm for names in decl.basis.values() for nm in names}
        for ln, names in uses:
            for nm in names:
                if nm not in declared:
                    raise ParseError("undeclared basis name %r in monoid %r (basis at %s)"
                                     % (nm, name, ", ".join(basis_lines) or "no line"),
                                     line=ln)
        self.monoids[name] = decl

    def p_poly(self, toks, line):
        # poly P over A vars x y ...
        if len(toks) < 6 or toks[2] != "over" or toks[4] != "vars":
            self.err("expected: poly name over base vars v1 v2 ...")
        self.monoids[toks[1]] = MonoidDecl("poly", over=toks[3],
                                           var_names=tuple(toks[5:]))

    def p_main(self, toks, line):
        self.main, self.main_line = toks[1], self.i + 1

    def p_module(self, toks, line):
        name = toks[1]
        if toks[2] == "self":
            self.modules[name] = ("self",)
        elif toks[2] == "quotient":
            gens = " ".join(toks[3:]).replace(",", " ").split()
            if not gens:
                self.err("quotient module needs generators")
            self.modules[name] = ("quotient", gens)
        else:
            self.err("module kind must be self or quotient")

    def p_task(self, toks, line):
        task = {"op": toks[1]}
        for item in toks[2:]:
            key, eq, value = item.partition("=")
            if key in TASK_INT_KEYS or key in TASK_NAME_KEYS:
                if not value:
                    self.err("task key %r needs a value (%s=...) in %r" % (key, key, line))
                if key in TASK_INT_KEYS:
                    try:
                        value = int(value)
                    except ValueError:
                        self.err("task key %r needs an integer, got %r in %r"
                                 % (key, value, line))
            elif key not in TASK_FLAGS:
                self.err("unknown task key %r in %r" % (key, line))
            elif eq:
                self.err("task flag %r takes no value in %r" % (key, line))
            task[key] = value if eq else True
        self.task = task

    # -- category assembly ---------------------------------------------------

    def build_category(self) -> CategoryPresentation:
        if self.backend == "trivial":
            return CategoryPresentation.trivial(self.field)
        if not self.objects or self.unit is None:
            raise ParseError("finite backend needs 'objects' and 'unit' lines")
        pairs = [(x, y) for x in self.objects for y in self.objects]
        for head, table, keys in (("identity", self.identity, self.objects),
                                  ("diamond", self.diamond, pairs),
                                  ("symmetry", self.symmetry, pairs)):
            for key in keys:
                if key not in table:
                    raise ParseError("no '%s %s' line for the objects declared here"
                                     % (head, key if head == "identity" else " ".join(key)),
                                     line=self.objects_line)
        hom, dobj = self.hom, self.diamond
        identities = {x: _combination(hom, combo, (x, x), ln)
                      for x, (ln, combo) in self.identity.items()}
        symmetry_table = {(x, y): _combination(hom, combo, (dobj[x, y], dobj[y, x]), ln)
                          for (x, y), (ln, combo) in self.symmetry.items()}
        compose_table, dmor_table = {}, {}
        for (g, f), (ln, combo) in self.compose.items():
            kg, kf = _resolve_mor(hom, g, ln), _resolve_mor(hom, f, ln)
            if kf[1] != kg[0]:
                raise ParseError("cannot compose %s after %s: %s ends at %s, %s starts at %s"
                                 % (g, f, f, kf[1], g, kg[0]), line=ln)
            compose_table[(kg, kf)] = _combination(hom, combo, (kf[0], kg[1]), ln)
        for (f, g), (ln, combo) in self.dmor.items():
            kf, kg = _resolve_mor(hom, f, ln), _resolve_mor(hom, g, ln)
            dmor_table[(kf, kg)] = _combination(
                hom, combo, (dobj[kf[0], kg[0]], dobj[kf[1], kg[1]]), ln)
        return CategoryPresentation(
            backend="finite",
            field=self.field,
            objects=tuple(self.objects),
            unit=self.unit,
            hom=self.hom,
            compose_table=compose_table,
            identities=identities,
            dobj_table=self.diamond,
            dmor_table=dmor_table,
            symmetry_table=symmetry_table,
            name=self.path.rsplit("/", 1)[-1],
        )


def parse_problem_file(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _Parser(text, path).parse()


def parse_problem_text(text: str, path="<string>") -> ProblemFile:
    return _Parser(text, path).parse()
