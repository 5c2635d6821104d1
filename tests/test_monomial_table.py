"""The monomial product table behind `monomial_block_product` and the placed merge map.

`poly.monomial_product_table(n1, d1, n2, d2, combine)` lists, for every pair
of monomials, the index of their product among the monomials of degree
d1 + d2; it is built on first use and shared by every object pair and
monoid.  The oracles are the exponent arithmetic itself and a block product
assembled from it entry by entry.  Importing the CLI must build no table:
`setup_s` of the benchmark counts fresh-interpreter start-up.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from koszulcat.field import QQ, Field
from koszulcat.matrix import Matrix
from koszulcat.poly import (
    mono_index,
    monomial_block_product,
    monomial_product_table,
    multi_indices,
)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("combine", ["add", "concat"])
def test_table_indexes_the_combined_exponents(combine):
    for n1 in range(4):
        for n2 in ([n1] if combine == "add" else range(4)):
            for d1 in range(4):
                for d2 in range(4):
                    ntgt, table = monomial_product_table(n1, d1, n2, d2, combine)
                    nt = n1 if combine == "add" else n1 + n2
                    tgt = multi_indices(nt, d1 + d2)
                    assert ntgt == len(tgt)
                    mons1, mons2 = multi_indices(n1, d1), multi_indices(n2, d2)
                    assert len(table) == len(mons1)
                    for u, row in zip(mons1, table):
                        want = [tuple(a + b for a, b in zip(u, v)) if combine == "add"
                                else u + v for v in mons2]
                        assert [tgt[t] for t in row] == want


def _naive_block_product(n1, d1, n2, d2, combine, inner, dim1, dim2):
    """u a (x) v b |-> combine(u, v) inner(a (x) b), one entry at a time."""
    mons1, mons2 = multi_indices(n1, d1), multi_indices(n2, d2)
    tgt = mono_index(n1 if combine == "add" else n1 + n2, d1 + d2)
    dt = inner.nrows
    entries = {}
    for i1, u in enumerate(mons1):
        for i2, v in enumerate(mons2):
            w = tuple(a + b for a, b in zip(u, v)) if combine == "add" else u + v
            for r, row in enumerate(inner.rows):
                for c, val in row.items():
                    a, b = divmod(c, dim2)
                    entries[(tgt[w] * dt + r, ((i1 * dim1 + a) * len(mons2) + i2) * dim2 + b)] = val
    return Matrix.from_entries(inner.field, len(tgt) * dt,
                               len(mons1) * dim1 * len(mons2) * dim2, entries)


@pytest.mark.parametrize("field", [pytest.param(QQ, id="Q"), pytest.param(Field(101), id="F101")])
@pytest.mark.parametrize("combine", ["add", "concat"])
def test_block_product_matches_entrywise_assembly(field, combine):
    inner = Matrix.from_rows(field, [[1, 0, 2, 0, 0, -1], [0, 3, 0, 0, 1, 0]])  # F^2 (x) F^3 -> F^2
    for n1, n2 in [(1, 1), (2, 2), (2, 1), (0, 2)]:
        if combine == "add" and n1 != n2:
            continue
        for d1 in range(3):
            for d2 in range(3):
                got = monomial_block_product(n1, d1, n2, d2, combine, inner, 2, 3)
                want = _naive_block_product(n1, d1, n2, d2, combine, inner, 2, 3)
                assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
                assert got.rows == want.rows


NO_IMPORT_WORK = textwrap.dedent("""
    import json
    import koszulcat.cli
    from koszulcat import poly
    print(json.dumps([poly.monomial_product_table.cache_info().currsize,
                      poly.multi_indices.cache_info().currsize]))
""")


def test_importing_the_cli_builds_no_table():
    # a fresh interpreter, so no earlier test has filled the cache
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", NO_IMPORT_WORK], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]"]
