"""Exact matrix arithmetic: ranks, kernels, determinants, sampling."""

import inspect
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volrig
from helpers import (cofactor, col, column, hstack, identity,
                     left_kernel_basis, matmul, submatrix, transpose)
from volrig import (cli, complexes, cycles, fileio, linalg, rigidity,
                    shifting, sparsity)
from volrig.errors import BadParameters, DimensionMismatch, NotInvertible
from volrig.linalg import (DEFAULT_PRIME, GF, PRIME_TABLE, QQ, ExactMatrix,
                           PrimeField, sample_generic_matrix)


def permutation_det(rows):
    """Independent oracle: determinant by the permutation expansion."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def miller_rabin(n):
    """Deterministic for n < 2^64 with this fixed witness set."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in small:
        return True
    if any(n % p == 0 for p in small):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_table_is_prime():
    for q in PRIME_TABLE:
        assert miller_rabin(q), q
    assert PRIME_TABLE[0] == DEFAULT_PRIME
    assert DEFAULT_PRIME.bit_length() == 62


def test_every_field_parameter_defaults_to_a_field():
    # GF and QQ are the only default fields: no public function takes
    # field=None and picks a field inside.  PrimeField names its modulus.
    assert GF == PrimeField(DEFAULT_PRIME)
    with pytest.raises(TypeError):
        PrimeField()
    modules = (volrig, complexes, linalg, rigidity, shifting, sparsity,
               fileio, cycles, cli)
    functions = {getattr(m, name) for m in modules
                 for name in dir(m) if not name.startswith("_")}
    defaults = {}
    for fn in functions:
        if inspect.isfunction(fn) and fn.__module__.startswith("volrig"):
            param = inspect.signature(fn).parameters.get("field")
            if param and param.default is not inspect.Parameter.empty:
                defaults[fn.__qualname__] = param.default
    assert {"sample_chain", "random_identity_sweep", "generic_rank",
            "shifted_level_stable", "verify_dataset"} <= set(defaults)
    assert [name for name, f in defaults.items()
            if f is not GF and f is not QQ] == []


def test_prime_field_ops():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(0) == 0
    with pytest.raises(NotInvertible):
        f.inv(0)
    # Elimination scales through inv, so a modulus that is no prime fails
    # with the package's own error.
    with pytest.raises(NotInvertible):
        ExactMatrix([[2, 1]], PrimeField(4)).rank()


def test_prime_field_of_is_exact():
    f = PrimeField(7)
    assert f.of(-3) == 4 and f.of(True) == 1
    assert f.of(Fraction(1, 2)) == 4
    assert f.of(Fraction(-5, 3)) == f.mul(f.of(-5), f.inv(3))
    assert f.of(Fraction(14, 1)) == 0
    assert ExactMatrix([[Fraction(1, 2)]], f).rank() == 1
    for bad in (2.9, 2.0, "3", None):
        with pytest.raises(BadParameters):
            f.of(bad)
    with pytest.raises(NotInvertible):
        f.of(Fraction(1, 7))


def test_rational_field_ops():
    assert QQ.inv(QQ.of(4)) == Fraction(1, 4)
    assert QQ.of("3/7") == Fraction(3, 7)
    assert type(QQ.of(3)) is Fraction
    # The constants, and the inverses of +-1, stay ints.
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert QQ.inv(2) == Fraction(1, 2)
    with pytest.raises(NotInvertible):
        QQ.inv(QQ.of(0))


def test_identity_and_zero_rank():
    assert identity(5, GF).rank() == 5
    assert ExactMatrix.zeros(4, 6, GF).rank() == 0
    assert ExactMatrix.zeros(0, 3, GF).rank() == 0


def test_outer_product_rank_one():
    u = [1, 2, 3, 4]
    v = [5, 6, 7]
    m = ExactMatrix([[a * b for b in v] for a in u], GF)
    assert m.rank() == 1


def test_det_against_permutation_oracle():
    # GF(7) makes zero pivots, row swaps and singular matrices common.
    rng = random.Random(11)
    for size in (1, 2, 3, 4, 5, 6):
        for _ in range(8):
            rows = [[rng.randrange(-6, 7) for _ in range(size)]
                    for _ in range(size)]
            want = permutation_det(rows)
            assert ExactMatrix(rows, QQ).det() == want
            for f in (GF, PrimeField(7)):
                assert ExactMatrix(rows, f).det() == want % f.q


def test_det_of_minor_matches_submatrix():
    # Minors up to 3 x 3 read the entries in place; the rest eliminate.
    rng = random.Random(29)
    for f in (GF, PrimeField(7), QQ):
        m = ExactMatrix([[rng.randrange(-6, 7) for _ in range(7)]
                         for _ in range(6)], f)
        for k in range(6):
            for _ in range(10):
                rows = tuple(sorted(rng.sample(range(6), k)))
                cols = tuple(sorted(rng.sample(range(7), k)))
                assert m.det(rows, cols) == submatrix(m, rows, cols).det()


def test_det_empty_matrix_is_one():
    assert ExactMatrix([], QQ).det() == 1


def test_rank_agrees_between_fields():
    # Entries are tiny, so no minor can be a multiple of a 62-bit prime
    # and the two ranks must agree exactly.
    rng = random.Random(23)
    for _ in range(25):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        rows = [[rng.randrange(-5, 6) for _ in range(c)] for _ in range(r)]
        assert ExactMatrix(rows, QQ).rank() == ExactMatrix(rows, GF).rank()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_rank_transpose_invariant(rows):
    m = ExactMatrix(rows, QQ)
    assert m.rank() == transpose(m).rank()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 7), st.integers(2, 7),
       st.sampled_from([DEFAULT_PRIME, 2, 7]))
def test_right_kernel_annihilates(seed, r, c, q):
    m = sample_generic_matrix(r, c, seed, field=PrimeField(q))
    ker = m.right_kernel()
    assert m.rank() + ker.ncols == c
    for j in range(ker.ncols):
        assert all(x == 0 for x in m.mul_vec(col(ker, j)))


@pytest.mark.parametrize("field", [QQ, PrimeField(7), GF],
                         ids=["QQ", "GF7", "default"])
def test_right_kernel_is_reduced_echelon_basis(field):
    # Column k of the kernel is the basis vector of the k-th free column
    # (a column that is no pivot of the reduced echelon form): a one at
    # its own free column and zeros at the other free columns.
    rng = random.Random(41)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)]
        m = ExactMatrix(rows, field)
        ker = m.right_kernel()
        assert ker.nrows == c and ker.ncols == c - m.rank()
        # A column is free when it depends on the columns before it.
        free = [j for j in range(c)
                if submatrix(m, range(r), range(j + 1)).rank()
                == submatrix(m, range(r), range(j)).rank()]
        assert len(free) == ker.ncols
        for k, fc in enumerate(free):
            assert [ker.data[j][k] for j in free] == [
                field.one if j == fc else field.zero for j in free]
            assert all(x == 0 for x in m.mul_vec(col(ker, k)))
            assert all(ker.data[j][k] == 0 for j in range(fc + 1, c)
                       if j not in free)


def test_left_kernel_rows_annihilate():
    rng = random.Random(5)
    for _ in range(10):
        r, c = rng.randint(2, 7), rng.randint(2, 7)
        rows = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
        m = ExactMatrix(rows, QQ)
        lk = left_kernel_basis(m)
        assert lk.nrows == r - m.rank()
        for i in range(lk.nrows):
            prod = matmul(ExactMatrix([lk.data[i]], QQ), m)
            assert all(x == 0 for x in prod.data[0])


def test_in_column_span():
    m = ExactMatrix([[1, 0], [0, 1], [0, 0]], QQ)
    assert m.in_column_span([3, -2, 0])
    assert not m.in_column_span([0, 0, 1])
    empty = ExactMatrix([[], [], []], QQ)
    assert empty.in_column_span([0, 0, 0])
    assert not empty.in_column_span([1, 0, 0])


def test_in_column_span_matches_rank_definition():
    rng = random.Random(31)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 5)
        m = ExactMatrix([[rng.randrange(-3, 4) for _ in range(c)]
                         for _ in range(r)], QQ)
        v = [QQ.of(rng.randrange(-3, 4)) for _ in range(r)]
        aug = hstack(m, column(v, QQ))
        assert m.in_column_span(v) == (aug.rank() == m.rank())


def test_cofactor_small():
    m = ExactMatrix([[1, 2], [3, 4]], QQ)
    assert cofactor(m, 0, 0) == 4
    assert cofactor(m, 0, 1) == -3
    assert cofactor(m, 1, 0) == -2
    assert cofactor(m, 1, 1) == 1


def test_cofactor_expansion_reproduces_det():
    rng = random.Random(17)
    for size in (2, 3, 4):
        rows = [[rng.randrange(-5, 6) for _ in range(size)]
                for _ in range(size)]
        m = ExactMatrix(rows, QQ)
        want = m.det()
        for i in range(size):
            got = sum(m.data[i][j] * cofactor(m, i, j) for j in range(size))
            assert got == want


def test_sampling_is_deterministic():
    a = sample_generic_matrix(4, 5, seed=99)
    b = sample_generic_matrix(4, 5, seed=99)
    c = sample_generic_matrix(4, 5, seed=100)
    assert a == b
    assert a != c


def test_sampling_first_column_ones():
    m = sample_generic_matrix(6, 6, seed=3, first_column_ones=True)
    assert all(m.data[i][0] == 1 for i in range(6))


def test_sampling_nonsingular_over_many_seeds():
    # A 62-bit prime makes a singular 6x6 sample astronomically rare.
    for seed in range(100):
        assert sample_generic_matrix(6, 6, seed).rank() == 6


def test_sampling_rejects_rationals():
    with pytest.raises(BadParameters):
        sample_generic_matrix(2, 2, 0, field=QQ)


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        ExactMatrix([[1, 2], [3]], QQ)
    with pytest.raises(DimensionMismatch):
        ExactMatrix([[1, 2]], QQ).det()
    with pytest.raises(DimensionMismatch):
        ExactMatrix([[1, 2], [3, 4]], QQ).det((0, 1), (0,))
    with pytest.raises(DimensionMismatch):
        ExactMatrix([[1, 2]], QQ).mul_vec([1, 2, 3])
