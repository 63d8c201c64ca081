"""Finite clock-and-shift realization of the translation/modulation operators.

Functions live on the periodic grid ([0, 1) intersect hZ)^n with h = 1/N.
Operators are indexed by integers: shifts p and modulations q in Z^n and a
central s, of which only the residues mod N matter.  The translation T,
modulation U and scalar C operators satisfy the commutation relation

    U_q o T_p = T_p o U_q o C_alpha,   alpha = exp(2 pi i (q . p) / N)

*exactly* (up to complex rounding), because T is a coordinate permutation and
U is a diagonal of N-th roots of unity.  The map
rep: (p, q, s) -> T_p o U_q o C_{exp(2 pi i s / N)} is a representation of
the integer Heisenberg group H_n(Z): a triple is a lattice.LatticeElement
with (p, q, s) = (k, l, m), and triples multiply by lattice.lmul.  Its kernel
is the triples with p, q, s all divisible by N.  No operator reads a scale
lambda or a period L, and h cancels from the commutator defect: neither is here.

Every rep(p, q, s) is a monomial operator (Schwinger's finite Weyl pair):
out[j] = exp(2 pi i (s + q . (j - p)) / N) f[(j - p) mod N].  One kernel,
`_monomial`, turns (p, q, s) into integer data: T_p's source index, U_q's
root exponent (q . j) mod N and the central exponent s mod N.  Its
components are Python ints (one operator) or int arrays with a leading
trial axis, for a stack of operators applied to a stack of functions in one
pass.  Either way T_p is one gather at a flat source index.  The operator
is the identity exactly when its source index is arange and every exponent
is 0, which `_is_identity` reads off the data without applying anything.

Every phase is read from a table of the N roots exp(2 pi i k / N): U's
diagonal is roots[(q . j) mod N], and alpha and the central phase are
roots[(q . p) mod N] and roots[s mod N].  The tables hold O(N) numbers and
are cached for at most 16 sizes (n, N).  The scalar operators `apply_T`,
`apply_U` and `rep` also read T_p's source index and U_q's phases from a
cache keyed by (n, N) and the residues of p or q mod N, which a lookup tries
after the caller's vector as given.  It holds at most 2 MiB, drops its
oldest entries first and never holds a larger array.  One formula, `_apply`,
multiplies by alpha, then by the phases, then gathers, for `rep`'s one
function and rep-check's stacks alike, so both give the same bytes.  `rep`
fixes its operator's scalar, phases and source index once, when it is built.

A central-difference directional derivative and a coordinate multiplication
operator are also provided, with a measured commutator defect against the
constant-times-identity that the continuum commutator equals; the defect
decays at second order in h on the seam-free interior of the grid.  The
difference reads f[j + e_a] - f[j - e_a] off slices of the samples, the
interior and then the two rows whose neighbours wrap round the seam, into
one new array per axis: the values of shifting copies with np.roll, bit for
bit, without the copies.

numpy is imported on first use, not by `import heis.grid`: of the CLI verbs,
only rep-check, commutator and siegel-check load it.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, Sequence, TextIO, Tuple

from . import _Numpy, _Value
from .core import _dot
from .errors import (DimensionError, ParameterError, dimension, finite_scalar, finite_vector,
                     integer, integers)
from .lattice import LatticeElement, linverse, lmul

np = _Numpy(globals())  # numpy, imported on first use

MAX_GRID_POINTS = 2**20
IDENTITY_TOL = 1e-12  # is_identity_operator: max deviation on a basis function


class GridSpec(_Value):
    """Discretization data: dimension n, N samples per axis of [0, 1)."""

    __match_args__ = _fields = ("n", "N")

    def __init__(self, n: int, N: int):
        n, N = dimension(n), integer(N, "N")
        if N < 2:
            raise ParameterError("N must be >= 2")
        # N >= 2, so at most 21 products: N**n itself can have millions of digits
        points = 1
        for _ in range(n):
            points *= N
            if points > MAX_GRID_POINTS:
                raise ParameterError(f"grid with N^n = {N}^{n} points exceeds the "
                                     f"{MAX_GRID_POINTS} guard")
        self.__dict__.update(n=n, N=N)

    @property
    def h(self) -> float:
        return 1 / self.N

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.N,) * self.n


class GridFunction:
    """Complex samples over the periodic grid; immutable after construction."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values):
        try:
            arr = np.asarray(values)
        except ValueError:
            raise ParameterError("grid samples must form a regular array") from None
        # booleans, integers, floats and complex numbers; text is not read
        if arr.dtype.kind not in "biufc":
            raise ParameterError(f"grid samples must be numbers, got {arr.dtype} values")
        if arr.size == spec.N**spec.n and arr.ndim == 1:
            arr = arr.reshape(spec.shape)
        if arr.shape != spec.shape:
            raise DimensionError(f"values have shape {arr.shape}, expected {spec.shape}")
        arr = arr.astype(np.complex128, order="C")  # the one copy, owned here
        if not np.isfinite(arr).all():
            raise ParameterError("grid samples must be finite")
        arr.setflags(write=False)
        self.spec, self.values = spec, arr

    @classmethod
    def _wrap(cls, spec: GridSpec, arr: np.ndarray) -> "GridFunction":
        """Adopt a freshly computed array without copying or re-validating.

        For any array the library computed: it must be owned by the caller,
        have the grid's shape and hold complex128 samples.
        """
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj.spec, obj.values = spec, arr
        return obj

    def max_abs_diff(self, other: "GridFunction") -> float:
        if self.spec is not other.spec and self.spec != other.spec:
            raise DimensionError("grid functions live on different grids")
        return _max_abs_diff(self.values, other.values)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over every element: NaN if one is NaN, of one function or a stack."""
    return float(np.maximum.reduce(np.abs(a - b), axis=None))


def _n_vector(v: Sequence, n: int, name: str) -> Sequence:
    """v, once it is known to have length n."""
    try:
        length = len(v)
    except TypeError:
        length = None
    if length != n:
        raise DimensionError(f"{name} must be an n-vector of length {n}, got shape {np.shape(v)}")
    return v


def _check_vec(v: Sequence, n: int, name: str) -> Tuple[int, ...]:
    """v as a tuple of n integers (numpy ones too); a non-integer is refused, not truncated."""
    return integers(_n_vector(v, n, name), name)


@functools.lru_cache(maxsize=16)
def _tables(n: int, N: int) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """The tables of the grid (n, N), 2 N numbers built once: roots[k] =
    exp(2 pi i k / N) for k < N, and axes[a], a view of 0..N-1 along axis a
    that broadcasts against the grid shape."""
    roots, points = np.exp(2j * np.pi * np.arange(N) / N), np.arange(N)
    # shared by every caller: frozen so that no caller can corrupt the cache
    roots.setflags(write=False)
    points.setflags(write=False)
    return roots, tuple(points.reshape((N,) + (1,) * (n - 1 - a)) for a in range(n))


def _source(p: Tuple, N: int, axes: tuple) -> np.ndarray:
    """T_p's source index: at each point j, the flat index of (j - p) mod N.  For
    a stack of B shifts, each p_a an int array of shape (B,) + (1,) * n, it is
    the flat index of (b, (j - p) mod N) in the flattened stack of trial b.
    One gather then moves one function or the whole stack."""
    source = np.arange(np.size(p[0])).reshape(np.shape(p[0]))
    for axis, shift in zip(axes, p):
        source = source * N + (axis - shift) % N
    return source


def _exponent(q: Tuple, N: int, axes: tuple) -> np.ndarray:
    """U_q's root exponent (q . j) mod N at each grid point j, reduced before any
    rounding; for a stack of B modulations, of shape (B,) + the grid shape."""
    index = axes[0] * (q[0] % N)
    for axis, qa in zip(axes[1:], q[1:]):
        index = index + axis * (qa % N)
    index %= N
    return index


# (n, N, kind, residues mod N) -> a frozen array: for kind "T" a shift's
# `_source` index, for kind "U" a modulation's phases roots[(q . j) mod N].
# Dicts keep insertion order, so the first entry is the oldest.  The lock keeps
# the entries and their byte count in step when threads share the cache.
_CACHE_BYTES = 2 * 2**20
_operators: dict = {}
_operator_bytes = 0
_operator_lock = threading.Lock()


def _operator(kind: str, v: Tuple[int, ...], spec: GridSpec) -> np.ndarray:
    """T_v's source index (kind "T") or U_v's phases (kind "U"), built once per
    residue vector, looked up as given before it is reduced, and kept while at most
    _CACHE_BYTES are cached, oldest dropped first.  A larger array is not cached."""
    global _operator_bytes
    n, N = spec.n, spec.N
    arr = _operators.get((n, N, kind, v))
    if arr is None:
        v = tuple([a % N for a in v])
        key = (n, N, kind, v)
        arr = _operators.get(key)
    if arr is None:
        roots, axes = _tables(n, N)
        arr = _source(v, N, axes) if kind == "T" else roots[_exponent(v, N, axes)]
        arr.setflags(write=False)
        with _operator_lock:
            if arr.nbytes <= _CACHE_BYTES and key not in _operators:
                while _operator_bytes + arr.nbytes > _CACHE_BYTES:
                    _operator_bytes -= _operators.pop(next(iter(_operators))).nbytes
                _operators[key] = arr
                _operator_bytes += arr.nbytes
    return arr


def _monomial(p: Tuple, q: Tuple, s, spec: GridSpec) -> Tuple:
    """rep(p, q, s) as integer data (move, exponent, central), which says that
    out[j] = roots[central] roots[exponent[i]] f[i] at i = (j - p) mod N, that is,
    exp(2 pi i (s + q . (j - p)) / N) f[(j - p) mod N].

    Each component is a Python int, or an int array of shape (B,) + (1,) * n
    for a stack of B operators.  The move is p's `_source` index, the exponent
    is U_q's and the central exponent is s mod N, each in its own broadcast shape.
    """
    N = spec.N
    axes = _tables(spec.n, N)[1]
    return _source(p, N, axes), _exponent(q, N, axes), s % N


def _apply(move: np.ndarray, phases, alpha, values: np.ndarray) -> np.ndarray:
    """T_p o U_q o C_alpha on `rep`'s one function or rep-check's stack: alpha
    times the values, then U_q's phases, multiplied in this order at any size
    (`*` swaps the factors into a temporary of 256 KiB or more), then the gather."""
    scaled = alpha * values
    return np.multiply(phases, scaled, out=scaled).take(move)


def _is_identity(data: Tuple, spec: GridSpec) -> np.ndarray:
    """Per operator of `_monomial` data, whether it is the identity: its source
    index is arange and every exponent is 0.  Exact, and O(N^n) for one move
    and one U exponent however many central exponents come with them."""
    move, exponent, central = data
    grid_axes = tuple(range(-spec.n, 0))
    points = np.arange(move.size).reshape(move.shape)
    return (np.all(move == points, axis=grid_axes) & np.all(exponent == 0, axis=grid_axes)
            & (np.ravel(central) == 0))


def apply_T(p: Sequence[int], f: GridFunction) -> GridFunction:
    """Cyclic translation: out[j] = f[j - p mod N].  An exact permutation."""
    spec = f.spec
    index = _operator("T", _check_vec(p, spec.n, "p"), spec)
    return GridFunction._wrap(spec, f.values.take(index))


def apply_U(q: Sequence[int], f: GridFunction) -> GridFunction:
    """Modulation: multiply sample j by exp(2 pi i (q . j) / N)."""
    spec = f.spec
    return GridFunction._wrap(spec, _operator("U", _check_vec(q, spec.n, "q"), spec) * f.values)


def apply_C(alpha: complex, f: GridFunction) -> GridFunction:
    """Multiplication by a unimodular scalar."""
    alpha = finite_scalar(alpha, complex, "alpha")
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise ParameterError(f"alpha must have unit modulus, got |alpha| = {abs(alpha)}")
    return GridFunction._wrap(f.spec, alpha * f.values)


def weyl_alpha(p: Sequence[int], q: Sequence[int], spec: GridSpec) -> complex:
    """The scalar exp(2 pi i (q . p) / N) with U o T = T o U o C_alpha."""
    pv, qv = _check_vec(p, spec.n, "p"), _check_vec(q, spec.n, "q")
    return complex(_tables(spec.n, spec.N)[0][_dot(qv, pv) % spec.N])


# --- the representation -----------------------------------------------------

# A grid triple (p, q, s) is the H_n(Z) element (k, l, m); the names stay for callers.
QuantizedTriple = LatticeElement
triple_mul = lmul
triple_inverse = linverse


def rep(g: LatticeElement, spec: GridSpec) -> Callable[[GridFunction], GridFunction]:
    """The operator T_p o U_q o C_alpha with alpha = exp(2 pi i s / N), where
    (p, q, s) = (g.k, g.l, g.m).

    Matrix-free: the scalar, the phases and the source index are fixed here,
    and the returned function applies them in turn to a function on `spec`.
    """
    if g.n != spec.n:
        raise DimensionError(f"triple has dimension {g.n}, grid has {spec.n}")
    index, phases = _operator("T", g.k, spec), _operator("U", g.l, spec)
    alpha = complex(_tables(spec.n, spec.N)[0][g.m % spec.N])

    def operator(f: GridFunction) -> GridFunction:
        if f.spec is not spec and f.spec != spec:
            raise DimensionError("grid functions live on different grids")
        return GridFunction._wrap(spec, _apply(index, phases, alpha, f.values))

    return operator


def dense_matrix(op: Callable[[GridFunction], GridFunction], spec: GridSpec) -> np.ndarray:
    """Materialize an operator as a dense matrix (small grids only)."""
    size = spec.N**spec.n
    if size > 256:
        raise ParameterError(f"dense materialization limited to 256 points, got {size}")
    return np.stack([op(e).values.ravel() for e in _basis(spec)], axis=1)


def is_identity_operator(op: Callable[[GridFunction], GridFunction], spec: GridSpec) -> bool:
    """Check op = id on the full standard basis of grid functions."""
    return all(op(e).max_abs_diff(e) <= IDENTITY_TOL for e in _basis(spec))


def _basis(spec: GridSpec):
    """The standard basis functions of the grid, in row-major order."""
    for j in range(spec.N**spec.n):
        e = np.zeros(spec.shape, dtype=np.complex128)
        e.flat[j] = 1.0
        yield GridFunction._wrap(spec, e)


# --- differentiation / multiplication commutator ----------------------------

def directional_difference(nu: Sequence[float], f: GridFunction) -> GridFunction:
    """Central-difference directional derivative with weights nu.

    Per axis: (f(w + h e_a) - f(w - h e_a)) / (2 h), combined with weights
    nu_a; second-order accurate on smooth periodic samples.
    """
    return _difference(finite_vector(_n_vector(nu, f.spec.n, "nu"), float), f)


# f[j + e_a] - f[j - e_a] as (forward, backward, j) slices along axis a: the
# interior, then the first and the last row, whose neighbours wrap round the seam
_CENTRAL = ((slice(2, None), slice(None, -2), slice(1, -1)),
            (slice(1, 2), slice(-1, None), slice(None, 1)),
            (slice(None, 1), slice(-2, -1), slice(-1, None)))


def _difference(nv: Tuple[float, ...], f: GridFunction) -> GridFunction:
    values, out = f.values, None
    for axis, weight in enumerate(nv):
        if weight:
            diff, lead = np.empty_like(values), (slice(None),) * axis
            for forward, backward, rows in _CENTRAL:
                np.subtract(values[lead + (forward,)], values[lead + (backward,)],
                            out=diff[lead + (rows,)])
            diff *= weight  # weight * (forward - backward) / (2 h), in that order
            diff /= 2.0 * f.spec.h
            out = diff if out is None else np.add(out, diff, out=out)
    return GridFunction._wrap(f.spec, np.zeros(f.spec.shape, np.complex128) if out is None else out)


def coordinate_multiply(u: Sequence[float], f: GridFunction) -> GridFunction:
    """Multiply by the linear functional w -> w . u evaluated at grid coordinates."""
    return _coordinate(finite_vector(_n_vector(u, f.spec.n, "u"), float), f)


def _coordinate(uv: Tuple[float, ...], f: GridFunction) -> GridFunction:
    spec = f.spec
    axes = _tables(spec.n, spec.N)[1]
    mu = sum((ua * axis * spec.h for ua, axis in zip(uv, axes)), np.zeros(spec.shape))
    return GridFunction._wrap(spec, mu * f.values)


def commutator_defect(nu: Sequence[float], u: Sequence[float], f: GridFunction) -> float:
    """Max interior deviation of the discrete [D_nu, M_mu] f from (nu . u) f.

    The coordinate functional is not periodic, so points whose difference
    stencil crosses the wrap seam are excluded (a margin of
    max(1, ceil(max |nu_a|)) samples on each side of every axis).  Raises
    ParameterError when the defect overflows the float range.
    """
    nv = finite_vector(_n_vector(nu, f.spec.n, "nu"), float)
    uv = finite_vector(_n_vector(u, f.spec.n, "u"), float)
    margin = max(1, math.ceil(float(np.max(np.abs(nv)))))
    if 2 * margin >= f.spec.N:
        raise ParameterError("grid too small for the seam-exclusion margin")
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        d_of_m = _difference(nv, _coordinate(uv, f))
        m_of_d = _coordinate(uv, _difference(nv, f))
        expected = float(np.dot(nv, uv)) * f.values
        defect = np.abs(d_of_m.values - m_of_d.values - expected)
    interior = tuple(slice(margin, f.spec.N - margin) for _ in range(f.spec.n))
    worst = float(np.max(defect[interior]))
    if not math.isfinite(worst):
        raise ParameterError("commutator overflows the float range")
    return worst


# --- text serialization -----------------------------------------------------

def write_grid_function(f: GridFunction, stream: TextIO) -> None:
    """Header `n N`, then one `re im` sample per line, row-major."""
    stream.write(f"{f.spec.n} {f.spec.N}\n")
    for v in f.values.ravel():
        stream.write(f"{v.real:.17g} {v.imag:.17g}\n")


def read_grid_function(stream: TextIO) -> GridFunction:
    """Read what `write_grid_function` writes; a malformed file raises ParameterError."""
    try:
        header = stream.readline().split()
        if len(header) != 2:
            raise ValueError("the header must be `n N`")
        spec = GridSpec(int(header[0]), int(header[1]))
        values = []
        for line in filter(str.strip, stream):
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected `re im`, got {line.strip()!r}")
            values.append(complex(float(parts[0]), float(parts[1])))
        if len(values) != spec.N**spec.n:
            raise ValueError(f"expected {spec.N**spec.n} samples, got {len(values)}")
    except ValueError as exc:  # every malformed part of the file, under one prefix
        raise ParameterError(f"malformed grid function file: {exc}") from None
    return GridFunction(spec, np.array(values))
