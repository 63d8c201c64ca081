"""Finite clock-and-shift realization of the translation/modulation operators.

Functions live on the periodic grid ([0, L) intersect hZ)^n with h = L/N.
Operators are indexed by integers: shifts p and modulations q in Z^n and a
central s, of which only the residues mod N matter.  The translation T,
modulation U and scalar C operators satisfy the commutation relation

    U_q o T_p = T_p o U_q o C_alpha,   alpha = exp(2 pi i (q . p) / N)

*exactly* (up to complex rounding), because T is a coordinate permutation and
U is a diagonal of N-th roots of unity.  The map
rep: (p, q, s) -> T_p o U_q o C_{exp(2 pi i s / N)} is a representation of
the integer Heisenberg group H_n(Z): a triple is a lattice.LatticeElement
with (p, q, s) = (k, l, m), and triples multiply by lattice.lmul.  Its kernel
is the triples with p, q, s all divisible by N.  No operator reads a
continuum scale lambda, so the code has none; L only sets h, for the commutator.

Every phase is read from a table of the N roots exp(2 pi i k / N): U's
diagonal is roots[(q . j) mod N], and alpha and the central phase are
roots[(q . p) mod N] and roots[s mod N].  T gathers each axis at
(j - p_a) mod N, a slice of a table of indices k mod N for k < 2 N.  The
tables are built once per (n, N), hold O(N) numbers, and are kept in a
cache of at most 16 sizes, so they never grow with the number of calls.

A central-difference directional derivative and a coordinate multiplication
operator are also provided, with a measured commutator defect against the
constant-times-identity that the continuum commutator equals; the defect
decays at second order in h on the seam-free interior of the grid.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO, Tuple

import numpy as np

from .errors import DimensionError, ParameterError
from .lattice import LatticeElement, linverse, lmul

MAX_GRID_POINTS = 2**20
IDENTITY_TOL = 1e-12  # is_identity_operator: max deviation on a basis function


@dataclass(frozen=True)
class GridSpec:
    """Discretization data: dimension n, N samples per axis, period L."""

    n: int
    N: int
    L: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("n must be >= 1")
        if self.N < 2:
            raise ParameterError("N must be >= 2")
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ParameterError("L must be positive and finite")
        if self.N**self.n > MAX_GRID_POINTS:
            raise ParameterError(
                f"grid with N^n = {self.N**self.n} points exceeds the {MAX_GRID_POINTS} guard"
            )

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.N,) * self.n


class GridFunction:
    """Complex samples over the periodic grid; immutable after construction."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values):
        arr = np.asarray(values, dtype=np.complex128)
        if arr.size == spec.N**spec.n and arr.ndim == 1:
            arr = arr.reshape(spec.shape)
        if arr.shape != spec.shape:
            raise DimensionError(
                f"values have shape {arr.shape}, expected {spec.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ParameterError("grid samples must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        self.spec = spec
        self.values = arr

    @classmethod
    def _wrap(cls, spec: GridSpec, arr: np.ndarray) -> "GridFunction":
        """Adopt a freshly computed array without copying or re-validating.

        Only for operator outputs: the array must be owned by the caller and
        already have the grid's shape.
        """
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj.spec = spec
        obj.values = arr
        return obj

    @staticmethod
    def basis(spec: GridSpec, flat_index: int) -> "GridFunction":
        v = np.zeros(spec.shape, dtype=np.complex128)
        v.flat[flat_index] = 1.0
        return GridFunction(spec, v)

    def max_abs_diff(self, other: "GridFunction") -> float:
        if self.spec is not other.spec and self.spec != other.spec:
            raise DimensionError("grid functions live on different grids")
        return float(np.maximum.reduce(np.abs(self.values - other.values), axis=None))


def _check_vec(v: Sequence, n: int, name: str, kind: Callable = operator.index) -> Tuple:
    """v as a tuple of n Python numbers: integers (numpy ones too) unless
    `kind` is float.  A non-integer is refused, never truncated."""
    try:
        length = len(v)
    except TypeError:
        length = None
    if length != n:
        raise DimensionError(f"{name} must be an n-vector of length {n}, got shape {np.shape(v)}")
    try:
        return tuple(map(kind, v))
    except (TypeError, ValueError):
        noun = "numbers" if kind is float else "integers"
        raise ParameterError(f"{name} must have {noun} as components, got {v!r}") from None


@functools.lru_cache(maxsize=16)
def _tables(n: int, N: int) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Phase and index tables for the grid (n, N): 3 N numbers, built once.

    roots[k] = exp(2 pi i k / N) for k < N.  cyclic[k] = k mod N for k < 2 N,
    so cyclic[N - s : 2 N - s] is (j - s) mod N over j < N.  axes[a] is a view
    of 0..N-1 laid along axis a, broadcastable against the grid shape, so
    sum_a q_a axes[a] is q . j over all multi-indices j.
    """
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    cyclic = np.arange(2 * N) % N
    # shared by every caller: frozen so that no caller can corrupt the cache
    roots.setflags(write=False)
    cyclic.setflags(write=False)
    axes = tuple(cyclic[:N].reshape((N,) + (1,) * (n - 1 - a)) for a in range(n))
    return roots, cyclic, axes


def apply_T(p: Sequence[int], f: GridFunction) -> GridFunction:
    """Cyclic translation: out[j] = f[j - p mod N].  An exact permutation.

    Axis a is gathered at the slice of cyclic indices (j - p_a) mod N."""
    N = f.spec.N
    _, cyclic, _ = _tables(f.spec.n, N)
    out = f.values
    for axis, shift in enumerate(_check_vec(p, f.spec.n, "p")):
        k = shift % N
        if k:
            out = out.take(cyclic[N - k:2 * N - k], axis=axis)
    return GridFunction._wrap(f.spec, out.copy() if out is f.values else out)


def apply_U(q: Sequence[int], f: GridFunction) -> GridFunction:
    """Modulation: multiply sample j by exp(2 pi i (q . j) / N).

    The phase is the table lookup roots[(q . j) mod N] into the N-th roots
    cached per (n, N), so the exponent is reduced mod N before any rounding."""
    spec = f.spec
    N = spec.N
    roots, _, axes = _tables(spec.n, N)
    qv = _check_vec(q, spec.n, "q")
    index = axes[0] * (qv[0] % N)
    for axis, qa in zip(axes[1:], qv[1:]):
        index = index + axis * (qa % N)
    index %= N
    return GridFunction._wrap(spec, roots[index] * f.values)


def apply_C(alpha: complex, f: GridFunction) -> GridFunction:
    """Multiplication by a unimodular scalar."""
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise ParameterError(f"alpha must have unit modulus, got |alpha| = {abs(alpha)}")
    return GridFunction._wrap(f.spec, alpha * f.values)


def weyl_alpha(p: Sequence[int], q: Sequence[int], spec: GridSpec) -> complex:
    """The scalar exp(2 pi i (q . p) / N) with U o T = T o U o C_alpha."""
    pv = _check_vec(p, spec.n, "p")
    qv = _check_vec(q, spec.n, "q")
    roots, _, _ = _tables(spec.n, spec.N)
    return complex(roots[sum(a * b for a, b in zip(qv, pv)) % spec.N])


# --- the representation -----------------------------------------------------

# A grid triple (p, q, s) is the H_n(Z) element (k, l, m); the names stay for callers.
QuantizedTriple = LatticeElement
triple_mul = lmul
triple_inverse = linverse


def rep(g: LatticeElement, spec: GridSpec) -> Callable[[GridFunction], GridFunction]:
    """The operator T_p o U_q o C_alpha with alpha = exp(2 pi i s / N), where
    (p, q, s) = (g.k, g.l, g.m).

    Matrix-free: returns a function applying the permutation, the diagonal
    phase and the scalar in turn.
    """
    if g.n != spec.n:
        raise DimensionError(f"triple has dimension {g.n}, grid has {spec.n}")
    roots, _, _ = _tables(spec.n, spec.N)
    alpha = complex(roots[g.m % spec.N])

    def operator(f: GridFunction) -> GridFunction:
        return apply_T(g.k, apply_U(g.l, apply_C(alpha, f)))

    return operator


def dense_matrix(op: Callable[[GridFunction], GridFunction], spec: GridSpec) -> np.ndarray:
    """Materialize an operator as a dense matrix (small grids only)."""
    size = spec.N**spec.n
    if size > 256:
        raise ParameterError(f"dense materialization limited to 256 points, got {size}")
    cols = [op(GridFunction.basis(spec, j)).values.ravel() for j in range(size)]
    return np.stack(cols, axis=1)


def is_identity_operator(op: Callable[[GridFunction], GridFunction], spec: GridSpec) -> bool:
    """Check op = id on the full standard basis of grid functions."""
    size = spec.N**spec.n
    for j in range(size):
        e = GridFunction.basis(spec, j)
        if op(e).max_abs_diff(e) > IDENTITY_TOL:
            return False
    return True


# --- differentiation / multiplication commutator ----------------------------

def directional_difference(nu: Sequence[float], f: GridFunction) -> GridFunction:
    """Central-difference directional derivative with weights nu.

    Per axis: (f(w + h e_a) - f(w - h e_a)) / (2 h), combined with weights
    nu_a; second-order accurate on smooth periodic samples.
    """
    nv = _check_vec(nu, f.spec.n, "nu", float)
    h = f.spec.h
    out = np.zeros(f.spec.shape, dtype=np.complex128)
    for axis in range(f.spec.n):
        if nv[axis] == 0.0:
            continue
        forward = np.roll(f.values, -1, axis=axis)
        backward = np.roll(f.values, 1, axis=axis)
        out = out + nv[axis] * (forward - backward) / (2.0 * h)
    return GridFunction(f.spec, out)


def coordinate_multiply(u: Sequence[float], f: GridFunction) -> GridFunction:
    """Multiply by the linear functional w -> w . u evaluated at grid coordinates."""
    uv = _check_vec(u, f.spec.n, "u", float)
    spec = f.spec
    _, _, axes = _tables(spec.n, spec.N)
    mu = np.zeros(spec.shape)
    for ua, axis in zip(uv, axes):
        mu = mu + ua * axis * spec.h
    return GridFunction(spec, mu * f.values)


def commutator_defect(nu: Sequence[float], u: Sequence[float], f: GridFunction) -> float:
    """Max interior deviation of the discrete [D_nu, M_mu] f from (nu . u) f.

    The coordinate functional is not periodic, so points whose difference
    stencil crosses the wrap seam are excluded (a margin of
    max(1, ceil(max |nu_a|)) samples on each side of every axis).
    """
    nv = _check_vec(nu, f.spec.n, "nu", float)
    uv = _check_vec(u, f.spec.n, "u", float)
    d_of_m = directional_difference(nv, coordinate_multiply(uv, f))
    m_of_d = coordinate_multiply(uv, directional_difference(nv, f))
    expected = float(np.dot(nv, uv)) * f.values
    defect = np.abs(d_of_m.values - m_of_d.values - expected)
    margin = max(1, math.ceil(float(np.max(np.abs(nv)))))
    if 2 * margin >= f.spec.N:
        raise ParameterError("grid too small for the seam-exclusion margin")
    interior = tuple(slice(margin, f.spec.N - margin) for _ in range(f.spec.n))
    return float(np.max(defect[interior]))


# --- text serialization -----------------------------------------------------

def write_grid_function(f: GridFunction, stream: TextIO) -> None:
    """Header `n N L`, then one `re im` sample per line, row-major."""
    spec = f.spec
    stream.write(f"{spec.n} {spec.N} {spec.L:.17g}\n")
    for v in f.values.ravel():
        stream.write(f"{v.real:.17g} {v.imag:.17g}\n")


def read_grid_function(stream: TextIO) -> GridFunction:
    """Read what `write_grid_function` writes; a malformed file raises ParameterError."""
    try:
        header = stream.readline().split()
        if len(header) != 3:
            raise ParameterError("malformed grid function file: the header must be `n N L`")
        n, N, L = int(header[0]), int(header[1]), float(header[2])
        spec = GridSpec(n, N, L)
        values = []
        for line in stream:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParameterError(f"expected `re im`, got {line.strip()!r}")
            values.append(complex(float(parts[0]), float(parts[1])))
    except ValueError as exc:
        raise ParameterError(f"malformed grid function file: {exc}") from None
    if len(values) != N**n:
        raise ParameterError(f"expected {N**n} samples, got {len(values)}")
    return GridFunction(spec, np.array(values))
