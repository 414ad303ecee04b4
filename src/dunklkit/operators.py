"""Compact operators in the spectral basis: conjugation by the oscillator
flow, Schatten norms, one adjoint pair between operators and grid functions,
and mixed position-momentum operators.

The pair is ``density`` and ``multiplication_matrix``, each with optional
shell phases.  At ``flow_phases`` of t and tau times those of -t, for a time
rule (t, tau), tr(gamma B_V) = sum_t tau_t sum_k w_k V_t rho_{gamma(t)}, with
B_V = sum_t tau_t e^{itH} V_t e^{-itH} and gamma(t) = e^{-itH} gamma e^{itH}.

Everything is dense: operators are square matrices A with entries
A_{mu nu} = <A phi_nu, phi_mu>_kappa in the truncated orthonormal basis.
Schatten norms come from one SVD, or, for a self-adjoint operator that
commutes with the reflections x_j -> -x_j of the group Z_2^d, from the
eigenvalues of its parity blocks, given as those blocks alone: phi_mu has
parity (-1)^{mu_j} in x_j, so such an operator is zero between rows of
different mu mod 2 (``parity_blocks``).  The oscillator flow,
multiplication by a function even in every x_j, and their products and
time averages are such operators.  The momentum operator is p = -iT (T the Dunkl gradient).  As
i[H, x_j] = 2 p_j and i[H, p_j] = -2 x_j, the oscillator flow rotates phase
space,

    e^{-itH} f(x) e^{itH} = f(x cos 2t - p sin 2t),

so every f(alpha x + beta p) is one oscillator conjugate of a multiplication
operator.  It is exact in the truncated basis: the projection onto the box
commutes with H, so conjugating the projected f(r x) is projecting the
conjugated one.

No routine forms the dense (M, K) table of basis values on the grid: the
basis is a box of multi-indices on a tensor grid, so phi_mu(x_k) =
prod_j phi_{mu_j}(x_{k_j}), and every sum over the grid of phi_mu phi_nu
times a function of the shell |mu| - |nu| is contracted one axis at a time
against the products phi_m phi_l of the axis's 1-D functions (sum
factorization).  Each axis carries the degree offset that the later axes
still owe and takes 2N + 1 products, one per value of mu_j - nu_j.  The
step that widens, (N + 1)^2 pairs of an axis for its 2 order nodes with
all 2N + 1 offsets still carried, is the last axis of ``_shells_to_pairs``
and the first axis contracted by ``_pairs_to_shells``: held whole it is
4.6 times the (M, M) operator at d = 3, N = 16, grid order 20.  Both
kernels follow one plan instead (``_chunks``): the diagonals mu_0 - nu_0 of
the first axis, in order, in chunks of whole diagonals, each chunk as large
as keeps its widest state within the larger of the kernel's input and
output.  That bound is the same for a kernel and its adjoint, and so are
the shapes of a chunk's states.  ``_shells_to_pairs`` carries a chunk
through every later axis and puts it at its entries; ``_pairs_to_shells``
gathers a chunk's entries, contracts the later axes and adds the first
axis's products into its output one diagonal at a time.  Every product and
every sum over the diagonals is the one the whole state would take, in the
same order, so the chunks change no bit.

A static function, as in a multiplication matrix or a static density, is
the same on every shell: its shell axis is one wide, as in numpy
broadcasting, and every product reads or writes that one shell, so no
offset is carried.
The density of an evolved self-adjoint operator is one real pass too: its
shell densities satisfy G_{-n} = conj G_n, so real weights on the shells of
Re A + Im A give it.  The flow goes by shells too: e^{-itH} A e^{itH}
multiplies entry (mu, nu) by the phase e^{-2int} of n = |mu| - |nu| alone
(``flow_phases``, put on an operator by ``apply_shells``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .hermite import HermiteBasis
from .quadrature import lp_norm, weighted_lp_norm

__all__ = [
    "flow_phases",
    "apply_shells",
    "conjugate",
    "parity_blocks",
    "schatten_norm",
    "multiplication_matrix",
    "density",
    "mixed_xp_operator",
    "kss_check",
]


def flow_phases(basis: HermiteBasis, t) -> np.ndarray:
    """The phases c_n = e^{-2int} that e^{-itH} . e^{itH} puts on the shell
    n = |mu| - |nu|, n = -dN..dN: shape (*t.shape, 2 d N + 1).  They are
    formed for n >= 0 and mirrored by conjugation, c_{-n} = conj c_n."""
    top = basis.structure.d * basis.per_dim_degree
    half = np.exp(-2j * np.multiply.outer(np.asarray(t, dtype=float), np.arange(top + 1)))
    return np.concatenate([half[..., :0:-1].conj(), half], axis=-1)


def apply_shells(basis: HermiteBasis, a, c, rows=None) -> np.ndarray:
    """a_{mu nu} c_{|mu| - |nu|} for shell values c (..., 2 d N + 1),
    n = -dN..dN, and an (M, M) operator or a matching (..., M, M) stack.
    With ``rows``, an index array of basis rows, ``a`` is the diagonal block
    of those rows, such as one of ``parity_blocks``."""
    degree = basis.multi_indices.sum(axis=1)
    if rows is not None:
        degree = degree[rows]
    top = basis.structure.d * basis.per_dim_degree
    # in place at every size: numpy reuses a temporary above 256 KiB as the
    # output, and its in-place loop can round differently, so a stack would
    # not match its single calls bit for bit
    out = np.take(c, top + degree[:, None] - degree[None, :], axis=-1)
    out *= a
    return out


def conjugate(basis: HermiteBasis, a, t) -> np.ndarray:
    """e^{-itH} A e^{itH} for H the oscillator, with A a matrix in the basis.

    Exact: entry (mu, nu) is multiplied by the flow phase of its shell,
    e^{-2it(|mu| - |nu|)}.  A multiplication operator f(x) goes to
    f(x cos 2t - p sin 2t), a rotation of phase space by the angle -2t.  An
    array of times gives one conjugate per time on a leading axis, of one
    matrix or of a matching stack.
    """
    return apply_shells(basis, a, flow_phases(basis, t))


def parity_blocks(basis: HermiteBasis) -> list[np.ndarray]:
    """The basis rows grouped by mu mod 2 on every axis: up to 2^d index
    arrays, in ascending order, with the empty ones left out.  An operator
    that commutes with every axis reflection x_j -> -x_j is zero off the
    diagonal blocks they index."""
    d = basis.structure.d
    parity = (basis.multi_indices % 2) @ (1 << np.arange(d))
    blocks = (np.flatnonzero(parity == k) for k in range(2 ** d))
    return [rows for rows in blocks if rows.size]


def schatten_norm(a, p, blocks=None):
    """Schatten p-norm, the ``lp_norm`` of the singular values; p = inf gives
    the largest.  A (T, M, M) stack gives one norm per matrix.  A 1-D
    sequence of exponents gives one norm per exponent, on a leading axis,
    all from one decomposition.

    Without ``blocks`` the singular values come from one SVD of ``a``.  With
    ``blocks``, index arrays of the rows such as ``parity_blocks``, ``a`` is
    a self-adjoint operator that is zero off the diagonal blocks they index,
    given as those blocks alone: the m_b^2 entries of each block, row by
    row, one block after the other, on the last axis of an (..., sum of
    m_b^2) array.  The caller knows from the operator's symmetry that
    nothing is left out (nothing here infers it from the data), and no
    entry off the blocks is read or formed: the singular values are the
    |eigenvalues| of the blocks, one ``eigvalsh`` each.
    """
    if blocks is None:
        sv = np.linalg.svd(a, compute_uv=False)
    else:
        a = np.asarray(a)
        ends = np.cumsum([rows.size ** 2 for rows in blocks])
        if a.shape[-1:] != (ends[-1],):
            raise ValueError(f"expected the {ends[-1]} entries of the blocks on the last axis, "
                             f"got shape {a.shape}")
        sv = np.abs(np.concatenate(
            [np.linalg.eigvalsh(part.reshape(*part.shape[:-1], rows.size, rows.size))
             for rows, part in zip(blocks, np.split(a, ends[:-1], axis=-1))], axis=-1))
    return lp_norm(sv, 1.0, p)


def multiplication_matrix(basis: HermiteBasis, samples, phases=None) -> np.ndarray:
    """Matrix of multiplication by V from its samples on the basis grid,
    sum_k w_k V(x_k) phi_mu(x_k) phi_nu(x_k), with the grid weights w.

    Exact when V times two basis functions is integrated exactly by the grid
    rule, i.e. for polynomially-bounded V of modest degree.  Without phases,
    samples of shape (T, K) give a (T, M, M) stack, one matrix per row: w V
    on a one-wide shell axis.  With (T, 2 d N + 1) phases c, (T, K) samples
    V give one (M, M) operator, sum_t ``apply_shells`` of c_t on the matrix
    of V_t: the harmonics sum_t c_{tn} V_t times w on the shells n.  With
    c = tau ``flow_phases`` at -t, for a time rule (t, tau), this is
    B_V = sum_t tau_t e^{itH} V_t e^{-itH}, whose Schatten-2q' norm is the
    dual functional, and the adjoint of ``density`` (module docstring).
    Either way ``_shells_to_pairs`` takes the real and then the imaginary
    part and writes each straight into B.
    """
    v = np.asarray(samples)
    if v.ndim not in (1, 2) or v.shape[-1] != basis.grid.npoints:
        raise ValueError(f"expected {basis.grid.npoints} samples per row, got {v.shape}")
    w = basis.grid.weights
    if phases is None:
        # every shell alike: one shell wide, and no imaginary part for a real V
        b = np.empty((*v.shape[:-1], basis.size, basis.size),
                     dtype=complex if np.iscomplexobj(v) else float)
        parts = ((w * p)[..., None, :] for p in ((v.real, v.imag) if np.iscomplexobj(v) else (v,)))
    else:
        c = np.asarray(phases).T
        shells = 2 * basis.structure.d * basis.per_dim_degree + 1
        if v.ndim != 2 or c.shape != (shells, v.shape[0]) or not (
                np.isfinite(c).all() and np.isfinite(v).all()):
            raise ValueError(f"phases must be finite, one row of {shells} per row of finite "
                             f"(T, K) samples: got {np.shape(phases)} and {v.shape}")

        def harmonics(c):
            """Re sum_t c_{nt} V_t times w, from real products: a complex
            product would copy a real V to complex."""
            h = c.real @ v.real
            if np.iscomplexobj(v):
                h -= c.imag @ v.imag
            h *= w
            return h

        # the real harmonics, then the imaginary ones as Im z = Re(-iz)
        b = np.empty((basis.size, basis.size), dtype=complex)
        parts = (harmonics(z * c) for z in (1, -1j))
    for out, h in zip((b.real, b.imag) if np.iscomplexobj(b) else (b,), parts):
        _shells_to_pairs(basis, h, out)
    return b


def density(basis: HermiteBasis, a, phases=None) -> np.ndarray:
    """Samples on the basis grid of Re sum_n c_n G_n, with the shell
    densities G_n = sum over |mu| - |nu| = n of a_{mu nu} phi_mu phi_nu,
    n = -dN..dN.

    Without phases, every c_n is 1: this is rho_A(x) = Re sum_{mu nu}
    A_{mu nu} phi_mu(x) phi_nu(x) (exact for self-adjoint A since the basis
    is real), and a (T, M, M) stack gives (T, K) samples.  With phases,
    ``a`` is one self-adjoint (M, M) operator, or an (S, M, M) stack of them
    each checked on its own scale, and the (..., 2 d N + 1) ``phases`` are c
    with c_{-n} = conj c_n; they give (..., K) samples, (S, ..., K) for a
    stack.  As G_{-n} = conj G_n for self-adjoint A, the odd parts cancel
    and Re sum_n c_n G_n = sum_n h_n G_n(Re A + Im A) with the real
    h = Re c - Im c: one real shell pass of the stack and one broadcast
    product, each slice bit for bit its own call.  ``flow_phases`` at t give
    the density of e^{-itH} A e^{itH}; the adjoint of
    ``multiplication_matrix`` with phases.
    """
    if phases is None:
        return _pairs_to_shells(basis, np.real(a), static=True)[..., 0, :]
    a, c = np.asarray(a), np.asarray(phases)
    if a.ndim not in (2, 3) or a.shape[-2:] != (basis.size, basis.size):
        raise ValueError(f"expected a {basis.size} x {basis.size} operator or stack, "
                         f"got {a.shape}")
    shells = 2 * basis.structure.d * basis.per_dim_degree + 1
    # c_{-n} = conj c_n for every n is h_{-n} = Re c_n + Im c_n for every n
    h = c.real - c.imag
    if c.shape[-1:] != (shells,) or (
            np.abs(h[..., ::-1] - (c.real + c.imag)).max() > 1e-10 * abs(h).max()):
        raise ValueError(f"phases must be {shells} per row with c_(-n) = conj c_n")
    # a^H - a, not a - a^H: numpy then reuses the temporary a^H for the difference
    skew = np.abs(np.swapaxes(a, -1, -2).conj() - a).max(axis=(-2, -1))
    if np.any(skew > 1e-10 * np.abs(a).max(axis=(-2, -1))):
        raise ValueError("operator is not self-adjoint")
    g = _pairs_to_shells(basis, a.real + a.imag)
    # each operator's shells meet every row of phases: (S, 1, ..., 2 d N + 1, K)
    return h @ g.reshape(*a.shape[:-2], *(1,) * (c.ndim - 2), *g.shape[-2:])


def _diagonals(phi):
    """(delta, rows, pairs) for each per-axis offset delta = -N..N, from the
    (N + 1, nodes) table phi of one axis: the rows of a ((N + 1)^2, ...)
    array of pairs (m, l), row m (N + 1) + l, with m - l = delta, as a plain
    slice (so the rows are a view), and phi_m phi_l at the nodes for those
    pairs.  No (N + 1)^2 x nodes table of all the pairs is formed."""
    n = phi.shape[0] - 1
    for delta in range(-n, n + 1):
        # the first pair on the diagonal
        m, l = max(delta, 0), max(-delta, 0)
        start = m * (n + 1) + l
        rows = slice(start, start + (n - m - l) * (n + 2) + 1, n + 2)
        yield delta, rows, phi[m:n + 1 - l] * phi[l:n + 1 - m]


def _box_index(basis: HermiteBasis, deltas=None):
    """(rows, cols): index arrays that pick, from a (..., M, M) array, the
    entries of pairs of multi-indices of the box laid out by their per-axis
    pairs.  With ``deltas``, diagonals mu_0 - nu_0 = m - l of the first axis,
    they pick the pairs (m + i, l + i) of each diagonal in turn, as
    (..., pairs_0, mu_1, nu_1, ..., mu_{d-1}, nu_{d-1}); without, every pair
    in box order, (..., mu_0, nu_0, mu_1, nu_1, ...).  The index arrays
    broadcast, so no array of indices the size of the entries is formed."""
    size, d = basis.per_dim_degree + 1, basis.structure.d
    place = np.empty((size,) * d, dtype=np.intp)
    place[tuple(basis.multi_indices.T)] = np.arange(basis.size)
    rows = place.reshape(size, *(size, 1) * (d - 1))
    cols = place.reshape(size, *(1, size) * (d - 1))
    if deltas is None:
        return rows[:, None], cols[None]
    return tuple(np.concatenate([side[max(sign * delta, 0):][:size - abs(delta)]
                                 for delta in deltas])
                 for side, sign in ((rows, 1), (cols, -1)))


def _chunks(basis: HermiteBasis, shift: int, bound: int) -> list[list[int]]:
    """The one plan of both shell kernels: the diagonals mu_0 - nu_0 = -N..N
    of the first axis, in order, in chunks of whole diagonals.  A chunk takes
    as many pairs of the first axis as keep its widest state within
    ``bound`` entries per stack row, or one diagonal if even that does not
    fit.  Per pair of the first axis, a chunk's state between axes j and
    j + 1 holds 1 + 2N shift (d - 1 - j) offsets (``shift`` is 0 for a
    one-wide shell axis, else 1) of the pairs of axes 1..j at the nodes of
    axes j + 1..d - 1: after axis j in ``_shells_to_pairs``, and once axes
    d - 1..j + 1 are contracted in ``_pairs_to_shells``."""
    n = basis.per_dim_degree
    nodes = [phi.shape[1] for phi in basis.axis_tables]
    d = len(nodes)
    widest = max((1 + 2 * n * shift * (d - 1 - j)) * (n + 1) ** (2 * j) * math.prod(nodes[j + 1:])
                 for j in range(d))
    fit, chunks, count = bound // widest, [], 0
    for delta in range(-n, n + 1):
        count += n + 1 - abs(delta)
        if not chunks or count > fit:
            chunks.append([])
            count = n + 1 - abs(delta)
        chunks[-1].append(delta)
    return chunks


def _shells_to_pairs(basis: HermiteBasis, h, out=None) -> np.ndarray:
    """sum_k phi_mu(x_k) phi_nu(x_k) h_{|mu|-|nu|}(x_k) for real samples h of
    the shells n = -dN..dN on the basis grid, (..., 2 d N + 1, K), or of one
    function on every shell, (..., 1, K): a real (..., M, M) stack, by sum
    factorization, written into ``out`` (such as the real or imaginary part
    of a complex array) when it is given.

    Axis j turns the pairs (mu_j, nu_j) and the offset n - sum_{i<=j}
    (mu_i - nu_i) that the later axes still owe into one product per value of
    mu_j - nu_j, 2N + 1 of them, each over the 2 order_j nodes of the axis:
    about (N + 1)^2 (2 (d - 1) N + 1) K work for the first axis, less for
    the others, against M^2 K from a dense table; a one-wide shell axis owes
    no offset and stays one wide.  Each axis widens the state, (N + 1)^2
    pairs for 2 order_j nodes, while the offsets shrink by 2N only: before
    the last axis it is (2N + 1) (N + 1)^{2(d-1)} K_{d-1} entries, 4.6 times
    the output at d = 3, N = 16, grid order 20.  So the kernel goes depth
    first, by the chunks of ``_chunks``: a chunk of whole diagonals
    mu_0 - nu_0 of the first axis is carried through every later axis and
    put at its entries (mu, nu) before the next chunk is formed.  Each
    product is the one the whole state would take, so the result does not
    depend on the chunks.  The stack is the outermost batch axis of every
    product, so each row takes the products it would take alone.
    """
    n = basis.per_dim_degree
    shift = int(h.shape[-2] > 1)
    first_axis, *later = basis.axis_tables
    # before axis j: (stack, offset, pairs_0, ..., pairs_{j-1}, K_j, ..., K_{d-1})
    state = h.reshape(-1, h.shape[-2], *(phi.shape[1] for phi in basis.axis_tables))
    stack, width, tail = state.shape[0], state.shape[1] - 2 * n * shift, state.shape[3:]
    if out is None:
        out = np.empty((*h.shape[:-2], basis.size, basis.size))
    src = state.reshape(stack, state.shape[1], first_axis.shape[1], -1)
    # one pass over the diagonals, each formed as its chunk comes
    diagonals = _diagonals(first_axis)
    for deltas in _chunks(basis, shift, max(state.size, out.size) // stack):
        chunk = np.empty((stack, width, sum(n + 1 - abs(delta) for delta in deltas),
                          math.prod(tail)))
        count = 0
        for delta, _, pairs in itertools.islice(diagonals, len(deltas)):
            first = shift * (n + delta)
            np.matmul(pairs, src[:, first:first + width], out=chunk[:, :, count:count + len(pairs)])
            count += len(pairs)
        chunk = chunk.reshape(stack, width, count, *tail)
        for j, phi in enumerate(later, 1):
            step_tail = chunk.shape[j + 3:]
            step_width = chunk.shape[1] - 2 * n * shift
            step = np.empty((stack, step_width, *chunk.shape[2:j + 2], (n + 1) ** 2, *step_tail))
            flat = step.reshape(stack, -1, (n + 1) ** 2, math.prod(step_tail))
            for delta, rows, pairs in _diagonals(phi):
                first = shift * (n + delta)
                flat[:, :, rows] = pairs @ chunk[:, first:first + step_width].reshape(
                    *flat.shape[:2], chunk.shape[j + 2], -1
                )
            chunk = step
        entries = _box_index(basis, deltas)
        out[(..., *entries)] = chunk.reshape(*h.shape[:-2], *np.broadcast_shapes(*(
            e.shape for e in entries)))
    return out


def _pairs_to_shells(basis: HermiteBasis, a, static=False) -> np.ndarray:
    """The adjoint of ``_shells_to_pairs``: sum over |mu| - |nu| = n of
    a_{mu nu} phi_mu phi_nu on the basis grid, n = -dN..dN, for a real
    (..., M, M) stack a: (..., 2 d N + 1, K), by the same per-axis products
    in reverse.  ``static`` sums over the shells as it goes: (..., 1, K).

    It is the mirror of ``_shells_to_pairs`` on the same chunks: for each,
    in order, it gathers the entries of the chunk's pairs, contracts axes
    d - 1..1, whose states have the shapes the forward kernel's have, and
    adds the first axis's products into the output one diagonal at a time.
    Each entry of the output then takes its sum over the diagonals in the
    order the whole state would, so the chunks change no bit.  A plan of
    one chunk gathers every pair in box order, so that the rows of each
    diagonal are the strided slice ``_diagonals`` gives, as in the whole
    state: at d = 1 a contiguous (L, 1) operand takes another product path
    and differs in the last bit.
    """
    n = basis.per_dim_degree
    shift = 0 if static else 1
    first_axis, *later = basis.axis_tables
    stack_shape = np.shape(a)[:-2]
    a = np.reshape(a, (-1, basis.size, basis.size))
    stack = a.shape[0]
    out = np.zeros((stack, 2 * basis.structure.d * n * shift + 1, first_axis.shape[1],
                    math.prod(phi.shape[1] for phi in later)))
    chunks = _chunks(basis, shift, max(basis.size ** 2, out[0].size))
    whole = len(chunks) == 1
    # one pass over the diagonals, each taken as its chunk comes
    diagonals = _diagonals(first_axis)
    for deltas in chunks:
        # once axes d-1..j+1 are contracted:
        # (stack, offset, pairs_0, ..., pairs_j, K_{j+1}, ..., K_{d-1})
        state = a[(..., *_box_index(basis, None if whole else deltas))].reshape(
            stack, 1, -1, *((n + 1) ** 2,) * len(later))
        for j in range(len(later), 0, -1):
            phi, width, tail = basis.axis_tables[j], state.shape[1], state.shape[j + 3:]
            step = np.zeros((stack, width + 2 * n * shift, *state.shape[2:j + 2], phi.shape[1],
                             *tail))
            for delta, rows, pairs in _diagonals(phi):
                # a slice of whole offsets of a fresh array: the reshape is a view
                first = shift * (n + delta)
                target = step[:, first:first + width].reshape(stack, -1, phi.shape[1],
                                                              math.prod(tail))
                target += pairs.T @ state.reshape(*target.shape[:2], (n + 1) ** 2, -1)[:, :, rows]
            state = step
        count = 0
        for delta, rows, pairs in itertools.islice(diagonals, len(deltas)):
            if not whole:
                rows, count = slice(count, count + len(pairs)), count + len(pairs)
            first = shift * (n + delta)
            out[:, first:first + state.shape[1]] += pairs.T @ state.reshape(
                *state.shape[:3], -1)[:, :, rows]
    return out.reshape(*stack_shape, out.shape[1], -1)


def mixed_xp_operator(basis: HermiteBasis, f, alpha: float, beta: float) -> np.ndarray:
    """Matrix of f(alpha x + beta p) with p = -iT, for a profile f on R^d.

    ``f`` maps point arrays (n, d) -- or flat arrays when d = 1 -- to values.
    Write alpha + i beta = r e^{i theta}, with r = hypot(alpha, beta) and
    theta = arctan2(beta, alpha) in [-pi, pi].  Then alpha x + beta p =
    r (x cos theta + p sin theta) is the oscillator conjugate of r x at
    t = -theta / 2, so the operator is ``conjugate`` of the multiplication by
    f(r x) at that time, exact in the truncated basis.  theta = 0 is the
    plain multiplication operator; at theta = pi/2 the flow sends phi_mu to
    (-i)^{|mu|} phi_mu up to a global phase, the Dunkl transform on the
    basis, which turns f(x) into f(p).
    """
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("alpha and beta cannot both vanish")
    samples = np.asarray(f(np.hypot(alpha, beta) * basis.grid.nodes), dtype=complex)
    theta = np.arctan2(beta, alpha)
    return conjugate(basis, multiplication_matrix(basis, samples), -theta / 2.0)


def kss_check(basis, f, g, alpha, beta, gamma, delta, r):
    """Schatten-r norm of f(alpha x + beta p) g(gamma x + delta p) against the
    scaling bound M_kappa^{2/r} ||f||_r ||g||_r / |alpha delta - beta gamma|^{d_eff/r}.

    Returns (lhs, rhs); r = inf uses sup-norms on the grid and no determinant
    factor.
    """
    det = alpha * delta - beta * gamma
    if det == 0.0:
        raise ValueError("degenerate symplectic determinant")
    a = mixed_xp_operator(basis, f, alpha, beta)
    b = mixed_xp_operator(basis, g, gamma, delta)
    lhs = schatten_norm(a @ b, r)
    s = basis.structure
    grid = basis.grid
    fv = np.asarray(f(grid.nodes))
    gv = np.asarray(g(grid.nodes))
    rhs = (
        s.m_kappa ** (2.0 / r)
        * weighted_lp_norm(grid, fv, r)
        * weighted_lp_norm(grid, gv, r)
        / np.abs(det) ** (s.d_eff / r)
    )
    return lhs, rhs
