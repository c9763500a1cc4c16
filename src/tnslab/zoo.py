"""Concrete state and operator families: W states and their uniform-tensor
representations, the two-domain family on a ring, physical-leg fine-graining,
the AKLT tensor, and the bilinear-biquadratic spin-1 chain.

Basis bookkeeping: physical labels are 0-indexed, so the literature's |1> is
index 0 and |2> is index 1.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError
from .mps_obc import MpsObc
from .mps_pbc import MpsPbc, chain_network
from .peps import pair_tensor, pair_weights
from .tensors import NOISE_TOL, DenseTensor, as_array, check_capacity, check_state, contract_network


def w_state(n: int, d: int = 2) -> DenseTensor:
    """Normalized equal superposition of the n single-excitation strings."""
    if n < 2:
        raise ValueError("w_state needs n >= 2")
    if d < 2:
        raise ValueError("w_state needs d >= 2")
    check_state(d ** n)
    arr = np.zeros((d,) * n, dtype=np.complex128)
    amp = 1.0 / math.sqrt(n)
    for j in range(n):
        idx = [0] * n
        idx[j] = 1
        arr[tuple(idx)] = amp
    return DenseTensor(arr)


def psi_w(n: int, eps: float) -> DenseTensor:
    """Product-minus-product deformation of the W state.

    The state is (|phi>^n - |0...0>)/norm with phi = |0> + eps|1>; its overlap
    with w_state(n) is sqrt(n)*eps/sqrt((1+eps^2)^n - 1), which tends to 1 as
    eps decreases.
    """
    if n < 2:
        raise ValueError("psi_w needs n >= 2")
    if not eps > 0:
        raise ValueError("eps must be positive (eps = 0 collapses to w_state)")
    check_state(2 ** n)
    phi = np.array([1.0, eps], dtype=np.complex128)
    arr = np.array([1.0], dtype=np.complex128)
    for _ in range(n):
        arr = np.kron(arr, phi)
    arr = arr.reshape((2,) * n)
    arr[(0,) * n] -= 1.0
    # expm1/log1p keeps full precision when eps**2 * n is tiny.
    norm = math.sqrt(math.expm1(n * math.log1p(eps * eps)))
    return DenseTensor(arr / norm)


def psi_w_timps_tensor(n: int, eps: float) -> DenseTensor:
    """Single site tensor whose n-fold cyclic trace reproduces psi_w(n, eps).

    Both bond channels are diagonal: one carries |0> + eps|1> and the other
    carries a phase exp(i*pi/n) times |0>, so the all-zero amplitude cancels
    exactly.  Entries scale with the (-1/2n)-th power of (1+eps^2)^n - 1 and
    grow without bound as eps decreases at fixed n.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if not eps > 0:
        raise ValueError("eps must be positive")
    norm = math.expm1(n * math.log1p(eps * eps)) ** (1.0 / (2.0 * n))
    arr = np.zeros((2, 2, 2), dtype=np.complex128)
    arr[0, 0, 0] = 1.0
    arr[1, 0, 0] = eps
    arr[0, 1, 1] = np.exp(1j * np.pi / n)
    return DenseTensor(arr / norm)


def w_obc_mps(n: int) -> MpsObc:
    """Exact open-boundary representation of w_state(n) with bond dimension 2.

    The bond tracks whether the single |1> has already been emitted.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    amp = 1.0 / math.sqrt(n)
    first = np.zeros((2, 1, 2), dtype=np.complex128)
    first[1, 0, 0] = amp
    first[0, 0, 1] = amp
    mid = np.zeros((2, 2, 2), dtype=np.complex128)
    mid[0, 0, 0] = 1.0
    mid[1, 1, 0] = 1.0
    mid[0, 1, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=np.complex128)
    last[0, 0, 0] = 1.0
    last[1, 1, 0] = 1.0
    tensors = [first] + [mid] * (n - 2) + [last]
    return MpsObc(tensors)


def psi_tau_tensors(n: int, m: int, eps: float) -> MpsPbc:
    """Injective ring family interpolating toward the two-domain state.

    Site tensors carry physical pairs (a, b) on matrix units E_ab; the pair
    weight is 1 on the diagonal and eps off it, except on the last site where
    off-diagonal pairs are weighted 1/eps instead.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    if m < 1:
        raise ValueError("bond dimension must be positive")
    if not eps > 0:
        raise ValueError("eps must be positive")
    check_state((m * m) ** n)
    seed = pair_tensor(m * m, (m, m))
    bulk = seed * pair_weights(m, 1.0, eps)
    last = seed * pair_weights(m, 1.0, 1.0 / eps)
    return MpsPbc([bulk] * (n - 1) + [last], translation_invariant=False)


def two_domain_state(n: int, m: int) -> DenseTensor:
    """Unnormalized limit of the psi_tau family as eps -> 0.

    Exactly m + (n-1)*m*(m-1) coefficients equal 1: the m constant strings
    plus every split of the ring into two maximal same-symbol domains whose
    second wall sits on the last bond.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    if m < 1:
        raise ValueError("bond dimension must be positive")
    check_state((m * m) ** n)
    arr = np.zeros(((m * m),) * n, dtype=np.complex128)
    for a in range(m):
        arr[(a * m + a,) * n] = 1.0
    for wall in range(1, n):
        for x in range(m):
            for y in range(m):
                if x == y:
                    continue
                idx = [x * m + x] * (wall - 1) + [x * m + y]
                idx += [y * m + y] * (n - 1 - wall) + [y * m + x]
                arr[tuple(idx)] = 1.0
    return DenseTensor(arr)


class FineGrainSpec:
    """Factorization of one bond leg into smaller legs with diagonal bases.

    For each factor dimension d_i a real orthogonal d_i x d_i matrix Q_i is
    fixed deterministically, with constant first row 1/sqrt(d_i); the rows of
    Q_i are the diagonals of the operator basis D_k, so Tr(D_k D_k') = delta
    and D_1 is the normalized identity.
    """

    __slots__ = ("m", "factors", "diagonal_basis")

    def __init__(self, factors):
        fs = tuple(int(d) for d in factors)
        if not fs or any(d < 1 for d in fs):
            raise ValueError("factors must be positive integers")
        self.factors = fs
        self.m = math.prod(fs)
        self.diagonal_basis = tuple(
            tuple(np.diag(row).copy() for row in _orthogonal_with_flat_first_row(d))
            for d in fs
        )

    def q_matrix(self, i: int) -> np.ndarray:
        """Orthogonal matrix whose k-th row is the diagonal of D_k (0-based i)."""
        return np.array([np.diag(dk) for dk in self.diagonal_basis[i]])


def _orthogonal_with_flat_first_row(d: int) -> np.ndarray:
    rows = [np.full(d, 1.0 / math.sqrt(d))]
    for j in range(d):
        if len(rows) == d:
            break
        v = np.zeros(d)
        v[j] = 1.0
        for r in rows:
            v = v - (r @ v) * r
        nrm = float(np.linalg.norm(v))
        if nrm > NOISE_TOL:
            rows.append(v / nrm)
    return np.array(rows)


def fine_grain_A(alpha: float, beta: float, spec: FineGrainSpec):
    """Split the pair operator alpha*P_diag + beta*P_off over factored legs.

    Returns (u_chain, s_mpo, v_chain).  u_chain[i] has axes (n, n', k) and
    equals delta(n, n') * Q_i[k, n]; v_chain[i] is its bond transpose with
    axes (n, k, n').  s_mpo is a bond-dimension-2 operator chain over the k
    legs whose product is diagonal with value s_1 = m*beta + alpha - beta on
    the all-zero string and alpha - beta elsewhere.
    """
    m = spec.m
    s1 = m * beta + alpha - beta
    t = alpha - beta
    u_chain = []
    v_chain = []
    for i, d in enumerate(spec.factors):
        q = spec.q_matrix(i)
        u = np.zeros((d, d, d), dtype=np.complex128)
        v = np.zeros((d, d, d), dtype=np.complex128)
        for nn in range(d):
            u[nn, nn, :] = q[:, nn]
            v[nn, :, nn] = q[:, nn]
        u_chain.append(DenseTensor(u))
        v_chain.append(DenseTensor(v))
    s_mpo = [DenseTensor(b) for b in _s_mpo_blocks(spec.factors, s1, t)]
    return u_chain, s_mpo, v_chain


def _s_mpo_blocks(factors, s1: float, t: float) -> list[np.ndarray]:
    """Operator-valued matrices multiplying to diag(s) over the k legs.

    The bond records whether every k seen so far was zero; the final site
    emits s1 or t accordingly, so both values appear exactly as given.
    """
    p = len(factors)
    blocks = []
    for i, d in enumerate(factors):
        p0 = np.zeros((d, d), dtype=np.complex128)
        p0[0, 0] = 1.0
        rest = np.eye(d, dtype=np.complex128) - p0
        eye = np.eye(d, dtype=np.complex128)
        if p == 1:
            blk = np.zeros((1, 1, d, d), dtype=np.complex128)
            blk[0, 0] = s1 * p0 + t * rest
        elif i == 0:
            blk = np.zeros((1, 2, d, d), dtype=np.complex128)
            blk[0, 0] = p0
            blk[0, 1] = rest
        elif i < p - 1:
            blk = np.zeros((2, 2, d, d), dtype=np.complex128)
            blk[0, 0] = p0
            blk[0, 1] = rest
            blk[1, 1] = eye
        else:
            blk = np.zeros((2, 1, d, d), dtype=np.complex128)
            blk[0, 0] = s1 * p0 + t * rest
            blk[1, 0] = t * eye
        blocks.append(blk)
    return blocks


def s_values(s_mpo) -> np.ndarray:
    """Diagonal of a contracted s chain, ordered by the flattened k string."""
    sites = [np.einsum("lrkk->klr", as_array(b)) for b in s_mpo]
    return contract_network(*chain_network(sites)).ravel().real


def block_cluster(tensors, grouping) -> DenseTensor:
    """Contract a contiguous run of chain tensors into one site tensor.

    tensors is an ordered list with axes (physical, left, right); grouping
    lists the 0-based positions to merge and must be consecutive.  The result
    has the grouped physical legs flattened row-major and the outer bonds of
    the run.
    """
    idx = [int(g) for g in grouping]
    if not idx:
        raise ValueError("grouping must be nonempty")
    if idx != list(range(idx[0], idx[0] + len(idx))):
        raise ValueError("grouping must be contiguous and ordered")
    if idx[0] < 0 or idx[-1] >= len(tensors):
        raise ValueError("grouping out of range")
    r = len(idx)
    arrays = [as_array(tensors[g]) for g in idx]
    labels = [(k, r + k, r + k + 1) for k in range(r)]
    acc = contract_network(arrays, labels, tuple(range(r)) + (r, 2 * r), cap=None)
    return DenseTensor(acc.reshape((-1,) + acc.shape[r:]))


def fine_grained_psi_tau(n: int, m: int, eps: float, spec: FineGrainSpec):
    """Site tensors of the two-domain family with each leg pair fine-grained.

    Every ring site splits into p = len(spec.factors) chain sites whose
    physical leg carries one factor pair (x, y); grouping each run of p sites
    with block_cluster recovers the psi_tau_tensors site, with the blocked
    physical leg ordered (x_1, y_1, x_2, y_2, ...) where the coarse leg is
    (x_1 x_2 ..., y_1 y_2 ...).  Returns the flat list of n*p tensors, a
    valid `MpsPbc` ring whose bonds within a site are rectangular, so
    `eval_pbc(MpsPbc(...))` evaluates the fine-grained state directly.
    """
    if spec.m != m:
        raise DimensionMismatchError(
            f"spec factors {spec.factors} do not multiply to {m}"
        )
    if n < 3:
        raise ValueError("needs n >= 3")
    if not eps > 0:
        raise ValueError("eps must be positive")
    out = []
    for site in range(n):
        beta = eps if site < n - 1 else 1.0 / eps
        out.extend(_fine_sites(spec, m * beta + 1.0 - beta, 1.0 - beta))
    return out


def _fine_sites(spec: FineGrainSpec, s1: float, t: float) -> list[DenseTensor]:
    """Fine chain tensors for one ring site of the pair-weight family.

    Within a site the bond carries (unconsumed left-symbol digits, emitted
    right-symbol digits, s-chain state); across sites it is the plain m-dim
    ring bond.
    """
    factors = spec.factors
    blocks = _s_mpo_blocks(factors, s1, t)
    sites: list[DenseTensor] = []
    for l, d in enumerate(factors):
        q = spec.q_matrix(l)
        blk = blocks[l]
        g = np.einsum("lrk,kx,ky->lrxy", np.einsum("lrkk->lrk", blk), q, q)
        s_left, s_right = blk.shape[0], blk.shape[1]
        rest = math.prod(factors[l + 1:])   # left-symbol digits after this one
        built = math.prod(factors[:l])      # right-symbol digits before this one
        # legs (x, y | x, xs, yb, s_left | xs, yb, y, s_right); at the first and
        # last site, built, s_left or rest, s_right are 1 and the bond is the ring's
        f = np.zeros((d, d, d, rest, built, s_left, rest, built, d, s_right), dtype=np.complex128)
        x, y, xs, yb = np.ix_(range(d), range(d), range(rest), range(built))
        f[x, y, x, xs, yb, :, xs, yb, y, :] = g.transpose(2, 3, 0, 1)[:, :, None, None]
        sites.append(DenseTensor(f.reshape(d * d, d * rest * built * s_left, -1)))
    return sites


def aklt_tensor() -> DenseTensor:
    """Spin-1 AKLT site tensor, physical order (+1, 0, -1), bond dimension 2."""
    arr = np.zeros((3, 2, 2), dtype=np.complex128)
    arr[0, 0, 1] = math.sqrt(2.0)
    arr[1, 0, 0] = -1.0
    arr[1, 1, 1] = 1.0
    arr[2, 1, 0] = -math.sqrt(2.0)
    return DenseTensor(arr)


def spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) in the descending S_z basis (+1, 0, -1)."""
    sp = math.sqrt(2.0) * np.array(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.complex128
    )
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2j
    sz = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return sx, sy, sz


def blbq_hamiltonian(n: int, theta: float, pbc: bool) -> DenseTensor:
    """Dense bilinear-biquadratic spin-1 chain Hamiltonian.

    H = sum_i cos(theta) S_i.S_{i+1} + sin(theta) (S_i.S_{i+1})^2, with the
    wrap bond included iff pbc.  Its 9^n entries pass the capacity guard.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    check_capacity(9**n, what="Hamiltonian")
    sx, sy, sz = spin1_matrices()
    dim = 3 ** n
    h = np.zeros((dim, dim), dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    pair = sum(np.kron(a, a) for a in (sx, sy, sz))
    for i in range(n - 1):
        term = np.kron(
            np.eye(3 ** i), np.kron(pair, np.eye(3 ** (n - i - 2)))
        )
        h += c * term + s * (term @ term)
    if pbc:
        mid = np.eye(3 ** (n - 2))
        wrap = sum(np.kron(np.kron(a, mid), a) for a in (sx, sy, sz))
        h += c * wrap + s * (wrap @ wrap)
    return DenseTensor(h)
