"""Correctability tests for a noise channel on a subsystem decomposition.

Three equivalent characterizations of when noise E is correctable on factor A
of V = (A tensor B) + C, each a test of one matrix, the pair matrix of E code:

* algebraic: every P E_j† E_k P acts as 1_A tensor B_jk on the code sector;
* product: after sending half of a maximally entangled reference pair through
  the noise, the reference marginal factorizes as 1_A / dim_a tensor rho_RBE;
* entropic: the entropy budget S(V') - S(R_B E') returns exactly the log of
  the protected dimension.

The purified state behind them lives on R_A tensor R_B tensor V tensor E in
that factor order, where R_A and R_B mirror A and B and E is the noise
environment with one axis per Kraus operator. purify forms E code once: as
the composition of the noise's and the frame's linalg.Cells stores when both
hold one, else by one product. Its state forms the pair matrix once, as its
nonzero entries summed from those cells or by one Gram product, and its
defect once, and b, c and d read them; a state held as cells densifies its
store when x itself is read, once, and forms no second product.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .channels import Channel, require_on, require_valid
from .errors import DegenerateChannelError, DimensionError, NotAStateError
from .linalg import (
    DEFAULT_ATOL,
    SPECTRUM_CUTOFF,
    Cells,
    _entries_entropy,
    _summed,
    gram,
    partial_trace,
    von_neumann_entropy,
)
from .spaces import Decomposition


_JOINT = (0, 1, 3)  # R_A R_B E, the complement of V


def _not_finite(dims, flat: np.ndarray, vals: np.ndarray) -> NotAStateError:
    """The error naming the first non-finite of vals, x's entries at the
    flat indices flat in (e, v, a, b) order, by its (R_A, R_B, V, E) index."""
    da, db, dv, de = dims
    p = int(np.argmin(np.isfinite(vals)))
    e, v, a, b = (int(j) for j in np.unravel_index(flat[p], (de, dv, da, db)))
    return NotAStateError(f"x entry {(a, b, v, e)} is {vals[p]}, not finite")


@dataclass(frozen=True, eq=False)
class PurifiedState:
    """Joint pure state of reference, system, and environment after the noise.

    dims is (dim_ra, dim_rb, dim_v, dim_e); product is X = E code,
    unnormalized, in the (dim_e dim_v, dim_ra dim_rb) layout of
    Channel.stacked_product, so psi[a, b, v, e] = x[(e, v), (a, b)] /
    sqrt(dim_ra dim_rb norm_in); norm_in is the squared norm of psi before
    renormalization (1 for trace-preserving noise). product is X, of
    exactly that shape, dense or as its linalg.Cells store. A dense X
    is copied, except with _adopt=True, which purify passes for the product
    it has just formed: that array itself is kept. A store is kept as
    _cells. Either is checked once: an X with a non-finite entry is
    rejected, naming the entry by its (R_A, R_B, V, E) index. x is a
    cached property, read-only: a dense X from construction, a store
    densified on first read. Only the dense _pairs route and the
    synthesizers read x.

    b's blocks and deviations, every marginal (none keeps V) and d's
    spectrum are read from condition b's pair matrix m, formed once (see
    _pairs); conj(m) / (dim_ra dim_rb norm_in) is the joint
    rho'_{R_A R_B E} with (E, R_A R_B) swapped, which no verdict forms.
    Each marginal is formed once, normalized (x never is) and kept
    read-only.
    """

    dims: tuple[int, int, int, int]
    product: InitVar[np.ndarray | Cells]
    norm_in: float
    _marginals: dict = field(default_factory=dict, init=False, repr=False)
    _cells: Optional[Cells] = field(default=None, init=False, repr=False)
    _adopt: InitVar[bool] = False

    def __post_init__(self, product, _adopt):
        da, db, dv, de = self.dims
        shape = (de * dv, da * db)
        cells = product if isinstance(product, Cells) else None
        got = np.shape(product) if cells is None else (len(cells.cols), cells.n)
        if got != shape:
            raise DimensionError(f"product of shape {got} does not match factors {self.dims}")
        if cells is not None:
            if not np.isfinite(cells.vals).all():
                r, c, v = cells.entries()  # row-major, as x's flat order
                raise _not_finite(self.dims, r * cells.n + c, v)
            vars(self)["_cells"] = cells
            return
        x = (product if _adopt else np.array(product)).reshape(shape)  # a view: an adopted array stays writeable
        if not np.isfinite(x).all():
            raise _not_finite(self.dims, np.arange(x.size), x.reshape(-1))
        x.flags.writeable = False
        vars(self)["x"] = x

    @cached_property
    def x(self) -> np.ndarray:
        """X, read-only; reached only for a state held as its store, which
        is densified here on first read."""
        x = self._cells.dense()
        x.flags.writeable = False
        return x

    @cached_property
    def _pairs(self):
        """m[(j, a, b), (k, c, d)] = <a, b| E_j† E_k |c, d>, read-only: the
        Gram matrix of X_V[v, (e, c)] = x[(e, v), c], by gram, or, for a
        state held as cells, its nonzero entries (i, j, m), row-major, from
        X_V's store, whose row v holds the cells of X's rows (e, v)."""
        dv, de = self.dims[2:]
        if self._cells is None:
            m = gram(self.x.reshape(de, dv, -1).transpose(1, 0, 2).reshape(dv, -1))
            m.flags.writeable = False
            return m
        cols, vals, n = self._cells.cols, self._cells.vals, self._cells.n
        cols = cols.reshape(de, dv, -1) + n * np.arange(de)[:, None, None]  # column (e, c) of X_V
        by_v = [a.reshape(de, dv, -1).transpose(1, 0, 2).reshape(dv, -1) for a in (cols, vals)]
        pairs = Cells(*by_v, de * n).pairs()
        for a in pairs:
            a.flags.writeable = False
        return pairs

    @cached_property
    def _defect(self) -> tuple[np.ndarray, np.ndarray]:
        """(blocks, pair), read-only: b's blocks B_jk, the A-averages of the
        code-sector blocks M_jk of the pair matrix, indexed (j, k, b, d), and
        the (k, k) pair deviations ||M_jk - 1_A tensor B_jk||_F. From pair
        entries, each deviation is summed entry by entry over the union of
        the supports of M and 1_A tensor B, so a zero residual is not the
        difference of two large norms."""
        da, db, dv, de = self.dims
        if self._cells is None:
            m = self._pairs.reshape(de, da, db, de, da, db).copy()
            blocks = m.diagonal(axis1=1, axis2=4).sum(-1) / da  # indexed (j, b, k, d)
            for a in range(da):
                m[:, a, :, :, a, :] -= blocks
            pair = np.sqrt(np.einsum("jabkcd,jabkcd->jk", m.conj(), m).real)
            blocks = blocks.transpose(0, 2, 1, 3)
        else:
            i, j, m = self._pairs
            (ej, aj, bj), (ek, ak, bk) = (np.unravel_index(t, (de, da, db)) for t in (i, j))
            diagonal = aj == ak
            at = (((ej * de + ek) * db + bj) * db + bk)[diagonal]  # flat (j, k, b, d)
            blocks = np.zeros(de * de * db * db, m.dtype)
            np.add.at(blocks, at, m[diagonal])
            blocks /= da
            dev = m.copy()
            dev[diagonal] -= blocks[at]
            # B's cell (j, k, b, d) sits at dim_a entries (j, a, b), (k, a, d) of
            # 1_A tensor B; at each of them that M lacks, the deviation is -B
            cell, count = np.unique(at, return_counts=True)
            outside = (da - count) * np.abs(blocks[cell]) ** 2
            pair = np.bincount(ej * de + ek, np.abs(dev) ** 2, de * de)
            pair = np.sqrt(pair + np.bincount(cell // (db * db), outside, de * de)).reshape(de, de)
            blocks = blocks.reshape(de, de, db, db)
        blocks.flags.writeable = pair.flags.writeable = False
        return blocks, pair

    def marginal(self, keep: Iterable[int]) -> np.ndarray:
        """Density matrix of the kept factors among 0=R_A, 1=R_B and 3=E,
        read-only: a partial trace of the pair matrix, dense or as its
        entries. V (factor 2) is out of range, as any other index is."""
        keep = tuple(sorted(set(int(i) for i in keep)))
        if not keep or any(i not in _JOINT for i in keep):
            raise DimensionError(f"keep indices {list(keep)} out of range")
        rho = self._marginals.get(keep)
        if rho is None:
            da, db, _, de = self.dims
            dim, sq = math.prod(self.dims[i] for i in keep), da * db * self.norm_in
            if self._cells is not None:
                # the pair entries conj(m) / sq whose traced factors agree,
                # summed in pair order at the kept factors' index
                i, j, m = self._pairs
                fi, fj = (dict(zip((3, 0, 1), np.unravel_index(t, (de, da, db)))) for t in (i, j))
                same = np.ones(len(m), bool)
                r = c = 0
                for f in _JOINT:
                    if f in keep:
                        r, c = r * self.dims[f] + fi[f], c * self.dims[f] + fj[f]
                    else:
                        same &= fi[f] == fj[f]
                key, vals = _summed((r * dim + c)[same], np.divide(m[same].conj(), sq))
                rho = np.zeros((dim, dim), vals.dtype)
                rho.flat[key] = vals
            else:  # one einsum over m's axes (e, a, b, f, c, d), kept rows read as
                # (a, b, e); a traced factor's column axis takes its row axis's index
                row = {3: 0, 0: 1, 1: 2}
                col = [row[f] + 3 * (f in keep) for f in (3, 0, 1)]
                out = [row[f] for f in keep] + [row[f] + 3 for f in keep]
                t = np.einsum(self._pairs.reshape([de, da, db] * 2), [0, 1, 2, *col], out)
                rho = (t.conj() / sq).reshape(dim, dim)
            rho.flags.writeable = False
            self._marginals[keep] = rho
        return rho


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Outcome of one correctability test: passed iff residual <= tol."""

    condition: str
    passed: bool
    residual: float
    tol: float
    witnesses: dict


def purify(
    dec: Decomposition, ch: Channel, *, allow_trace_decreasing: bool = False
) -> PurifiedState:
    """Send half of a maximally entangled reference through the noise.

    The input is the canonical purification of the maximally mixed state on
    the code sector: R_A mirrors A, R_B mirrors B. Each Kraus operator is
    tagged by one environment basis vector. For trace-decreasing noise
    (explicitly allowed) the marginals are renormalized by the state's
    squared norm before renormalization, kept in norm_in: ||X||^2 / dim_code,
    one numpy sum of the nonzero squares of X's parts as stored, x or the
    store's values, so no BLAS thread count changes its bits, and X held
    as one cell per row and X formed densely give the same bits.
    """
    require_on(ch, dec.dim_v, "channel")
    require_valid(ch, "channel", allow_trace_decreasing=allow_trace_decreasing)
    dims = (dec.dim_a, dec.dim_b, dec.dim_v, ch.n_kraus)
    cells = None if ch._cells is None or dec._cells is None else ch._cells.compose(dec._cells)
    x = ch.stacked_product(dec.code_vectors()) if cells is None else cells  # rows (e, v), columns (a, b)
    sq = np.square((x if cells is None else cells.vals).view(np.float64))  # |v|^2 = re^2 + im^2
    norm_in = float(np.sum(sq[sq != 0])) / dec.dim_code  # X's cells and X formed densely: the same terms
    if norm_in <= SPECTRUM_CUTOFF:
        raise DegenerateChannelError("channel annihilates the code sector")
    return PurifiedState(dims, x, norm_in, _adopt=True)


def check_condition_b(
    dec: Decomposition,
    ch: Channel,
    tol: float = DEFAULT_ATOL,
    *,
    allow_trace_decreasing: bool = False,
) -> ConditionReport:
    """Algebraic test: P E_j† E_k P = 1_A tensor B_jk on the code sector.

    For each Kraus pair the candidate B_jk is the A-average of the code-sector
    block M_jk, and the pair deviation is ||M_jk - 1_A tensor B_jk||_F. The
    report residual aggregates all pairs in quadrature, which makes it
    invariant under unitary remixing of the Kraus list. The witnesses are the
    blocks as one (k, k, dim_b, dim_b) array b_blocks, the pair deviations as
    one (k, k) array pair_residuals, the worst pair, and purify's state, whose
    pair matrix they are read from, as state; so noise that annihilates the
    code sector raises DegenerateChannelError.
    """
    ps = purify(dec, ch, allow_trace_decreasing=allow_trace_decreasing)
    blocks, pair = ps._defect
    worst = np.unravel_index(np.argmax(pair), pair.shape)
    residual = float(np.linalg.norm(pair))
    return ConditionReport(
        condition="b",
        passed=residual <= tol,
        residual=residual,
        tol=tol,
        witnesses={
            "b_blocks": blocks,
            "pair_residuals": pair,
            "max_pair": (int(worst[0]), int(worst[1])),
            "max_pair_residual": float(pair[worst]),
            "state": ps,
        },
    )


def check_condition_c(ps: PurifiedState, tol: float = DEFAULT_ATOL) -> ConditionReport:
    """Product test: the reference-environment marginal must factorize.

    residual = || rho'_{R_A R_B E} - 1_A / dim_a tensor rho'_{R_B E} ||_F.
    1_A / dim_a is the input R_A marginal; renormalized trace-decreasing
    noise can move the observed one, the witness rho_ra, away from it. Entry
    by entry the difference is b's M_jk - 1_A tensor B_jk over
    dim_a dim_b norm_in, and it is read from b's pair deviations, so
    residual_b = dim_a dim_b norm_in residual_c by construction.
    """
    da, db = ps.dims[:2]
    residual = float(np.linalg.norm(ps._defect[1])) / (da * db * ps.norm_in)
    return ConditionReport(
        condition="c",
        passed=residual <= tol,
        residual=residual,
        tol=tol,
        witnesses={"rho_ra": ps.marginal((0,)), "rho_rbe": ps.marginal((1, 3))},
    )


def check_condition_d(ps: PurifiedState, tol: float = DEFAULT_ATOL) -> ConditionReport:
    """Entropic test: S(V') - S(R_B E') must return log2(dim_a) exactly.

    The signed gap log2(dim_a) + S(R_B E') - S(V') is nonnegative up to
    rounding (subadditivity); the report residual is its magnitude. psi is
    pure, so S(V') = S(R_A R_B E'): entropy_v is the joint's entropy, with
    require_state's checks, read from conj(m) / (dim_a dim_b norm_in), m
    the pair matrix, dense or as its entries: that is the joint with its
    factors reordered, so it has the joint's spectrum. Neither the V
    marginal nor the joint is formed. Both spectra are taken per connected
    component of the matrix's exact nonzero pattern (Pauli errors of
    different syndromes reach orthogonal subspaces), except on matrices of
    at most 64 rows, with no zero entry, or of one component, which are
    diagonalized whole; see linalg.
    """
    da, db, _, de = ps.dims
    s_a, sq = float(np.log2(da)), da * db * ps.norm_in
    if ps._cells is None:
        s_v = von_neumann_entropy(ps._pairs.conj() / sq)
    else:
        i, j, m = ps._pairs
        s_v = _entries_entropy(da * db * de, i, j, m.conj() / sq)
    s_rbe = von_neumann_entropy(ps.marginal((1, 3)))
    gap = s_a + s_rbe - s_v
    return ConditionReport(
        condition="d",
        passed=abs(gap) <= tol,
        residual=abs(gap),
        tol=tol,
        witnesses={"entropy_a": s_a, "entropy_v": s_v, "entropy_rbe": s_rbe, "gap": gap},
    )


def coherent_info(rho: np.ndarray, dim_r: int, dim_v: int) -> float:
    """-S(R|V) = S(rho_V) - S(rho_RV) in bits, for a state on R tensor V.
    rho is diagonalized once, and checked before rho_V is formed."""
    rho = np.asarray(rho)
    if dim_r < 1 or dim_v < 1 or rho.shape != (dim_r * dim_v, dim_r * dim_v):
        raise DimensionError(
            f"state shape {rho.shape} does not split as {dim_r} x {dim_v}"
        )
    s_rv = von_neumann_entropy(rho)
    rho_v = partial_trace(rho, [dim_r, dim_v], keep=(1,))
    return von_neumann_entropy(rho_v) - s_rv


def dpi_trace(dec: Decomposition, chain: Sequence[Channel]) -> list[float]:
    """Coherent information of the R_A : V cut through a channel chain.

    Starts from the maximally entangled reference state on the code sector and
    applies each (trace-preserving) channel in turn to the V half, recording
    -S(R_A|V) = S(V) - S(R_A V) before the chain and after every step. Data
    processing makes the returned list non-increasing up to numerical slack.
    Link i is refused as channel[i], the name the CLI gives its i-th file:
    DimensionError off V, ValueError when it is not trace preserving, with
    whether it increases or decreases trace and its completeness defect.

    The R_A V state is held factored, rho = M M† with M of shape
    (dim_a dim_v, r), r = dim_b at the start. A step with k Kraus operators is
    one product of their stack with M, so r becomes k r. M M† and M† M share
    their nonzero spectrum, so S(R_A V) is read from the smaller one. S(V) is
    read from the smaller Gram matrix of X, the (dim_v, dim_a r) reshape of M;
    when M M† is the side formed, the value is coherent_info of M M†, whose
    V marginal X X† is its partial trace over R_A.
    require_state checks every matrix that is diagonalized. When r exceeds
    dim_a dim_v and another step follows, one eigh of M M† compresses M to
    dim_a dim_v columns, every eigenvalue kept (clipped at 0).
    """
    da, db, dv = dec.dim_a, dec.dim_b, dec.dim_v
    for i, ch in enumerate(chain):
        require_on(ch, dv, f"channel[{i}]")
        require_valid(ch, f"channel[{i}]")
    # m[(a, v), b] = code[v, (a, b)] / sqrt(da db), so m m† is the input state
    m = dec.code_vectors().reshape(dv, da, db).transpose(1, 0, 2).reshape(da * dv, db)
    m = m / np.sqrt(da * db)

    def v_rows(m):  # the (dv, da r) reshape: rows v, columns (a, c)
        return m.reshape(da, dv, -1).transpose(1, 0, 2).reshape(dv, -1)

    values = []
    for i, ch in enumerate([None, *chain]):
        if ch is not None:
            k, r = ch.n_kraus, m.shape[1]
            m = ch.stacked_product(v_rows(m)).reshape(k, dv, da, r)
            m = m.transpose(2, 1, 0, 3).reshape(da * dv, k * r)
        if m.shape[1] < da * dv:
            x = v_rows(m)
            g_rv, g_v = gram(m), gram(x.T).conj() if dv <= x.shape[1] else gram(x)
            values.append(von_neumann_entropy(g_v) - von_neumann_entropy(g_rv))
        else:  # m m† is the smaller side: the state itself
            g_rv = gram(m.T).conj()
            values.append(coherent_info(g_rv, da, dv))
        if m.shape[1] > da * dv and i < len(chain):
            w, u = np.linalg.eigh(g_rv)
            m = u * np.sqrt(np.clip(w, 0.0, None))
    return values
