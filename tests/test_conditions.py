"""Correctability conditions and the purified-state machinery.

The joint reference-environment marginal has a closed form in terms of the
code-sector Gram blocks G_jk = code† E_j† E_k code; the tests rebuild it from
that formula as an independent oracle. The factored dpi_trace is checked
against the dense reference in dense_dpi.py.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oqec.channels
import oqec.linalg
from oqec import conditions
from oqec.channels import Channel, apply, depolarizing, identity, random_channel, unitary
from oqec.codes import catalog, get
from oqec.conditions import (
    PurifiedState,
    check_condition_b,
    check_condition_c,
    check_condition_d,
    coherent_info,
    dpi_trace,
    purify,
)
from oqec.errors import DegenerateChannelError, DimensionError, NotAStateError
from oqec.linalg import Cells, dag, gram, haar_unitary, kron, partial_trace, von_neumann_entropy
from oqec.recovery import synthesize_schmidt_recovery
from oqec.spaces import Decomposition

from approximate_codes import z_leak
from condition_b_oracle import condition_b_oracle, gram_blocks
from dense_dpi import dense_dpi_trace
from pauli_noise import weight_one_depolarizing
from stabilizer_oracle import GAUGE, STABILIZERS, correctable, mask, pauli_channel


def _rng(seed=0):
    return np.random.default_rng(seed)


def _joint_marginal_oracle(dec, ch):
    """rho'_{R_A R_B E} from the Gram blocks of the rotated Kraus operators."""
    code = dec.code_vectors()
    de = len(ch.kraus)
    dab = dec.dim_a * dec.dim_b
    out = np.zeros((dab * de, dab * de), dtype=complex)
    for j, ej in enumerate(ch.kraus):
        for k, ek in enumerate(ch.kraus):
            g = dag(code) @ dag(ej) @ ek @ code
            unit = np.zeros((de, de), dtype=complex)
            unit[j, k] = 1.0
            out += kron(g.conj(), unit)
    return out / dab


def test_purify_shapes_and_norm():
    entry = get("bit_flip_3")
    ps = purify(entry.dec, entry.noise)
    assert ps.dims == (2, 1, 8, 4)
    assert ps.x.shape == (4 * 8, 2)  # rows (e, v), columns (a, b)
    assert abs(np.linalg.norm(ps.x) ** 2 - 2 * 1 * ps.norm_in) < 1e-12
    assert ps.norm_in == pytest.approx(1.0, abs=1e-12)


_NORM_IN_BY_SEED = """
import numpy as np
from oqec.channels import Channel, random_channel
from oqec.conditions import purify
from oqec.linalg import haar_unitary, kron
from oqec.spaces import Decomposition
for seed in range(8):
    rng = np.random.default_rng(seed)
    frame = haar_unitary(64, rng)
    n_b = random_channel(32, 3, seed=seed + 10_000)
    u_ab = haar_unitary(64, rng)
    ch = Channel([frame @ u_ab @ kron(np.eye(2), nk) @ frame.conj().T for nk in n_b.kraus])
    print(repr(purify(Decomposition(2, 32, 0, frame=frame), ch).norm_in))
"""


def test_norm_in_of_a_dense_product_is_the_same_bits_at_one_and_two_blas_threads():
    """norm_in is one numpy sum, which no BLAS thread splits: on seeds 0-7
    of a dense instance shaped as the bench's product_64 (dim_a 2, dim_b
    32, dim_c 0, 3 Kraus operators, an X of 12 288 entries), a child
    process at one OpenBLAS thread and one at two print the same reprs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oqec.__file__)))
    printed = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
        }
        proc = subprocess.run(
            [sys.executable, "-c", _NORM_IN_BY_SEED], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        printed.append(proc.stdout.split())
    assert len(printed[0]) == 8 and printed[0] == printed[1]


def test_purify_v_marginal_is_channel_output():
    """Tracing out both references and E leaves E applied to the code-average:
    the V marginal, formed here from x as X_V X_V† / (dim_a dim_b norm_in),
    X_V[v, (e, a, b)] = x[(e, v), (a, b)]. marginal itself refuses V."""
    entry = get("ns_3qubit_collective")
    ps = purify(entry.dec, entry.noise)
    da, db, dv, de = ps.dims
    x_v = ps.x.reshape(de, dv, da * db).transpose(1, 0, 2).reshape(dv, -1)
    rho_v = x_v @ dag(x_v) / (da * db * ps.norm_in)
    code = entry.dec.code_vectors()
    rho_in = code @ dag(code) / entry.dec.dim_code
    np.testing.assert_allclose(rho_v, apply(entry.noise, rho_in), atol=1e-12)
    for keep in [(2,), (0, 2), (1, 2, 3), (0, 1, 2, 3)]:
        with pytest.raises(DimensionError, match="out of range"):
            ps.marginal(keep)


@pytest.mark.parametrize(
    "name", ["bit_flip_3", "phase_flip_3", "dfs_2qubit_dephasing", "ns_3qubit_collective", "bitflip_3_vs_z"]
)
def test_joint_marginal_matches_gram_block_oracle(name):
    entry = get(name)
    ps = purify(entry.dec, entry.noise)
    np.testing.assert_allclose(
        ps.marginal((0, 1, 3)), _joint_marginal_oracle(entry.dec, entry.noise), atol=1e-12
    )


def test_joint_marginal_oracle_on_random_instances():
    rng = _rng(2)
    for trial in range(10):
        da, db, dc = 2, int(rng.integers(1, 3)), int(rng.integers(0, 3))
        dv = da * db + dc
        dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
        ch = random_channel(dv, int(rng.integers(1, 4)), seed=300 + trial)
        ps = purify(dec, ch)
        np.testing.assert_allclose(
            ps.marginal((0, 1, 3)), _joint_marginal_oracle(dec, ch), atol=1e-12
        )


def _derived_marginal_oracles(dec, ch, norm_in=1.0):
    """rho'_{R_A} and rho'_{R_B E} from the Gram blocks G_jk: entry (a, a')
    of the first is sum_{j, b} conj(G_jj)[(a, b), (a', b)], entry
    ((b, j), (b', k)) of the second sum_a conj(G_jk)[(a, b), (a, b')], both
    over dim_a dim_b norm_in."""
    da, db, de = dec.dim_a, dec.dim_b, len(ch.kraus)
    g = gram_blocks(dec, ch).conj().reshape(de, de, da, db, da, db) / (da * db * norm_in)
    rho_ra = np.einsum("jjabcb->ac", g)
    rho_rbe = np.einsum("jkabac->bjck", g).reshape(db * de, db * de)
    return rho_ra, rho_rbe


def _marginal_instances():
    """(dec, ch, allow_trace_decreasing): the catalog, random instances with
    dim_a 2 and 3, and renormalized trace-decreasing noise."""
    out = [(e.dec, e.noise, False) for e in catalog()]
    rng = _rng(51)
    for trial in range(8):
        da, db, dc = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(0, 3))
        dv = da * db + dc
        dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
        ch = random_channel(dv, int(rng.integers(1, 4)), seed=500 + trial)
        out.append((dec, ch, False))
        damp = np.diag(np.linspace(1.0, 0.5, dv))  # sum_k D E_k† E_k D = D² < 1
        out.append((dec, Channel([k @ damp for k in ch.kraus]), True))
    uneven = Channel((np.diag([1.0, 1.0 / np.sqrt(2)]).astype(complex),))
    return out + [(Decomposition(2, 1, 0), uneven, True)]


def test_derived_marginals_match_gram_block_oracle():
    for dec, ch, allow in _marginal_instances():
        ps = purify(dec, ch, allow_trace_decreasing=allow)
        rho_ra, rho_rbe = _derived_marginal_oracles(dec, ch, ps.norm_in)
        np.testing.assert_allclose(ps.marginal((0,)), rho_ra, rtol=0, atol=1e-14)
        np.testing.assert_allclose(ps.marginal((1, 3)), rho_rbe, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "dec, ch, allow",
    [pytest.param(e.dec, e.noise, False, id=e.name) for e in catalog(extended=True)]
    + [
        pytest.param(*inst, id=f"decreasing{i}")
        for i, inst in enumerate(inst for inst in _marginal_instances() if inst[2])
    ],
)
def test_condition_b_matches_textbook_oracle(dec, ch, allow):
    """b's blocks, pair residuals and residual, read from the purified
    state's pair matrix, agree with the pair-by-pair textbook loop on the
    extended catalog and on renormalized trace-decreasing noise."""
    report = check_condition_b(dec, ch, allow_trace_decreasing=allow)
    blocks, pair, residual = condition_b_oracle(dec, ch)
    np.testing.assert_allclose(report.witnesses["b_blocks"], blocks, rtol=0, atol=1e-14)
    np.testing.assert_allclose(report.witnesses["pair_residuals"], pair, rtol=0, atol=1e-14)
    assert report.residual == pytest.approx(residual, rel=1e-12, abs=1e-14)


def test_condition_c_residual_matches_kron_formula():
    """c subtracts rho'_{R_B E} / dim_a from the A-diagonal blocks of the
    joint in place; the dense formula with the lifted operator agrees."""
    for dec, ch, allow in _marginal_instances():
        ps = purify(dec, ch, allow_trace_decreasing=allow)
        da = ps.dims[0]
        lifted = kron(np.eye(da) / da, ps.marginal((1, 3)))
        dense = np.linalg.norm(ps.marginal((0, 1, 3)) - lifted)
        assert abs(check_condition_c(ps).residual - dense) <= 1e-15


def test_condition_d_rejects_a_non_finite_state():
    """A nan or inf in the purified state, real or complex, is refused by the
    state itself, naming its (R_A, R_B, V, E) index, before any marginal or
    eigensolver is formed: c no longer returns a nan residual, and an inf
    beside a zero amplitude no longer reaches the Gram product, where inf·0
    warns "invalid value" (an error in this suite)."""
    for phase in (1.0, np.exp(0.3j)):
        x = np.full((4, 2), 0.5) * phase  # rows (e, v), columns (a, b)
        x[3, 0] = np.nan  # e = 1, v = 1, a = 0, b = 0
        for check in (check_condition_c, check_condition_d):
            with pytest.raises(NotAStateError, match=r"x entry \(0, 0, 1, 1\) is .*nan.*, not finite"):
                check(PurifiedState((2, 1, 2, 2), x, 1.0))
    with pytest.raises(NotAStateError, match="inf, not finite"):
        check_condition_d(PurifiedState((1, 1, 1, 1), np.array([[np.inf]]), 1.0))
    x = np.zeros((4, 2))
    x[0, 0], x[2, 1] = np.inf, 0.5
    with pytest.raises(NotAStateError, match=r"x entry \(0, 0, 0, 0\) is inf, not finite"):
        check_condition_c(PurifiedState((2, 1, 2, 2), x, 1.0))


@pytest.mark.parametrize(
    "build",
    [lambda: get("bacon_shor_9").noise, lambda: weight_one_depolarizing(9, 0.003)],
    ids=["bit_flips", "depolarizing"],
)
def test_cell_and_dense_paths_give_the_same_residuals(build):
    """On bacon_shor_9 under bit flips and under weight-one depolarizing
    noise, the channel read through its cell index and its dense twin
    forced onto BLAS give b, c and d residuals within 1e-15, all passing."""
    dec = get("bacon_shor_9").dec
    residuals = []
    for indexed in (True, False):
        ch = build()
        if not indexed:
            ch = Channel(ch.kraus)  # the dense twin, which keeps no index
        assert (ch._cells is not None) == indexed
        ps = purify(dec, ch)
        reports = [check_condition_b(dec, ch), check_condition_c(ps), check_condition_d(ps)]
        assert all(r.passed for r in reports)
        residuals.append([r.residual for r in reports])
    assert np.max(np.abs(np.subtract(*residuals))) <= 1e-15, residuals


def test_purified_state_copies_x_unless_it_adopts_purifys_product(monkeypatch):
    """A caller's x is copied; with _adopt=True, as purify passes for the
    product it has just formed, that array is kept. Both are read-only,
    and an adopted x is checked for finite entries all the same. A state
    composed from cells, as bacon_shor_9's, densifies its store on the
    first read of x, with no stacked_product call, and keeps it: the same
    array as the product, entry for entry."""
    x = np.full((4, 2), 0.5)
    copied = PurifiedState((2, 1, 2, 2), x, 1.0)
    adopted = PurifiedState((2, 1, 2, 2), x, 1.0, _adopt=True)
    assert not np.shares_memory(copied.x, x) and np.shares_memory(adopted.x, x)
    assert x.flags.writeable
    assert not copied.x.flags.writeable and not adopted.x.flags.writeable
    x[3, 0] = np.nan
    with pytest.raises(NotAStateError, match=r"x entry \(0, 0, 1, 1\) is nan, not finite"):
        PurifiedState((2, 1, 2, 2), x, 1.0, _adopt=True)
    products, original = [], Channel.stacked_product

    def product(self, code):
        products.append(original(self, code))
        return products[-1]

    monkeypatch.setattr(Channel, "stacked_product", product)
    entry = get("bacon_shor_9")
    ps = purify(entry.dec, entry.noise)  # X composed from cells: no product, then or later
    assert ps._cells is not None and not products and "x" not in vars(ps)
    assert ps.x is ps.x and not products and not ps.x.flags.writeable
    want = original(entry.noise, entry.dec.code_vectors())
    assert ps.x.dtype == want.dtype and np.array_equal(ps.x, want)
    assert purify(Decomposition(2, 2, 0), depolarizing(4, 0.1)).x.base is products.pop()


def test_purified_state_refuses_a_product_whose_shape_does_not_match_dims():
    """PurifiedState takes X as its store too, and checks it as it checks a
    dense X: a store of (dim_e dim_v, dim_ra dim_rb) is kept as _cells, with
    x densified from it on first read, and a store or a dense X whose rows
    or width differ, though its size may match, is refused: a transposed X
    is not read as another state."""
    x = np.zeros((4 * 64, 2))  # rows (e, v), columns (a, b): dims (2, 1, 64, 4)
    x[[3, 70, 200], [1, 0, 1]] = 0.5
    store = Cells.build(x.shape, *np.nonzero(x), x[np.nonzero(x)])
    ps = PurifiedState((2, 1, 64, 4), store, 1.0)
    assert ps._cells is store and "x" not in vars(ps)
    np.testing.assert_array_equal(ps.x, x)
    for dims in ((2, 2, 64, 4), (2, 1, 64, 2), (1, 1, 64, 8)):  # width 4, 128 rows, (512, 1)
        with pytest.raises(DimensionError, match=r"^product of shape \(256, 2\) does not match factors"):
            PurifiedState(dims, store, 1.0)
    with pytest.raises(DimensionError, match=r"^product of shape \(2, 256\) does not match factors"):
        PurifiedState((2, 1, 64, 4), x.T, 1.0)


def test_purify_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        purify(Decomposition(2, 2, 0), identity(3))


def test_purify_names_the_first_non_finite_kraus_entry():
    """A nan or inf Kraus entry makes sum E†E non-finite; purify refuses the
    channel naming the first such entry by its (j, r, c) index, from the
    stack or, for a channel kept as its cells, from the cells alone, as it
    never forms the stack. A finite 1e300 still reads as an overflow."""
    with pytest.raises(ValueError, match=r"^channel: Kraus entry \(0, 0, 0\) is nan, not finite$"):
        purify(Decomposition(2, 1, 0), Channel([[[np.nan, 0], [0, 1]]]))
    stack = np.zeros((2, 2, 2), complex)
    stack[0, 1, 0], stack[1, 0, 1] = complex(1, np.inf), np.nan
    with pytest.raises(ValueError, match=r"^channel: Kraus entry \(0, 1, 0\) is \(1\+infj\), not finite$"):
        purify(Decomposition(2, 1, 0), Channel(stack))
    vals = np.full(128, 0.5**0.5)
    vals[70] = np.inf
    cells = Channel._from_cells((2, 64, 64), np.arange(128) % 64, vals)
    assert cells._cells is not None
    with pytest.raises(ValueError, match=r"^channel: Kraus entry \(1, 6, 6\) is inf, not finite$"):
        purify(Decomposition(2, 32, 0), cells)
    assert "kraus" not in vars(cells)
    with pytest.raises(ValueError, match=r"^channel: Kraus set increases trace \(completeness defect overflows\)$"):
        purify(Decomposition(2, 1, 0), Channel([[[1e300, 0], [0, 1]]]))


def test_purify_and_dpi_trace_refuse_a_channel_off_v_naming_it_and_both_sizes():
    """channels.require_on is the one gate for a channel on V: purify's
    refusal names "channel", dpi_trace's the link, and both give the sizes
    the channel acts on and dim_v."""
    dec = get("bit_flip_3").dec
    for off, sizes in ((identity(4), "4 -> 4"), (Channel((np.eye(4, 8),)), "8 -> 4")):
        with pytest.raises(DimensionError, match=rf"^channel: acts on {sizes}, expected dim_v=8$"):
            purify(dec, off)
        with pytest.raises(DimensionError, match=rf"^channel\[1\]: acts on {sizes}, expected dim_v=8$"):
            dpi_trace(dec, [identity(8), off])


def test_purify_gates_trace_decreasing():
    dec = Decomposition(2, 1, 0)
    half = Channel((np.diag([1.0, 1.0 / np.sqrt(2)]).astype(complex),))
    with pytest.raises(ValueError):
        purify(dec, half)
    ps = purify(dec, half, allow_trace_decreasing=True)
    assert ps.norm_in == pytest.approx(0.75, abs=1e-12)
    assert abs(np.linalg.norm(ps.x) ** 2 - 2 * 1 * ps.norm_in) < 1e-12


def test_condition_b_gates_trace_decreasing_like_purify():
    """Uniform half-strength noise is trace decreasing: condition b refuses
    it unless allowed, and then agrees with c and d on the renormalized
    purification. The uneven half-strength channel above fails all three:
    renormalizing leaves rho'_{R_A} = diag(2/3, 1/3), which c compares with
    the input marginal 1_A / 2."""
    dec = Decomposition(2, 1, 0)
    half = Channel((np.eye(2, dtype=complex) / np.sqrt(2),))
    with pytest.raises(ValueError):
        check_condition_b(dec, half)
    b = check_condition_b(dec, half, allow_trace_decreasing=True)
    ps = purify(dec, half, allow_trace_decreasing=True)
    assert ps.norm_in == pytest.approx(0.5, abs=1e-12)
    assert b.passed and check_condition_c(ps).passed and check_condition_d(ps).passed
    np.testing.assert_allclose(b.witnesses["b_blocks"][0, 0], [[0.5]], atol=1e-15)
    uneven = Channel((np.diag([1.0, 1.0 / np.sqrt(2)]).astype(complex),))
    with pytest.raises(ValueError):
        check_condition_b(dec, uneven)
    ps = purify(dec, uneven, allow_trace_decreasing=True)
    assert not check_condition_b(dec, uneven, allow_trace_decreasing=True).passed
    assert not check_condition_c(ps).passed
    assert not check_condition_d(ps).passed


def _b_and_c_instances():
    """Catalog entries, the correctable ones also at half strength, and 40
    random instances, every other one made trace decreasing by a diagonal
    contraction after the noise's own operators."""
    out = []
    for entry in catalog():
        out.append((entry.dec, entry.noise))
        if all(entry.expected.values()):
            out.append((entry.dec, Channel(entry.noise.kraus / np.sqrt(2))))
    rng = _rng(41)
    for trial in range(40):
        da, db, dc = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
        dv = da * db + dc
        dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
        ch = random_channel(dv, int(rng.integers(1, 4)), seed=500 + trial)
        if trial % 2:
            ch = Channel(ch.kraus * rng.uniform(0.3, 1.0, dv))
        out.append((dec, ch))
    return out


def test_condition_b_residual_is_c_residual_scaled():
    """Entry by entry, c's difference is b's M_jk - 1_A tensor B_jk over
    dim_a dim_b norm_in, so residual_b = dim_a dim_b norm_in residual_c,
    trace decreasing or not."""
    for dec, ch in _b_and_c_instances():
        b = check_condition_b(dec, ch, allow_trace_decreasing=True).residual
        ps = purify(dec, ch, allow_trace_decreasing=True)
        scaled = dec.dim_a * dec.dim_b * ps.norm_in * check_condition_c(ps).residual
        if b > 1e-9:
            assert scaled == pytest.approx(b, rel=1e-12, abs=0)
        else:
            assert abs(scaled - b) <= 1e-14


def test_purify_rejects_annihilating_channel():
    """Noise that kills the code sector leaves no state to renormalize:
    purify refuses it, and so does condition b, which reads that state."""
    for dec, kill in (
        (Decomposition(1, 1, 1), Channel((np.diag([0.0, 1.0]).astype(complex),))),
        (Decomposition(2, 1, 2), Channel((np.zeros((4, 4)),))),
    ):
        for check in (purify, check_condition_b):
            with pytest.raises(DegenerateChannelError):
                check(dec, kill, allow_trace_decreasing=True)


def test_condition_b_blocks_for_bit_flip_code():
    """The flip-error blocks are scalars: the error weights on the diagonal."""
    entry = get("bit_flip_3")
    report = check_condition_b(entry.dec, entry.noise)
    assert report.passed
    blocks = report.witnesses["b_blocks"]
    weights = [0.7, 0.1, 0.1, 0.1]
    for j in range(4):
        for k in range(4):
            expected = weights[j] if j == k else 0.0
            assert blocks[(j, k)].shape == (1, 1)
            assert abs(blocks[(j, k)][0, 0] - expected) < 1e-12


def test_condition_b_residual_invariant_under_kraus_remix():
    entry = get("bitflip_3_vs_z")
    base = check_condition_b(entry.dec, entry.noise)
    u = haar_unitary(len(entry.noise.kraus), _rng(23))
    remixed = Channel(
        tuple(
            sum(u[i, m] * entry.noise.kraus[i] for i in range(len(entry.noise.kraus)))
            for m in range(len(entry.noise.kraus))
        )
    )
    again = check_condition_b(entry.dec, remixed)
    assert abs(base.residual - again.residual) < 1e-9
    assert not base.passed


def test_condition_b_flags_worst_pair():
    entry = get("bitflip_3_vs_z")
    report = check_condition_b(entry.dec, entry.noise)
    pair = report.witnesses["max_pair"]
    assert report.witnesses["pair_residuals"][pair] == pytest.approx(
        report.witnesses["max_pair_residual"]
    )
    assert report.witnesses["max_pair_residual"] > 1e-3


def test_condition_c_product_witnesses():
    entry = get("bit_flip_3")
    report = check_condition_c(purify(entry.dec, entry.noise))
    assert report.passed
    np.testing.assert_allclose(report.witnesses["rho_ra"], np.eye(2) / 2, atol=1e-12)
    joint_dim = 2 * 1 * 4
    assert report.witnesses["rho_rbe"].shape == (4, 4)
    assert report.residual < 1e-12
    assert joint_dim == 8


def test_condition_d_entropy_witnesses():
    entry = get("ns_3qubit_collective")
    report = check_condition_d(purify(entry.dec, entry.noise))
    assert report.passed
    w = report.witnesses
    assert w["entropy_a"] == pytest.approx(1.0)
    assert w["gap"] == pytest.approx(0.0, abs=1e-9)
    assert abs(w["entropy_v"] - w["entropy_rbe"] - 1.0) < 1e-9


def test_condition_d_gap_nonnegative_for_generic_noise():
    rng = _rng(31)
    for trial in range(10):
        dv = int(rng.integers(4, 9))
        da, db = 2, 1
        dec = Decomposition(da, db, dv - da * db, frame=haar_unitary(dv, rng))
        ch = random_channel(dv, int(rng.integers(1, 4)), seed=900 + trial)
        report = check_condition_d(purify(dec, ch))
        assert report.witnesses["gap"] >= -1e-9


def test_three_conditions_agree_on_fixtures():
    for entry in [get(n) for n in ("bit_flip_3", "dfs_2qubit_dephasing", "bitflip_3_vs_z")]:
        rb = check_condition_b(entry.dec, entry.noise, tol=1e-8)
        ps = purify(entry.dec, entry.noise)
        rc = check_condition_c(ps, tol=1e-8)
        rd = check_condition_d(ps, tol=1e-8)
        assert rb.passed == rc.passed == rd.passed == entry.expected["b"]


def test_coherent_info_diagonalizes_rho_once(monkeypatch):
    """One spectrum of rho both checks it and gives S(RV); a matrix that is
    not a state is still refused."""
    rng = _rng(53)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ dag(g) / np.trace(g @ dag(g)).real
    shapes = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or original(m))
    coherent_info(rho, 2, 4)
    assert sorted(shapes) == [(4, 4), (8, 8)]
    with pytest.raises(NotAStateError):
        coherent_info(2 * rho, 2, 4)


def test_coherent_info_frozen_values():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert coherent_info(rho, 2, 2) == pytest.approx(1.0, abs=1e-12)
    # mixed reference, pure system: S(V) - S(RV) = 0 - 1
    mixed_r = kron(np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex))
    assert coherent_info(mixed_r, 2, 2) == pytest.approx(-1.0, abs=1e-12)
    # pure reference carries nothing: S(V) - S(RV) = 1 - 1
    pure_r = kron(np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2)
    assert coherent_info(pure_r, 2, 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionError):
        coherent_info(rho, 3, 2)


def test_dpi_trace_identity_chain_constant():
    entry = get("bit_flip_3")
    vals = dpi_trace(entry.dec, [identity(8), identity(8)])
    assert vals == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_dpi_trace_initial_value_counts_protected_qubits():
    dec = Decomposition(4, 2, 0)
    vals = dpi_trace(dec, [])
    assert vals == pytest.approx([2.0], abs=1e-12)


def test_dpi_trace_monotone_on_random_chains():
    rng = _rng(37)
    for trial in range(8):
        dv = int(rng.integers(3, 7))
        da = 2
        db = int(rng.integers(1, dv // da + 1))
        dec = Decomposition(da, db, dv - da * db, frame=haar_unitary(dv, rng))
        chain = [
            random_channel(dv, int(rng.integers(1, 4)), seed=50 * trial + i)
            for i in range(int(rng.integers(1, 4)))
        ]
        vals = dpi_trace(dec, chain)
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


_LOGICAL = [(mask([(0, 0), (0, 1), (0, 2)]), 0), (0, mask([(0, 0), (1, 0), (2, 0)]))]
_POOL = [(0, 0), (mask([(0, 0)]), 0), (0, mask([(1, 1)])), (mask([(2, 2)]), mask([(2, 2)]))]


def _pauli_set(seed):
    """2 to 4 Paulis, each an error of _POOL times a random gauge element,
    and with probability 0.3 times logical X or Z; random positive weights."""
    rng = _rng(seed)
    paulis = []
    for _ in range(rng.integers(2, 5)):
        x, z = _POOL[rng.integers(len(_POOL))]
        for gx, gz in GAUGE:
            if rng.random() < 0.5:
                x, z = x ^ gx, z ^ gz
        if rng.random() < 0.3:
            lx, lz = _LOGICAL[rng.integers(2)]
            x, z = x ^ lx, z ^ lz
        paulis.append((x, z))
    weights = rng.uniform(0.2, 1.0, len(paulis))
    return paulis, weights / weights.sum()


# 40 seeded sets, then two built to fail: X(0,0) beside X(0,1) X(0,2), whose
# product is logical X, and Z(0,0) beside Z(1,0) Z(2,0), logical Z
_ORACLE_SETS = [_pauli_set(seed) for seed in range(40)] + [
    ([(0, 0), (mask([(0, 0)]), 0), (mask([(0, 1), (0, 2)]), 0)], [0.6, 0.2, 0.2]),
    ([(0, 0), (0, mask([(0, 0)])), (0, mask([(1, 0), (2, 0)]))], [0.6, 0.2, 0.2]),
]


_EXTENDED = catalog(extended=True)
_CORRECTABLE = [e for e in _EXTENDED if all(e.expected.values())]


@pytest.mark.parametrize(
    "dec, noise",
    [(e.dec, e.noise) for e in _EXTENDED]
    + [(get("bacon_shor_9").dec, weight_one_depolarizing(9, 0.003))]
    + [(get("bacon_shor_9").dec, pauli_channel(*pauli_set)) for pauli_set in _ORACLE_SETS],
    ids=[e.name for e in _EXTENDED] + ["depolarizing"] + [f"oracle_{i}" for i in range(len(_ORACLE_SETS))],
)
def test_dpi_trace_after_the_noise_is_log_dim_a_less_d_gap(dec, noise):
    """The coherent information S(V') - S(R_A V') after E is log2(dim_a)
    less condition d's gap log2(dim_a) + S(R_B E') - S(V'), as S(R_A V') =
    S(R_B E') on the pure state; the two routes agree within 1e-12, on the
    extended catalog, under weight-one depolarizing noise and on the
    stabilizer oracle's 42 Pauli sets on bacon_shor_9."""
    gap = check_condition_d(purify(dec, noise)).witnesses["gap"]
    assert abs(dpi_trace(dec, [noise])[1] - (np.log2(dec.dim_a) - gap)) <= 1e-12


@pytest.mark.parametrize("entry", _CORRECTABLE, ids=[e.name for e in _CORRECTABLE])
def test_dpi_trace_returns_to_log_dim_a_after_the_schmidt_recovery(entry):
    """On every correctable catalog entry, E followed by its Schmidt
    recovery gives back the input's log2(dim_a) within 1e-12."""
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise).channel
    values = dpi_trace(entry.dec, [entry.noise, rec])
    assert abs(values[0] - np.log2(entry.dec.dim_a)) <= 1e-12
    assert abs(values[2] - np.log2(entry.dec.dim_a)) <= 1e-12


def test_dpi_trace_strictly_decreasing_through_depolarizing():
    entry = get("bit_flip_3")
    vals = dpi_trace(entry.dec, [depolarizing(8, 0.3), depolarizing(8, 0.3)])
    assert vals[0] > vals[1] + 0.1
    assert vals[1] > vals[2] + 0.1


@pytest.mark.parametrize("scale, change", [(0.5, "decreases"), (2.0, "increases")])
def test_dpi_trace_requires_trace_preserving_links(scale, change):
    """dpi_trace has no renormalizing option, so its error names the link,
    the direction and the defect, and points at no library option."""
    dec = Decomposition(2, 1, 0)
    bad = Channel((np.sqrt(scale) * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError) as exc:
        dpi_trace(dec, [identity(2), bad])
    message = str(exc.value)
    defect = np.sqrt(2) * abs(scale - 1)
    assert message == f"channel[1]: Kraus set {change} trace (completeness defect {defect:.3e})"
    assert "allow_trace_decreasing" not in message


def test_dpi_trace_unitary_step_is_lossless():
    entry = get("bit_flip_3")
    u = haar_unitary(8, _rng(41))
    vals = dpi_trace(entry.dec, [unitary(u)])
    assert vals == pytest.approx([1.0, 1.0], abs=1e-10)


def _entropy_instances():
    """Catalog entries, random instances on either side of dim_v = da db de
    (the joint marginal is the smaller one for few Kraus operators), and the
    near-boundary bit_flip_3 + eps Z_0 at eps 1e-3 and 1e-6."""
    out = [(e.dec, e.noise) for e in catalog()]
    rng = _rng(43)
    for trial in range(12):
        da, db, dc = 2, int(rng.integers(1, 3)), int(rng.integers(0, 9))
        dv = da * db + dc
        dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
        out.append((dec, random_channel(dv, int(rng.integers(1, 6)), seed=700 + trial)))
    return out + [z_leak(1e-3), z_leak(1e-6)]


def test_condition_d_entropy_v_matches_v_marginal():
    """S(V') = S(R_A R_B E') for the pure psi: entropy_v, read from the
    joint, equals the entropy of the V marginal, the noise applied to the
    code average P / dim_code, on either side of dim_v = dim_a dim_b dim_e,
    and so does the joint's own entropy."""
    sides = set()
    for dec, ch in _entropy_instances():
        ps = purify(dec, ch)
        code = dec.code_vectors()
        s_v = von_neumann_entropy(apply(ch, code @ dag(code) / dec.dim_code))
        assert abs(check_condition_d(ps).witnesses["entropy_v"] - s_v) <= 1e-12
        assert abs(von_neumann_entropy(ps.marginal((0, 1, 3))) - s_v) <= 1e-12
        sides.add(dec.dim_v < dec.dim_a * dec.dim_b * len(ch.kraus))
    assert sides == {True, False}


@pytest.mark.parametrize("kraus, joint", [(2, 4), (9, 18)])
def test_condition_d_diagonalizes_the_joint_never_the_v_marginal(monkeypatch, kraus, joint):
    """With dim_v 16, two Kraus operators give a joint of dimension 4 < 16 and
    nine give 18 > 16; either way d diagonalizes the joint and the R_B E
    marginal (dimension kraus), never the V marginal."""
    dec = Decomposition(2, 1, 14, frame=haar_unitary(16, _rng(47)))
    ps = purify(dec, random_channel(16, kraus, seed=48))
    diagonalized = []
    original = oqec.linalg.require_state

    def recording(rho):
        diagonalized.append(rho.shape[0])
        return original(rho)

    monkeypatch.setattr(oqec.linalg, "require_state", recording)
    check_condition_d(ps)
    assert sorted(diagonalized) == sorted([joint, kraus])
    assert 16 not in diagonalized


def _verdicts(dec, ch):
    rb = check_condition_b(dec, ch)
    ps = rb.witnesses["state"]
    return ps, [rb, check_condition_c(ps), check_condition_d(ps)]


def _dense_instances():
    """Every extended catalog entry whose state is held dense, and a dim_v
    128 random instance."""
    out = [pytest.param(e.dec, e.noise, id=e.name) for e in catalog(extended=True)
           if purify(e.dec, e.noise)._cells is None]
    dec = Decomposition(2, 2, 124, frame=haar_unitary(128, _rng(61)))
    return out + [pytest.param(dec, random_channel(128, 3, seed=62), id="random_dim128")]


@pytest.mark.parametrize("dec, ch", _dense_instances())
def test_dense_reads_of_the_pair_matrix_match_the_joint_oracle(monkeypatch, dec, ch):
    """On a dense state each of the seven marginals without V is one einsum
    over the pair matrix, and d reads S(V') from conj(m) itself: each
    marginal equals linalg.partial_trace of the Gram-block oracle's joint
    within 1e-15, and entropy_v that joint's entropy within 1e-14. b, c and
    d never ask for the joint."""
    requested, marginal = [], PurifiedState.marginal
    monkeypatch.setattr(PurifiedState, "marginal", lambda ps, keep: requested.append(tuple(sorted(keep))) or marginal(ps, keep))
    ps, (_, _, rd) = _verdicts(dec, ch)
    assert ps._cells is None and requested
    assert (0, 1, 3) not in requested, requested
    joint = _joint_marginal_oracle(dec, ch)
    for keep in [(0,), (1,), (3,), (0, 1), (0, 3), (1, 3), (0, 1, 3)]:
        want = partial_trace(joint, [dec.dim_a, dec.dim_b, len(ch.kraus)], keep=[(0, 1, 3).index(f) for f in keep])
        np.testing.assert_allclose(ps.marginal(keep), want, rtol=0, atol=1e-15, err_msg=str(keep))
    assert abs(rd.witnesses["entropy_v"] - von_neumann_entropy(joint)) <= 1e-14


def _dense_pairs(ps):
    """The (n, n) pair matrix of a state held as cells, from its entries,
    which must be row-major, each (i, j) once, and nonzero."""
    i, j, m = ps._pairs
    n = ps.dims[0] * ps.dims[1] * ps.dims[3]
    key = i * n + j
    assert np.all(np.diff(key) > 0) and np.count_nonzero(m) == len(m)
    out = np.zeros((n, n), m.dtype)
    out[i, j] = m
    return out


@pytest.mark.parametrize("noise", ["bacon_shor_9", "depolarizing"])
def test_the_pair_matrix_from_cells_matches_the_dense_gram(monkeypatch, noise):
    """bacon_shor_9's X holds 1 280 nonzeros of 163 840 (real), and under the
    weight-one depolarizing noise 3 584 of 458 752 (complex): it is composed
    from the noise's and the frame's cells, and its pair matrix is kept as
    its nonzero entries, summed from those cells. They equal gram of the
    transposed reshape within 1e-14 of its largest entry (largest gap 0.0
    on the real X and 1.0e-18 on the complex one, measured with OpenBLAS),
    they are float64 exactly when X has no imaginary part, and b, c and d
    give the dense twin's verdicts and, within 1e-14, its residuals; d's
    exactly, as norm_in, which both sum from the same nonzero terms. Under
    the depolarizing noise dim_v 512 is below dim_a dim_b dim_e = 896, and
    still b, c and d form no dense x and pass no 512-row matrix to
    require_state: d reads S(V') from the pair entries."""
    entry = get("bacon_shor_9")
    ch = entry.noise if noise == "bacon_shor_9" else weight_one_depolarizing(9, 0.003)
    rows, require_state = [], oqec.linalg.require_state
    monkeypatch.setattr(oqec.linalg, "require_state", lambda rho: rows.append(len(rho)) or require_state(rho))
    ps, reports = _verdicts(entry.dec, ch)
    da, db, dv, de = ps.dims
    assert ps._cells is not None and "x" not in vars(ps)
    assert rows and 512 not in rows, rows
    m = _dense_pairs(ps)
    want = gram(ps.x.reshape(de, dv, da * db).transpose(1, 0, 2).reshape(dv, -1))
    assert m.dtype == want.dtype == (np.complex128 if np.count_nonzero(ps.x.imag) else np.float64)
    assert m.dtype == (np.float64 if noise == "bacon_shor_9" else np.complex128)
    assert np.abs(m - want).max() <= 1e-14 * np.abs(want).max()
    dense_ps, dense = _verdicts(entry.dec, Channel(ch.kraus))
    assert dense_ps._cells is None and dense_ps._pairs.dtype == m.dtype
    assert ps.norm_in == dense_ps.norm_in
    for got, ref in zip(reports, dense):
        assert got.passed and ref.passed, (got.condition, got.residual, ref.residual)
        assert abs(got.residual - ref.residual) <= 1e-14, (got.condition, got.residual, ref.residual)
    assert reports[2].residual == dense[2].residual


def _cell_pairs(x, dv):
    """The pair matrix X_V† X_V of x, X_V[v, (e, c)] = x[(e, v), c], as
    PurifiedState._pairs sums it from the store of x, or None when the
    density rule refuses that store."""
    rows, cols = np.nonzero(x)
    store = Cells.build(x.shape, rows, cols, x[rows, cols])
    if store is None:
        return None
    return _dense_pairs(PurifiedState((1, x.shape[1], dv, x.shape[0] // dv), store, 1.0))


def _sparse_x(rng, de, dv, width, per_col, dtype):
    """A (de dv, width) array with per_col nonzeros in each column."""
    x = np.zeros((de * dv, width), dtype)
    for c in range(width):
        rows = rng.choice(de * dv, per_col, replace=False)
        x[rows, c] = rng.standard_normal(per_col)
        if dtype is complex:
            x[rows, c] += 1j * rng.standard_normal(per_col)
    return x


@pytest.mark.parametrize("kind", ["real", "complex", "imaginary", "complex dtype, real values"])
def test_cell_pairs_agree_with_gram_and_its_dtype(kind):
    """The pair matrix from the store of random sparse X: the Gram matrix of the transposed
    reshape within 1e-14 of its largest entry, in gram's dtype; a purely
    imaginary X still gives a complex matrix, and a complex X with no
    imaginary part a float64 one."""
    rng = _rng(71)
    de, dv, width = 5, 256, 6
    x = _sparse_x(rng, de, dv, width, 8, complex if kind != "real" else float)
    if kind == "imaginary":
        x = 1j * x.imag
    elif kind == "complex dtype, real values":
        x = x.real + 0j
    m = _cell_pairs(x, dv)
    want = gram(x.reshape(de, dv, width).transpose(1, 0, 2).reshape(dv, -1))
    assert m is not None and m.dtype == want.dtype and m.shape == want.shape
    assert m.dtype == (np.float64 if kind in ("real", "complex dtype, real values") else np.complex128)
    assert np.abs(m - want).max() <= 1e-14 * np.abs(want).max()


def test_cell_pairs_take_x_with_at_most_one_64th_nonzero():
    """X takes the cell path exactly when at most 1/64 of its entries are
    nonzero, as a Channel's cell index does; the pairs within V rows,
    sum_v n_v^2, are then at most dim_v n^2 / 64, even with every cell
    crowded into the fewest rows. One cell more, or a dense X, goes to
    gram. The rule alone decides, whatever the number of rows: an X of 63
    rows with one cell is taken by the store."""
    de, dv, width = 2, 128, 32  # n = 64; 8192 entries, 128 cells allowed
    x = np.zeros((de * dv, width))
    x[:4, :] = 1.0  # 128 cells in the rows (e, v) = (0, 0..3): 4 * 32^2 pairs
    per_v = np.count_nonzero(x.reshape(de, dv, width), axis=(0, 2))
    assert 64 * np.count_nonzero(x) == x.size and 64 * per_v @ per_v <= dv * 64**2
    m = _cell_pairs(x, dv)
    np.testing.assert_array_equal(m, gram(x.reshape(de, dv, width).transpose(1, 0, 2).reshape(dv, -1)))
    x[200, 0] = 1.0
    assert _cell_pairs(x, dv) is None
    assert _cell_pairs(_rng(72).standard_normal((de * dv, width)), dv) is None
    one_cell = np.zeros((63, 64))
    one_cell[0, 0] = 1.0
    np.testing.assert_array_equal(_cell_pairs(one_cell, 63), gram(one_cell))

def test_marginals_are_formed_once_and_read_only(monkeypatch):
    """Conditions c then d on one purified state share one Gram product, the
    pair matrix: the R_A and R_B E marginals are its partial traces, each
    formed once, and the same read-only array comes back on every request.
    On bit_flip_3 the pair matrix (2 * 1 * 4) ties with dim_v 8, and d reads
    S(V') from it."""
    entry = get("bit_flip_3")
    ps = purify(entry.dec, entry.noise)
    formed = []
    monkeypatch.setattr(conditions, "gram", lambda m: formed.append(m.shape) or gram(m))
    check_condition_c(ps)
    check_condition_d(ps)
    assert formed == [(8, 8)]  # (rest, kept) = (dim_v, dim_a dim_b dim_e)
    for keep in [(0, 1, 3), (0,), (1, 3)]:
        rho = ps.marginal(keep)
        assert rho is ps.marginal(list(reversed(keep)))
        assert not rho.flags.writeable
        with pytest.raises(ValueError):
            rho[0, 0] = 0.0
    assert len(formed) == 1


def test_derived_marginals_do_not_depend_on_call_order():
    """The R_A and R_B E marginals are partial traces of the joint whichever
    is asked for first, so their values do not depend on call order."""
    dec = Decomposition(2, 2, 3, frame=haar_unitary(7, _rng(53)))
    ch = random_channel(7, 3, seed=54)
    first, second = purify(dec, ch), purify(dec, ch)
    for keep in [(1, 3), (0,), (1,), (3,), (0, 3), (0, 1)]:
        first.marginal(keep)
    for keep in [(0,), (0, 1), (3,), (1, 3), (0, 3), (1,)]:
        second.marginal(keep)
    for keep in [(0,), (1,), (3,), (0, 1), (0, 3), (1, 3), (0, 1, 3)]:
        np.testing.assert_array_equal(first.marginal(keep), second.marginal(keep))


def _dpi_agrees_with_dense(dec, chain):
    fast, dense = dpi_trace(dec, chain), dense_dpi_trace(dec, chain)
    assert len(fast) == len(dense) == len(chain) + 1
    assert np.max(np.abs(np.subtract(fast, dense))) <= 1e-12, (fast, dense)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_dpi_trace_matches_dense_reference_on_catalog(entry):
    _dpi_agrees_with_dense(entry.dec, [entry.noise, entry.noise])
    if all(entry.expected.values()):
        rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
        _dpi_agrees_with_dense(entry.dec, [entry.noise, rec.channel])


@pytest.mark.parametrize("steps", [1, 2, 4])
def test_dpi_trace_compresses_between_steps_only(monkeypatch, steps):
    """depolarizing(8) has 65 Kraus operators, so k r > dim_a dim_v = 16 at
    every step: each step but the last compresses M with one eigh. At
    p = 1e-4 the state keeps eigenvalues of order 1e-6, which compression
    must keep too."""
    entry = get("bit_flip_3")
    chain = [depolarizing(8, p) for p in (1e-4, 0.3, 1e-4, 0.3)[:steps]]
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    dpi_trace(entry.dec, chain)
    assert eighs == [(16, 16)] * (steps - 1)
    monkeypatch.undo()
    _dpi_agrees_with_dense(entry.dec, chain)
    dfs = get("ns_3qubit_collective")
    _dpi_agrees_with_dense(dfs.dec, [depolarizing(8, 0.1), dfs.noise] * steps)


def test_dpi_trace_forms_no_lifted_channel_or_dense_state(monkeypatch):
    """The factored trace never lifts a channel with np.kron or applies one
    with channels.apply. coherent_info, and through it partial_trace, is
    reached only where M M† is the smaller side, on the dim_a dim_v = 16
    row state itself: after depolarizing(8)'s 65 operators and after the
    recovery's, not at the start or after the 4-operator noise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the factored DPI path")

    entry = get("bit_flip_3")
    rec = synthesize_schmidt_recovery(entry.dec, entry.noise)
    chain = [entry.noise, depolarizing(8, 0.3), rec.channel]
    expected = dense_dpi_trace(entry.dec, chain)
    assert not hasattr(conditions, "kron")  # np.kron covers every lift
    for module, name in ((np, "kron"), (oqec.channels, "apply")):
        monkeypatch.setattr(module, name, forbidden)
    seen = {"coherent_info": [], "partial_trace": []}
    for name, calls in seen.items():
        original = getattr(conditions, name)
        monkeypatch.setattr(conditions, name, lambda m, *a, f=original, c=calls, **k: c.append(m.shape) or f(m, *a, **k))
    assert np.max(np.abs(np.subtract(dpi_trace(entry.dec, chain), expected))) <= 1e-12
    assert seen == {"coherent_info": [(16, 16)] * 2, "partial_trace": [(16, 16)] * 2}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), links=st.integers(1, 4), kraus=st.integers(1, 9))
def test_dpi_trace_matches_dense_reference_on_random_chains(seed, links, kraus):
    rng = np.random.default_rng(seed)
    da, db, dc = int(rng.integers(2, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 5))
    dv = da * db + dc
    dec = Decomposition(da, db, dc, frame=haar_unitary(dv, rng))
    chain = [random_channel(dv, kraus, seed=seed + 7 * i) for i in range(links)]
    _dpi_agrees_with_dense(dec, chain)


def _twin_gaps(dec, ch, **kw):
    """b, c and d on the cell route and on the dense twin Channel(ch.kraus):
    the verdicts of each, the residual gaps, and the gaps of b's and c's
    witnesses."""
    out = []
    for noise in (ch, Channel(ch.kraus)):
        rb = check_condition_b(dec, noise, **kw)
        ps = purify(dec, noise, **kw)
        out.append((ps, [rb, check_condition_c(ps), check_condition_d(ps)]))
    (ps, cell), (twin_ps, dense) = out
    assert ps._cells is not None and twin_ps._cells is None
    gaps = [abs(a.residual - b.residual) for a, b in zip(cell, dense)]
    witness = [
        np.abs(cell[0].witnesses[k] - dense[0].witnesses[k]).max() for k in ("b_blocks", "pair_residuals")
    ] + [np.abs(cell[1].witnesses[k] - dense[1].witnesses[k]).max() for k in ("rho_ra", "rho_rbe")]
    return [r.passed for r in cell], [r.passed for r in dense], gaps, witness


def test_the_cell_route_matches_the_dense_twin_off_pauli_and_trace_decreasing_noise():
    """Cell noise of total weight 0.8, allowed as trace decreasing, is
    renormalized alike on both routes, on a correctable set and on one that
    fails; and diagonal noise that reads the logical value, sqrt(p) on the
    strings of logical 0, gives blocks M_jk whose A-diagonal holds a = 0
    only, so half of 1_A tensor B_jk lies outside M's support. Each time b,
    c and d give the twin's verdicts and residuals within 1e-14, and
    b_blocks, pair_residuals, rho'_{R_A} and rho'_{R_B E} are the twin's
    within 1e-15."""
    dec = get("bacon_shor_9").dec
    zero = dec.code_vectors()[:, :16].any(axis=1)  # the strings of logical 0
    reads = np.sqrt(np.concatenate([1 - 0.3 * zero, 0.3 * zero]))
    cases = [(pauli_channel(paulis, 0.8 * np.array([0.5, 0.3, 0.2])), True, passes) for paulis, passes in (
        ([(0, 0), (mask([(0, 0)]), 0), (0, mask([(1, 1)]))], True),
        ([(0, 0), (mask([(0, 0)]), 0), (mask([(0, 1), (0, 2)]), 0)], False),
    )]
    cases.append((Channel._from_cells((2, 512, 512), np.tile(np.arange(512), 2), reads), False, False))
    for ch, decreasing, passes in cases:
        if decreasing:
            with pytest.raises(ValueError, match="decreases trace"):
                purify(dec, ch)
        cell, dense, gaps, witness = _twin_gaps(dec, ch, allow_trace_decreasing=decreasing)
        assert cell == dense == [passes] * 3
        assert max(gaps) <= 1e-14 and max(witness) <= 1e-15, (gaps, witness)


def test_the_cell_route_forms_no_dense_x_and_no_pair_array():
    """On bacon_shor_9, b, then purify, c and d hold X as its cells from
    start to end: neither state forms x, and the traced peak of the four
    calls stays under 2.5 MiB, where the dense x alone takes 1.25 MiB and
    the dense pair matrix 0.8 MiB (5.7 MiB when both were formed)."""
    entry = get("bacon_shor_9")
    dec, noise = entry.dec, entry.noise
    # the frame's store and the noise's Gram are found once and kept, by any earlier call
    assert dec._cells is not None and noise._gram[0] is not None
    tracemalloc.start()
    try:
        rb = check_condition_b(dec, noise)
        ps = purify(dec, noise)
        rc, rd = check_condition_c(ps), check_condition_d(ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rb.passed and rc.passed and rd.passed
    for state in (rb.witnesses["state"], ps):
        assert state._cells is not None and "x" not in vars(state)
    assert peak < 2.5 * 2**20, peak / 2**20


def test_the_cell_route_refuses_degenerate_and_non_finite_states():
    """A cell channel that maps the code sector to 0 is refused as the dense
    one is, and a store holding a nan or inf cell is refused naming the same
    (R_A, R_B, V, E) entry that the dense state names for that x."""
    dec = get("bacon_shor_9").dec
    outside = int(np.flatnonzero(~dec.code_vectors().any(axis=1))[0])  # a row the frame leaves empty
    vals = np.zeros(512)
    vals[7] = 1.0
    kill = Channel._from_cells((1, 512, 512), np.full(512, outside), vals)
    assert kill._cells is not None
    for check in (purify, check_condition_b):
        with pytest.raises(DegenerateChannelError):
            check(dec, kill, allow_trace_decreasing=True)
    for bad in (np.nan, np.inf, complex(0.5, np.inf)):
        x = np.zeros((4 * 64, 2), type(bad))  # rows (e, v), columns (a, b): dims (2, 1, 64, 4)
        x[[3, 70, 200], [1, 0, 1]] = 0.5
        x[200, 1] = bad  # e = 3, v = 8, a = 1, b = 0
        with pytest.raises(NotAStateError) as dense:
            PurifiedState((2, 1, 64, 4), x, 1.0)
        store = Cells.build(x.shape, *np.nonzero(x), x[np.nonzero(x)])
        with pytest.raises(NotAStateError) as cells:
            PurifiedState((2, 1, 64, 4), store, 1.0)
        assert str(cells.value) == str(dense.value) and "(1, 0, 8, 3)" in str(cells.value)


def test_the_stabilizer_groups_act_on_the_frame_as_stated():
    """The oracle's groups are read from bacon_shor_9's frame, not from b:
    every stabilizer fixes every code column, and every gauge generator
    keeps the code span and acts on it as 1_A tensor g_B."""
    code = get("bacon_shor_9").dec.code_vectors()
    for s in STABILIZERS:
        np.testing.assert_array_equal(pauli_channel([s], [1.0]).stacked_product(code), code)
    for g in GAUGE:
        moved = pauli_channel([g], [1.0]).stacked_product(code)
        block = dag(code) @ moved
        assert np.abs(moved - code @ block).max() <= 1e-14
        g_b = (block[:16, :16] + block[16:, 16:]) / 2
        assert np.abs(block - kron(np.eye(2), g_b)).max() <= 1e-14
        assert np.abs(g_b).max() > 0.5


def test_b_c_and_d_agree_with_the_stabilizer_oracle():
    """On 40 seeded Pauli sets on bacon_shor_9, built as cells with random
    weights and Y phases, and on sets built to fail (X(0,0) beside
    X(0,1) X(0,2), whose product is logical X, and Z(0,0) beside Z(1,0)
    Z(2,0), logical Z), b, c and d each give the stabilizer verdict, at
    least 10 times each way, and the dense twin's residuals within 1e-14."""
    dec = get("bacon_shor_9").dec
    outcomes = []
    for paulis, weights in _ORACLE_SETS:
        want = correctable(paulis)
        cell, dense, gaps, _ = _twin_gaps(dec, pauli_channel(paulis, weights))
        assert cell == dense == [want] * 3, (paulis, cell, dense)
        assert max(gaps) <= 1e-14, (paulis, gaps)
        outcomes.append(want)
    assert outcomes[-2:] == [False, False]
    assert min(sum(outcomes), len(outcomes) - sum(outcomes)) >= 10, sum(outcomes)
