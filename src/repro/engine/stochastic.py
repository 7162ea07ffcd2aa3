"""Mini-batch stochastic update path: scheduler, workspace, SGD/SVRG kernels.

Full-batch updates (multiplicative or gradient) pay ``O(N M K)`` per
iteration; the paper's Proposition 1 cost is dominated by exactly these
full-matrix passes.  Following the stochastic-subsampling literature
(Mensch et al.; Zhao et al., see PAPERS.md), this module amortizes them
over mini-batches of rows:

- :class:`BatchScheduler` — deterministic epoch planning: batch size
  (clamped to ``N``), per-epoch shuffling from explicit
  ``np.random.Generator`` seeds, and step-size decay
  ``lr / (1 + decay * epoch)``;
- :class:`StochasticWorkspace` — per-fit mutable state the frozen
  :class:`~repro.engine.kernels.KernelContext` cannot carry: the epoch
  counter, a reused residual buffer (one allocation per fit, not per
  batch), SVRG anchors, and the per-epoch telemetry accumulators
  (sampled-objective estimates, rows-touched counts);
- ``sgd`` / ``svrg`` update kernels — registered beside
  ``multiplicative`` and ``gradient`` so every model in the NMF family
  picks them up through the same registry seam.

One engine *iteration* of a stochastic kernel is one **epoch**: a full
pass over the shuffled mini-batches.  Within each batch the kernel
takes a projected-gradient step on the batch rows of ``U`` and a
scaled stochastic step on the live columns of ``V`` (the SMFL landmark
block stays frozen, exactly as in the full-batch rules).  With
``batch_size >= N``, ``shuffle=False`` and ``decay=0`` both kernels
reduce to the full-batch ``gradient`` kernel — the reduction the
equivalence tests pin down.

SVRG note: the ``U`` gradient is row-separable, so the variance-reduction
correction cancels identically on the batch rows of ``U`` and only the
shared factor ``V`` receives the corrected estimate
``g_B(w) - g_B(w_anchor) + mu(w_anchor)`` (anchor refreshed every epoch).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..exceptions import ValidationError
from ..validation import check_in_range, check_positive_int
from .kernels import KernelContext, UpdateKernel, register_kernel
from .workspace import BufferArena

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "STOCHASTIC_KERNELS",
    "BatchScheduler",
    "StochasticWorkspace",
    "SGDKernel",
    "SVRGKernel",
    "gathered_batch_u_step",
    "sgd_grad_v",
    "apply_v_step",
]

DEFAULT_BATCH_SIZE = 64
"""Rows per mini-batch when the caller does not choose one."""

STOCHASTIC_KERNELS: tuple[str, ...] = ("sgd", "svrg")
"""Kernel names that require a :class:`BatchScheduler` + workspace."""


class BatchScheduler:
    """Plans the mini-batch epochs of one stochastic fit.

    Parameters
    ----------
    n_rows:
        Number of rows ``N`` of the data matrix.
    batch_size:
        Rows per batch; ``None`` means ``min(DEFAULT_BATCH_SIZE, N)``.
        Oversized requests (``batch_size > N``) are clamped to ``N``
        rather than rejected — a single full batch is a valid epoch.
    shuffle:
        Shuffle the row order each epoch.  Epoch ``e`` draws its
        permutation from ``np.random.default_rng((seed, e))``, so the
        schedule is a pure function of ``(seed, epoch)`` — replaying an
        epoch never depends on how many epochs ran before it.
    seed:
        Explicit integer seed of the shuffling stream.
    learning_rate:
        Base step size.
    decay:
        Step-size decay rate: epoch ``e`` steps with
        ``learning_rate / (1 + decay * e)``.
    """

    def __init__(
        self,
        n_rows: int,
        *,
        batch_size: int | None = None,
        shuffle: bool = True,
        seed: int = 0,
        learning_rate: float = 1e-3,
        decay: float = 0.0,
    ) -> None:
        self.n_rows = check_positive_int(n_rows, name="n_rows")
        if batch_size is None:
            batch_size = min(DEFAULT_BATCH_SIZE, self.n_rows)
        batch_size = check_positive_int(batch_size, name="batch_size")
        self.batch_size = min(batch_size, self.n_rows)
        self.shuffle = bool(shuffle)
        self.seed = int(seed)
        self.learning_rate = check_in_range(
            learning_rate, name="learning_rate", low=0.0, low_inclusive=False
        )
        self.decay = check_in_range(decay, name="decay", low=0.0)

    @property
    def n_batches(self) -> int:
        """Batches per epoch (the last one may be smaller)."""
        return -(-self.n_rows // self.batch_size)

    def step_size(self, epoch: int) -> float:
        """Learning rate of ``epoch`` under the decay schedule."""
        return self.learning_rate / (1.0 + self.decay * epoch)

    def batches(self, epoch: int) -> Iterator[np.ndarray]:
        """Yield the row-index arrays of one epoch, in schedule order."""
        if self.shuffle:
            order = np.random.default_rng((self.seed, epoch)).permutation(self.n_rows)
        else:
            order = np.arange(self.n_rows)
        for start in range(0, self.n_rows, self.batch_size):
            yield order[start : start + self.batch_size]


class StochasticWorkspace(BufferArena):
    """Per-fit mutable state shared by the stochastic kernels.

    The :class:`~repro.engine.kernels.KernelContext` is a frozen,
    per-fit object; everything a stochastic kernel must *mutate*
    between steps lives here instead: the epoch counter, the named
    scratch buffers (batch gathers, gradient blocks, SVRG anchors —
    one allocation per fit, not per batch; see :class:`BufferArena`),
    the ping-pong output factors, and the per-epoch telemetry
    accumulators that land in
    :attr:`~repro.engine.FitReport.sampled_objectives` and
    :attr:`~repro.engine.FitReport.rows_touched`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.epoch: int = 0
        self.sampled_objectives: list[float] = []
        self.rows_touched: list[int] = []
        self._residual: np.ndarray | None = None
        # SVRG anchor: residual of the epoch-start iterate plus the full
        # data-term gradient of V at that iterate (views into reused
        # buffers, refreshed every epoch).
        self.anchor_u: np.ndarray | None = None
        self.anchor_residual: np.ndarray | None = None
        self.anchor_grad_v: np.ndarray | None = None

    def residual_buffer(self, n_rows: int, n_cols: int) -> np.ndarray:
        """A ``(n_rows, n_cols)`` scratch view, reused across batches."""
        if self._residual is None or self._residual.shape[1] != n_cols or (
            self._residual.shape[0] < n_rows
        ):
            self._residual = np.empty((n_rows, n_cols), dtype=np.float64)
        return self._residual[:n_rows]

    def record_epoch(self, rows_touched: int, sampled_objective: float) -> None:
        """Close one epoch: store its telemetry and advance the counter."""
        self.rows_touched.append(int(rows_touched))
        self.sampled_objectives.append(float(sampled_objective))
        self.epoch += 1


def _require_schedule(ctx: KernelContext, kernel: str) -> tuple[
    BatchScheduler, StochasticWorkspace
]:
    if ctx.scheduler is None or ctx.workspace is None:
        raise ValidationError(
            f"the {kernel!r} kernel needs a BatchScheduler and a "
            "StochasticWorkspace in its KernelContext; construct the model "
            'with method="stochastic" (or build the context by hand)'
        )
    return ctx.scheduler, ctx.workspace


def _masked_residual(
    buffer: np.ndarray,
    u_rows: np.ndarray,
    v: np.ndarray,
    x_rows: np.ndarray,
    observed_rows: np.ndarray,
    unobserved_rows: np.ndarray | None = None,
) -> np.ndarray:
    """``R_O(U_B V - X_B)`` into ``buffer`` (no new allocation).

    ``unobserved_rows`` is the precomputed ``~observed_rows`` buffer;
    ``None`` falls back to allocating the negation (callers outside the
    buffered kernels).
    """
    np.matmul(u_rows, v, out=buffer)
    buffer -= x_rows
    if unobserved_rows is None:
        buffer[~observed_rows] = 0.0
    else:
        np.copyto(buffer, 0.0, where=unobserved_rows)
    return buffer


def _step_v(
    v: np.ndarray,
    grad_v: np.ndarray,
    lr: float,
    ctx: KernelContext,
    live: slice | None,
    workspace: StochasticWorkspace | None = None,
) -> None:
    """Projected step on the live part of ``V``, in place.

    ``live`` is the live-column slice when the frozen cells are the
    landmark prefix (``grad_v`` then only covers those columns); with a
    general frozen mask the whole update is computed and the frozen
    cells restored, exactly like the full-batch rules.  With a
    ``workspace``, ``grad_v`` is consumed as scratch (scaled in place)
    and the step allocates nothing.
    """
    if live is not None:
        if workspace is None:
            np.maximum(v[:, live] - lr * grad_v, 0.0, out=v[:, live])
            return
        grad_v *= lr
        tmp = workspace.buf("v_step", grad_v.shape)
        np.subtract(v[:, live], grad_v, out=tmp)
        np.maximum(tmp, 0.0, out=v[:, live])
        return
    updated = np.maximum(v - lr * grad_v, 0.0)
    if ctx.frozen_v is not None:
        updated = np.where(ctx.frozen_v, v, updated)
    v[...] = updated


def gathered_batch_u_step(
    workspace: StochasticWorkspace,
    u_rows: np.ndarray,
    x_rows: np.ndarray,
    observed_rows: np.ndarray,
    unobserved_rows: np.ndarray,
    v: np.ndarray,
    lr: float,
    cap: int,
    lap_term: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """The batch U-step math on pre-gathered row buffers.

    This is the bit-exact seam the in-core kernels and the out-of-core
    streaming path (:mod:`repro.oocore`) share: both gather their batch
    rows into the same workspace buffer layout and then run this exact
    operation sequence, so a sharded fit reduces to the in-core one
    bit-for-bit when the schedules align.

    Takes the projected step on ``u_rows`` in place and refreshes the
    masked residual at the updated rows.  ``lap_term`` is the
    pre-scaled spatial gradient block ``2 lam (L U)_B`` (``None`` when
    the graph term is off).  Returns ``(residual, sq)``: the refreshed
    residual buffer view and the pre-step squared-residual contribution
    to the epoch's sampled objective.
    """
    rows, k = u_rows.shape
    m = x_rows.shape[1]
    buffer = workspace.residual_buffer(rows, m)
    residual = _masked_residual(
        buffer, u_rows, v, x_rows, observed_rows, unobserved_rows
    )
    sq = float(np.vdot(residual, residual))
    # grad_U = 2 R_B V^T (+ 2 lam (L U)_B): scale the residual first,
    # exactly as the reference's ``2.0 * residual @ v.T`` binds.
    residual *= 2.0
    grad_u = workspace.buf("grad_u", (cap, k))[:rows]
    np.matmul(residual, v.T, out=grad_u)
    if lap_term is not None:
        grad_u += lap_term
    grad_u *= lr
    np.subtract(u_rows, grad_u, out=u_rows)
    np.maximum(u_rows, 0.0, out=u_rows)
    # V sees the refreshed residual at the updated batch rows — the
    # same U-then-V sequencing as the full-batch kernels.
    residual = _masked_residual(
        buffer, u_rows, v, x_rows, observed_rows, unobserved_rows
    )
    return residual, sq


def sgd_grad_v(
    workspace: StochasticWorkspace,
    u_rows: np.ndarray,
    residual: np.ndarray,
    live: slice,
    scale: float,
    cap: int,
    m: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The SGD V-gradient on the live columns, allocation-free.

    Scales ``u_rows`` into a C buffer and hands its transpose (an
    F-contiguous view) to the gemm — the exact operand layout of the
    reference's ``scale * u_rows.T @ residual[:, live]``, so callers on
    both the in-core and streaming paths produce bit-identical
    gradients.  ``out`` redirects the gemm into a caller-owned buffer
    (the parallel workers write into shared memory); ``None`` uses the
    workspace's named slot.
    """
    rows, k = u_rows.shape
    u_scaled = workspace.buf("u_rows_scaled", (cap, k))[:rows]
    np.multiply(u_rows, scale, out=u_scaled)
    grad_v = workspace.buf("grad_v", (k, m - live.start)) if out is None else out
    np.matmul(u_scaled.T, residual[:, live], out=grad_v)
    return grad_v


def apply_v_step(
    v: np.ndarray,
    grad_v: np.ndarray,
    lr: float,
    live: slice,
    workspace: StochasticWorkspace,
) -> None:
    """Projected V step on the live columns (landmark prefix frozen).

    The prefix-layout arm of :func:`_step_v`, exposed for callers that
    never carry a general frozen mask (the streaming/parallel paths);
    ``grad_v`` is consumed as scratch.
    """
    _step_v(v, grad_v, lr, None, live, workspace)


def _batch_u_step(
    x_observed: np.ndarray,
    observed: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    ctx: KernelContext,
    workspace: StochasticWorkspace,
    batch: np.ndarray,
    lr: float,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-batch U work shared by SGD and SVRG, allocation-free.

    Gathers the batch rows into reused buffers, takes the projected
    step on ``U_B`` via :func:`gathered_batch_u_step` (scattering back
    into ``u``), and refreshes the masked residual at the updated rows
    — the same U-then-V sequencing and operation order as the previous
    allocating implementation, so the results are bit-identical.

    Returns ``(u_rows, residual, sq)``: buffer views of the updated
    batch rows and their residual, plus the pre-step squared-residual
    contribution to the epoch's sampled objective.
    """
    rows = batch.shape[0]
    m = x_observed.shape[1]
    k = u.shape[1]
    x_rows = workspace.buf("x_rows", (cap, m))[:rows]
    observed_rows = workspace.buf("observed_rows", (cap, m), np.bool_)[:rows]
    unobserved_rows = workspace.buf("unobserved_rows", (cap, m), np.bool_)[:rows]
    u_rows = workspace.buf("u_rows", (cap, k))[:rows]
    np.take(x_observed, batch, axis=0, out=x_rows)
    np.take(observed, batch, axis=0, out=observed_rows)
    np.logical_not(observed_rows, out=unobserved_rows)
    np.take(u, batch, axis=0, out=u_rows)
    lap_term = None
    if ctx.lam != 0.0 and ctx.laplacian is not None:
        # Reads the pre-step rows of ``u`` (the scatter below has not
        # happened yet), exactly as the previous inline computation.
        lap_term = _laplacian_rows(ctx, u, batch)
        lap_term *= 2.0 * ctx.lam
    residual, sq = gathered_batch_u_step(
        workspace, u_rows, x_rows, observed_rows, unobserved_rows, v,
        lr, cap, lap_term,
    )
    u[batch] = u_rows
    return u_rows, residual, sq


def _live_slice(ctx: KernelContext, n_cols: int) -> slice | None:
    """Live-column slice under the landmark prefix layout, else ``None``.

    ``None`` with ``frozen_v`` set means a general (non-prefix) frozen
    mask; ``slice(0, None)`` means nothing is frozen at all.
    """
    if ctx.frozen_v is None:
        return slice(0, None)
    if ctx.frozen_prefix is None:
        return None
    return slice(min(ctx.frozen_prefix, n_cols), None)


def _laplacian_rows(ctx: KernelContext, u: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """``(L @ U)[batch]`` without forming the full product.

    Works for dense arrays and scipy sparse operators alike: both
    support row slicing followed by ``@``.
    """
    return np.asarray(ctx.laplacian[batch] @ u)


@register_kernel("sgd")
class SGDKernel(UpdateKernel):
    """Masked mini-batch projected SGD; one step = one epoch.

    Per batch ``B`` (in schedule order): a projected-gradient step on
    the rows ``U_B`` (including the spatial term ``2 lam (L U)_B`` when
    the context carries a Laplacian), then a step on the live columns
    of ``V`` from the batch gradient rescaled by ``N / |B|`` so it
    estimates the *full* objective gradient — which is what makes the
    ``batch_size=N`` case coincide with the ``gradient`` kernel.
    """

    needs_dense_laplacian = True

    def step(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        ctx: KernelContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        scheduler, workspace = _require_schedule(ctx, "sgd")
        n, m = x_observed.shape
        cap = scheduler.batch_size
        lr = scheduler.step_size(workspace.epoch)
        live = _live_slice(ctx, v.shape[1])
        out_u = workspace.out_for("u", u)
        np.copyto(out_u, u)
        u = out_u
        out_v = workspace.out_for("v", v)
        np.copyto(out_v, v)
        v = out_v
        sampled = 0.0
        touched = 0
        for batch in scheduler.batches(workspace.epoch):
            rows = batch.shape[0]
            u_rows, residual, sq = _batch_u_step(
                x_observed, observed, u, v, ctx, workspace, batch, lr, cap
            )
            sampled += sq
            scale = 2.0 * n / rows
            if live is not None:
                grad_v = sgd_grad_v(
                    workspace, u_rows, residual, live, scale, cap, m
                )
                _step_v(v, grad_v, lr, ctx, live, workspace)
            else:
                grad_v = scale * u_rows.T @ residual
                _step_v(v, grad_v, lr, ctx, live)
            touched += rows
        workspace.record_epoch(touched, sampled)
        return u, v


@register_kernel("svrg")
class SVRGKernel(UpdateKernel):
    """Mini-batch SVRG (anchor refreshed every epoch); one step = one epoch.

    The epoch-start iterate ``(U~, V~)`` is snapshotted together with
    its full masked residual and full data-term V-gradient ``mu_V``.
    Each batch then steps ``V`` with the variance-reduced estimate
    ``(N/|B|) (g_B(w) - g_B(w~)) + mu_V`` projected onto the
    non-negative orthant; the landmark block stays frozen.  ``U`` rows
    are separable, so their correction cancels identically and the
    ``U`` step equals the SGD step (see module docstring).
    """

    needs_dense_laplacian = True

    def step(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        ctx: KernelContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        scheduler, workspace = _require_schedule(ctx, "svrg")
        n, m = x_observed.shape
        k = u.shape[1]
        cap = scheduler.batch_size
        lr = scheduler.step_size(workspace.epoch)
        live = _live_slice(ctx, v.shape[1])
        # Epoch anchor: full residual + full data-term V gradient, built
        # in reused buffers (one allocation per fit, not per epoch).
        anchor_u = workspace.buf("anchor_u", (n, k))
        np.copyto(anchor_u, u)
        unobserved = workspace.buf("unobserved_full", (n, m), np.bool_)
        np.logical_not(observed, out=unobserved)
        anchor_residual = workspace.buf("anchor_residual", (n, m))
        np.matmul(anchor_u, v, out=anchor_residual)
        np.subtract(anchor_residual, x_observed, out=anchor_residual)
        np.copyto(anchor_residual, 0.0, where=unobserved)
        anchor_u2 = workspace.buf("anchor_u_x2", (n, k))
        np.multiply(anchor_u, 2.0, out=anchor_u2)
        if live is not None:
            anchor_grad_v = workspace.buf("anchor_grad_v", (k, m - live.start))
            np.matmul(anchor_u2.T, anchor_residual[:, live], out=anchor_grad_v)
        else:
            anchor_grad_v = workspace.buf("anchor_grad_v", (k, m))
            np.matmul(anchor_u2.T, anchor_residual, out=anchor_grad_v)
        workspace.anchor_u = anchor_u
        workspace.anchor_residual = anchor_residual
        workspace.anchor_grad_v = anchor_grad_v
        out_u = workspace.out_for("u", u)
        np.copyto(out_u, u)
        u = out_u
        out_v = workspace.out_for("v", v)
        np.copyto(out_v, v)
        v = out_v
        sampled = 0.0
        touched = 0
        for batch in scheduler.batches(workspace.epoch):
            rows = batch.shape[0]
            u_rows, residual, sq = _batch_u_step(
                x_observed, observed, u, v, ctx, workspace, batch, lr, cap
            )
            sampled += sq
            scale = 2.0 * n / rows
            anchor_rows = workspace.buf("anchor_rows", (cap, m))[:rows]
            np.take(anchor_residual, batch, axis=0, out=anchor_rows)
            anchor_u_rows = workspace.buf("anchor_u_rows", (cap, k))[:rows]
            np.take(anchor_u, batch, axis=0, out=anchor_u_rows)
            if live is not None:
                grad_v = workspace.buf("grad_v", (k, m - live.start))
                np.matmul(u_rows.T, residual[:, live], out=grad_v)
                grad_v2 = workspace.buf("grad_v2", (k, m - live.start))
                np.matmul(anchor_u_rows.T, anchor_rows[:, live], out=grad_v2)
                np.subtract(grad_v, grad_v2, out=grad_v)
                grad_v *= scale
                grad_v += anchor_grad_v
                _step_v(v, grad_v, lr, ctx, live, workspace)
            else:
                grad_v = (
                    scale * (u_rows.T @ residual - anchor_u_rows.T @ anchor_rows)
                    + anchor_grad_v
                )
                _step_v(v, grad_v, lr, ctx, live)
            touched += rows
        workspace.record_epoch(touched, sampled)
        return u, v
