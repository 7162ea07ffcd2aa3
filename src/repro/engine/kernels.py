"""Named update kernels wrapping :mod:`repro.core.updates`.

The factorization models used to branch on ``update_rule`` strings
inside ``_step``; the registry makes the update strategy a first-class,
pluggable object instead.  A kernel consumes one :class:`KernelContext`
(regularization weights, graph operators, learning rate, frozen
landmark mask) plus the current factors and returns the next factors —
so new update strategies (batched, stochastic, accelerated) register a
name and every model picks them up by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.updates import (
    frozen_column_prefix,
    gradient_update_u,
    gradient_update_v,
    multiplicative_update_u,
    multiplicative_update_v,
)
from ..exceptions import ValidationError

__all__ = [
    "KernelContext",
    "UpdateKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
]


@dataclass(frozen=True)
class KernelContext:
    """Everything an update kernel may need beyond the factors.

    ``similarity``/``laplacian`` may be scipy sparse operators; kernels
    only require them to support ``@``.
    """

    lam: float = 0.0
    similarity: object | None = None
    degree: np.ndarray | None = None
    laplacian: object | None = None
    learning_rate: float = 1e-3
    frozen_v: np.ndarray | None = None
    #: Mini-batch plan + per-fit mutable state, required by the
    #: stochastic kernels (see :mod:`repro.engine.stochastic`).
    scheduler: object | None = None
    workspace: object | None = None
    #: Per-fit :class:`~repro.engine.workspace.KernelWorkspace` for the
    #: allocation-free batch paths; ``None`` selects the reference
    #: (naive, allocating) update rules.
    kernel_workspace: object | None = None
    #: Set in __post_init__: L when frozen_v is the landmark layout
    #: (first L whole columns), letting kernels take the sliced
    #: live-column update without re-analysing the mask every step.
    frozen_prefix: int | None = None

    def __post_init__(self) -> None:
        if self.frozen_v is not None and self.frozen_prefix is None:
            object.__setattr__(
                self, "frozen_prefix", frozen_column_prefix(self.frozen_v)
            )


class UpdateKernel:
    """One named update strategy: ``(U, V, ctx) -> (U', V')``."""

    #: Registry key, set by :func:`register_kernel`.
    name: str = ""
    #: Whether the kernel applies ``ctx.laplacian`` as a dense matrix.
    #: Models hand the dense Laplacian only to kernels that set this;
    #: the others get the sparse operators alone.
    needs_dense_laplacian: bool = False

    def step(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        ctx: KernelContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one full update iteration (U then V, as in Algorithm 1)."""
        raise NotImplementedError


_REGISTRY: dict[str, UpdateKernel] = {}


def register_kernel(name: str) -> Callable[[type[UpdateKernel]], type[UpdateKernel]]:
    """Class decorator registering an :class:`UpdateKernel` under ``name``."""

    def deco(cls: type[UpdateKernel]) -> type[UpdateKernel]:
        cls.name = name
        _REGISTRY[name] = cls()
        return cls

    return deco


def available_kernels() -> tuple[str, ...]:
    """Registered kernel names (sorted)."""
    return tuple(sorted(_REGISTRY))


def get_kernel(name: str) -> UpdateKernel:
    """Look up a kernel by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown update kernel {name!r}; available: {available_kernels()}"
        ) from None


@register_kernel("multiplicative")
class MultiplicativeKernel(UpdateKernel):
    """Formulas 13-14: the self-adaptive multiplicative rule
    (monotone by Propositions 5 and 7)."""

    def step(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        ctx: KernelContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        ws = ctx.kernel_workspace
        if ws is not None:
            return ws.multiplicative_step(x_observed, observed, u, v, ctx)
        u = multiplicative_update_u(
            x_observed, observed, u, v,
            lam=ctx.lam, similarity=ctx.similarity, degree=ctx.degree,
        )
        v = multiplicative_update_v(
            x_observed, observed, u, v,
            frozen_v=ctx.frozen_v, frozen_prefix=ctx.frozen_prefix,
        )
        return u, v


@register_kernel("gradient")
class GradientKernel(UpdateKernel):
    """Section III-B1: projected gradient descent with a global step
    size (Figure 5's SMF-GD)."""

    needs_dense_laplacian = True

    def step(
        self,
        x_observed: np.ndarray,
        observed: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        ctx: KernelContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        ws = ctx.kernel_workspace
        if ws is not None:
            return ws.gradient_step(x_observed, observed, u, v, ctx)
        u = gradient_update_u(
            x_observed, observed, u, v,
            learning_rate=ctx.learning_rate, lam=ctx.lam, laplacian=ctx.laplacian,
        )
        v = gradient_update_v(
            x_observed, observed, u, v,
            learning_rate=ctx.learning_rate, frozen_v=ctx.frozen_v,
        )
        return u, v
