"""CAMF: Clustered Adversarial Matrix Factorization [42].

Wang-Tan-Zhou combine matrix factorization with a GAN-style critic to
impute structured missing values in spatial data: the factorization
reconstructs the matrix, a clustering of the tuples regularises the row
factors toward their cluster centroids, and a discriminator scores
whether reconstructed rows look like observed rows.  The generator
(here: the factor pair U, V) is trained against reconstruction +
cluster + adversarial losses.

This numpy implementation keeps all three components.  As in the paper
under reproduction, CAMF has no access to the spatial-neighbourhood
graph, which is why it underperforms SMFL on spatially smooth data.
The published implementation also materialises large dense
cluster-affinity structures, which is what drives it out of memory on
the 100k-row Vehicle dataset (Table IV's OOM entry).
"""

from __future__ import annotations

import numpy as np

from ..clustering.kmeans import KMeans
from ..engine import IterativeEngine, Solver, Telemetry
from ..exceptions import ValidationError
from ..masking.mask import ObservationMask
from ..validation import check_positive_int, resolve_rng
from .base import Imputer, column_mean_fill
from .neural import MLP, Adam

__all__ = ["CAMFImputer"]


class _CAMFSolver(Solver):
    """One alternating epoch: a discriminator step, then a (U, V) step.

    The state is the factor pair ``(U, V)``; the discriminator and its
    optimiser live on the solver.  Training runs for a fixed epoch
    budget (``converged`` always says "keep going"); the monitored
    objective is the squared observed-cell reconstruction error
    ``||P_Omega(UV - X)||^2`` of the factors the epoch started from.
    """

    name = "camf"

    def __init__(
        self,
        imputer: "CAMFImputer",
        x_observed: np.ndarray,
        observed: np.ndarray,
        filled: np.ndarray,
        clusters: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        m = x_observed.shape[1]
        self.imputer = imputer
        self.x_observed = x_observed
        self.observed = observed
        self.filled = filled
        self.clusters = clusters
        # The clustering is fixed, so each centroid's member rows are too.
        self.members = [
            np.flatnonzero(clusters == c) for c in range(imputer.n_clusters)
        ]
        self.discriminator = MLP(
            [m, max(m, 4), 1],
            hidden_activation="relu",
            output_activation="sigmoid",
            random_state=rng,
        )
        self.d_opt = Adam(imputer.learning_rate)
        self.real_grads = np.empty_like(self.discriminator.grads)
        self.loss = float("nan")

    def step(self, state):
        u, v = state
        imputer = self.imputer
        disc = self.discriminator
        n = u.shape[0]
        eps = 1e-7
        recon = u @ v
        residual = self.observed * (recon - self.x_observed)
        self.loss = float(np.vdot(residual, residual))

        # Cluster centroids of the current row factors.
        centroids = np.zeros((imputer.n_clusters, u.shape[1]))
        for c, rows in enumerate(self.members):
            if rows.size:
                centroids[c] = u[rows].mean(axis=0)

        # ------------------------- discriminator step
        # Real and fake passes accumulate into one flat gradient.
        d_real = disc.forward(self.filled)
        disc.backward(-(1.0 / np.clip(d_real, eps, 1.0)) / n, input_grad=False)
        self.real_grads[...] = disc.grads
        d_fake = disc.forward(recon)
        disc.backward((1.0 / np.clip(1.0 - d_fake, eps, 1.0)) / n, input_grad=False)
        disc.grads += self.real_grads
        self.d_opt.step(disc.params, disc.grads)

        # ------------------------- generator (U, V) step
        d_fake = disc.forward(recon)
        grad_adv_out = -imputer.beta * (1.0 / np.clip(d_fake, eps, 1.0)) / n
        grad_recon_adv = disc.backward(grad_adv_out, param_grads=False)

        grad_recon = 2.0 * residual + grad_recon_adv
        grad_u = grad_recon @ v.T + 2.0 * imputer.gamma * (u - centroids[self.clusters])
        grad_v = u.T @ grad_recon
        u = np.maximum(u - imputer.learning_rate * grad_u, 0.0)
        v = np.maximum(v - imputer.learning_rate * grad_v, 0.0)
        return u, v

    def objective(self, state) -> float:
        return self.loss

    def converged(self, state, monitor) -> bool:
        return False


class CAMFImputer(Imputer):
    """Clustered adversarial matrix factorization.

    Parameters
    ----------
    rank:
        Factorization rank.
    n_clusters:
        Cluster count of the row-factor regulariser.
    gamma:
        Weight of the cluster-centroid penalty on U.
    beta:
        Weight of the adversarial penalty.
    n_epochs:
        Alternating training iterations.
    learning_rate:
        Step size for U, V and the discriminator.
    random_state:
        Seed or Generator.
    """

    name = "camf"

    def __init__(
        self,
        rank: int = 5,
        *,
        n_clusters: int = 5,
        gamma: float = 0.1,
        beta: float = 0.05,
        n_epochs: int = 300,
        learning_rate: float = 5e-3,
        random_state: object = None,
    ) -> None:
        self.rank = check_positive_int(rank, name="rank")
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters")
        if gamma < 0 or beta < 0:
            raise ValidationError("gamma and beta must be non-negative")
        self.gamma = float(gamma)
        self.beta = float(beta)
        self.n_epochs = check_positive_int(n_epochs, name="n_epochs")
        self.learning_rate = float(learning_rate)
        self.random_state = random_state

    def _impute_missing(
        self, x_observed: np.ndarray, mask: ObservationMask
    ) -> np.ndarray:
        rng = resolve_rng(self.random_state)
        observed = mask.observed.astype(np.float64)
        n, m = x_observed.shape
        rank = min(self.rank, min(n, m))

        filled = column_mean_fill(x_observed, mask.observed)
        clusters = KMeans(
            n_clusters=min(self.n_clusters, n), random_state=rng
        ).fit_predict(filled)

        scale = np.sqrt(max(float(filled.mean()), 1e-3) / rank)
        u = rng.random((n, rank)) * scale
        v = rng.random((rank, m)) * scale
        solver = _CAMFSolver(self, x_observed, observed, filled, clusters, rng)
        telemetry = Telemetry(method=self.name, track_deltas=False)
        engine = IterativeEngine(
            max_iter=self.n_epochs, tol=0.0, callbacks=(telemetry,)
        )
        u, v = engine.run(solver, (u, v)).state
        self.fit_report_ = telemetry.report()
        return u @ v
