"""Linear latent autoencoder (the "pretrained autoencoder" of the paper).

Stable Diffusion trains its diffusion process in the latent space of a
pretrained autoencoder to balance "detail retention and complexity
reduction" (§3.1).  At NumPy scale the equivalent with an exact closed
form is a whitened PCA codec: flows (flattened nprint matrices plus the
timing channel) are projected onto the top-k principal components, scaled
to unit variance so the diffusion prior N(0, I) matches the data, and
decoded back by the transpose.

The Gram-matrix trick keeps fitting cheap in the common regime here
(n_samples << n_features: hundreds of flows, ~70k bit columns).

Memory-mapped training matrices: ``fit``/``encode`` accept a float32
``np.memmap`` (the pipeline's ``memmap_dir`` fit tier writes one) and
switch to a row-blocked path that never materialises the full ``(n, D)``
matrix in RAM — only one ~64 MB block of centred rows at a time.
"""

from __future__ import annotations

import numpy as np

#: target bytes per row block on the low-memory (memmap) paths.
_LOWMEM_BLOCK_BYTES = 64 << 20


def _lowmem_block_rows(dim: int, itemsize: int = 4) -> int:
    return max(1, _LOWMEM_BLOCK_BYTES // max(dim * itemsize, 1))


def _is_lowmem_input(X) -> bool:
    return isinstance(X, np.memmap) and X.dtype == np.float32 and X.ndim == 2


class LatentCodec:
    """Whitened PCA encoder/decoder over flattened flow representations."""

    def __init__(self, latent_dim: int = 96, eps: float = 1e-6):
        if latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        self.latent_dim = latent_dim
        self.eps = eps
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None  # (D, k)
        self.scales_: np.ndarray | None = None  # per-latent std
        self.explained_variance_ratio_: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.components_ is not None

    def fit(self, X: np.ndarray) -> "LatentCodec":
        """Fit on ``(n, D)`` training vectors; k is capped at n-1 and D."""
        if _is_lowmem_input(X):
            return self._fit_lowmem(X)
        # float32 throughout: the feature matrices are ternary bits plus a
        # bounded timing channel, so single precision loses nothing and
        # halves the memory of the (n, ~70k) working set.
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got {X.shape}")
        n, dim = X.shape
        if n < 2:
            raise ValueError("need at least 2 samples to fit the codec")
        k = min(self.latent_dim, n - 1, dim)
        self.mean_ = X.mean(axis=0)
        Xc = X - self.mean_
        if n <= dim:
            # Gram trick: eigendecompose the (n, n) matrix instead of (D, D).
            gram = (Xc @ Xc.T).astype(np.float64)
            eigvals, eigvecs = np.linalg.eigh(gram)
            order = np.argsort(eigvals)[::-1][:k]
            eigvals = np.maximum(eigvals[order], self.eps)
            u = (eigvecs[:, order] / np.sqrt(eigvals)[None, :]).astype(np.float32)
            components = Xc.T @ u  # (D, k)
            singular_sq = eigvals
        else:
            cov = (Xc.T @ Xc).astype(np.float64)
            eigvals, eigvecs = np.linalg.eigh(cov)
            order = np.argsort(eigvals)[::-1][:k]
            singular_sq = np.maximum(eigvals[order], self.eps)
            components = eigvecs[:, order].astype(np.float32)
        self.components_ = components
        # Per-component standard deviation of the projected data.
        self.scales_ = np.sqrt(singular_sq / max(n - 1, 1)) + self.eps
        total_var = max(float((Xc ** 2).sum()) / max(n - 1, 1), self.eps)
        self.explained_variance_ratio_ = (singular_sq / max(n - 1, 1)) / total_var
        self.latent_dim = k
        return self

    def _fit_lowmem(self, X: np.memmap) -> "LatentCodec":
        """Row-blocked fit over a float32 memmap; peak RAM ~ one block."""
        n, dim = X.shape
        if n < 2:
            raise ValueError("need at least 2 samples to fit the codec")
        k = min(self.latent_dim, n - 1, dim)
        block = _lowmem_block_rows(dim)
        # np.mean pages through the memmap with the same pairwise reduction
        # as an in-RAM array, so the mean matches the dense path exactly.
        self.mean_ = np.asarray(X.mean(axis=0))
        mean = self.mean_
        total_sq = 0.0
        if n <= dim:
            # Gram trick, two centred blocks at a time.  Each gram element
            # is still a full-D float32 dot, so the eigendecomposition sees
            # the same matrix as the dense path up to gemm tiling.
            gram = np.empty((n, n), dtype=np.float64)
            for i0 in range(0, n, block):
                Xi = X[i0:i0 + block] - mean
                total_sq += float((Xi ** 2).sum())
                for j0 in range(i0, n, block):
                    Xj = Xi if j0 == i0 else X[j0:j0 + block] - mean
                    g = (Xi @ Xj.T).astype(np.float64)
                    gram[i0:i0 + len(Xi), j0:j0 + len(Xj)] = g
                    if j0 != i0:
                        gram[j0:j0 + len(Xj), i0:i0 + len(Xi)] = g.T
            eigvals, eigvecs = np.linalg.eigh(gram)
            order = np.argsort(eigvals)[::-1][:k]
            eigvals = np.maximum(eigvals[order], self.eps)
            u = (eigvecs[:, order] / np.sqrt(eigvals)[None, :]).astype(np.float32)
            components = np.zeros((dim, k), dtype=np.float32)
            for i0 in range(0, n, block):
                Xi = X[i0:i0 + block] - mean
                components += Xi.T @ u[i0:i0 + len(Xi)]
            singular_sq = eigvals
        else:
            cov = np.zeros((dim, dim), dtype=np.float64)
            for i0 in range(0, n, block):
                Xi = X[i0:i0 + block] - mean
                total_sq += float((Xi ** 2).sum())
                cov += (Xi.T @ Xi).astype(np.float64)
            eigvals, eigvecs = np.linalg.eigh(cov)
            order = np.argsort(eigvals)[::-1][:k]
            singular_sq = np.maximum(eigvals[order], self.eps)
            components = eigvecs[:, order].astype(np.float32)
        self.components_ = components
        self.scales_ = np.sqrt(singular_sq / max(n - 1, 1)) + self.eps
        total_var = max(total_sq / max(n - 1, 1), self.eps)
        self.explained_variance_ratio_ = (singular_sq / max(n - 1, 1)) / total_var
        self.latent_dim = k
        return self

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Project to whitened latents ``(n, k)`` (unit variance on train)."""
        if not self.is_fitted:
            raise RuntimeError("encode before fit")
        if _is_lowmem_input(X):
            n, dim = X.shape
            block = _lowmem_block_rows(dim)
            out = np.empty((n, self.latent_dim), dtype=np.float64)
            for i0 in range(0, n, block):
                scores = (X[i0:i0 + block] - self.mean_) @ self.components_
                out[i0:i0 + len(scores)] = scores / self.scales_
            return out
        X = np.asarray(X, dtype=np.float32)
        scores = (X - self.mean_) @ self.components_
        return (scores / self.scales_).astype(np.float64)

    def decode(self, Z: np.ndarray) -> np.ndarray:
        """Reconstruct ``(n, D)`` vectors from latents."""
        if not self.is_fitted:
            raise RuntimeError("decode before fit")
        Z = np.asarray(Z, dtype=np.float64)
        scaled = (Z * self.scales_).astype(np.float32)
        # In-place mean add on the fresh product: same values as
        # ``mean_ + prod`` with one fewer (n, D) allocation.
        out = scaled @ self.components_.T
        out += self.mean_
        return out

    def reconstruction_error(self, X: np.ndarray) -> float:
        """Mean squared reconstruction error on ``X``."""
        X = np.asarray(X, dtype=np.float64)
        return float(np.mean((self.decode(self.encode(X)) - X) ** 2))
