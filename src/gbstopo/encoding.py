"""Turn a complex-weighted graph into a simulated GBS machine program.

The adjacency matrix A is rescaled to A' = c*A + d*I so that its largest
singular value sits strictly below 1, then factorized as
A' = U diag(lambda) U^T with U unitary and lambda the singular values of
A' (Autonne/Takagi form), read off one real symmetric eigendecomposition
of twice the size; numpy alone does it, so encoding loads no scipy. The
per-mode squeezing parameters follow as r_i = atanh(lambda_i).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvariantError
from .graph import ComplexGraph, document_text, is_finite_number, source_text

RECON_TOL = 1e-10
SYM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GBSEncoding:
    """Machine program: rescaling constants, interferometer, squeezings."""

    c: float
    d: float
    u: np.ndarray
    lambdas: np.ndarray
    squeezings: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lambdas)


def _sigma_max(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def rescale(
    a: ComplexGraph, target_spectral: float = 0.7, d: float = 0.0
) -> tuple[float, np.ndarray]:
    """Find c such that A' = c*A + d*I has largest singular value
    target_spectral, and return (c, A').

    With d = 0 this is simply c = target / sigma_max(A). With 0 < |d| <
    target, c is bisected: the eigenvalues of cA + dI average d (A has a
    zero diagonal), so sigma_max(cA + dI) is convex in c, least (|d|) at
    c = 0, and crosses the target once below (target + |d|) / sigma_max(A).
    |d| >= target is a ValueError. A zero matrix forces c = 1 and A' = d*I
    (the target is unattainable there; d = 0 is an error).
    """
    if not 0.0 < target_spectral < 1.0:
        raise ValueError("target spectral value must lie in (0, 1)")
    w = a.weights
    smax = _sigma_max(w)
    if smax == 0.0:
        if d == 0.0:
            raise ValueError("zero matrix with d = 0 admits no rescaling")
        return 1.0, d * np.eye(a.n, dtype=complex)
    if d == 0.0:
        c = target_spectral / smax
        return c, c * w
    if not abs(d) < target_spectral:
        raise ValueError(
            f"d = {d} cannot reach target spectral value {target_spectral}: "
            f"the largest singular value of cA + dI is at least |d|"
        )
    eye = np.eye(a.n)
    lo, hi = 0.0, (target_spectral + abs(d)) / smax
    # Halve until no float lies strictly between lo and hi.
    while lo < (c := 0.5 * (lo + hi)) < hi:
        if _sigma_max(c * w + d * eye) < target_spectral:
            lo = c
        else:
            hi = c
    a_prime = hi * w + d * eye
    if abs(_sigma_max(a_prime) - target_spectral) > 1e-9:
        raise InvariantError(f"rescale bisection missed the target for d={d}")
    return hi, a_prime


def takagi(a_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize a complex symmetric matrix as A' = U diag(lam) U^T.

    Returns (U, lam), U unitary and lam the singular values of A',
    descending. For A' = B + iC, the n largest eigenpairs of the real
    symmetric [[B, C], [C, -B]] give lam and U = X + iY; columns at lam <=
    1e-8 lam_max + 1e-14 are completed from the null space of the rest.
    Each column's entry of largest modulus gets a positive real part (or
    imaginary part where that is 0), so U does not depend on the signs of
    the eigenvectors eigh returns.
    """
    a_prime = np.asarray(a_prime, dtype=complex)
    if a_prime.ndim != 2 or a_prime.shape[0] != a_prime.shape[1]:
        raise ValueError("input must be a square matrix")
    asym = float(np.max(np.abs(a_prime - a_prime.T))) if a_prime.size else 0.0
    if asym > SYM_TOL:
        raise ValueError(f"matrix is not symmetric (max deviation {asym:.2e})")
    n = a_prime.shape[0]
    b, c = a_prime.real, a_prime.imag
    w, v = np.linalg.eigh(np.block([[b, c], [c, -b]]))  # ascending
    sigma = np.maximum(w[n:][::-1], 0.0)
    u = (v[:n, n:] + 1j * v[n:, n:])[:, ::-1]
    kept = int(np.count_nonzero(sigma > 1e-8 * sigma.max(initial=0.0) + 1e-14))
    null = np.linalg.qr(u[:, :kept], mode="complete")[0][:, kept:]
    u = np.hstack([u[:, :kept], null])
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(n)]
    sign = np.where(np.where(lead.real != 0, lead.real, lead.imag) < 0, -1, 1)
    return u * sign + 0.0, sigma  # + 0.0 turns each -0.0 into 0.0


def reconstruct(u: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Evaluate U diag(lam) U^T."""
    u = np.asarray(u, dtype=complex)
    lambdas = np.asarray(lambdas, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[1] != len(lambdas):
        raise ValueError("dimension mismatch between U and lambdas")
    return u @ np.diag(lambdas) @ u.T


def encode(
    a: ComplexGraph, target_spectral: float = 0.7, d: float = 0.0
) -> GBSEncoding:
    """Full graph-to-machine encoding; validates its own reconstruction."""
    c, a_prime = rescale(a, target_spectral, d)
    u, lambdas = takagi(a_prime)
    if lambdas[0] >= 1.0:
        raise ValueError(
            f"largest Takagi value {lambdas[0]} >= 1; reduce target or |d|"
        )
    err = float(np.max(np.abs(reconstruct(u, lambdas) - a_prime)))
    _validate(InvariantError, u, reconstruction=err)
    squeezings = np.arctanh(lambdas)
    return GBSEncoding(c=c, d=d, u=u, lambdas=lambdas, squeezings=squeezings)


def _validate(error: type[Exception], u: np.ndarray, **deviations) -> None:
    """Raise `error`, listing every deviation, if one exceeds RECON_TOL.
    The distance of u from unitarity is always one of them."""
    unit = u.conj().T @ u - np.eye(len(u))
    deviations["unitarity"] = float(np.max(np.abs(unit)))
    if max(deviations.values()) > RECON_TOL:
        raise error("encoding failed validation: " + ", ".join(
            f"{name} {value:.2e}" for name, value in deviations.items()
        ))


def save_encoding(e: GBSEncoding, *, provenance: dict | None = None) -> bytes:
    u_flat = [
        {"re": z.real, "im": z.imag} for z in e.u.reshape(-1)
    ]
    doc = {
        "n": e.n,
        "c": e.c,
        "d": e.d,
        "lambdas": [float(x) for x in e.lambdas],
        "squeezings": [float(x) for x in e.squeezings],
        "u": u_flat,
    }
    return document_text(doc, provenance).encode("utf-8")


def load_encoding(source: bytes | str) -> GBSEncoding:
    source = source_text(source)
    try:
        doc = json.loads(source)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"encoding document is not valid JSON: {exc}") from exc
    n = doc.get("n") if isinstance(doc, dict) else None
    if type(n) is not int or n < 1:
        raise FormatError(f"encoding n must be a positive integer, got {n!r}")
    for key in ("lambdas", "squeezings"):
        v = doc.get(key)
        if not (isinstance(v, list) and len(v) == n
                and all(map(is_finite_number, v))):
            raise FormatError(f"encoding {key} must be a list of {n} finite numbers")
    if not all(0 <= lam < 1 for lam in doc["lambdas"]):
        raise FormatError("encoding lambdas must lie in [0, 1)")
    u = doc.get("u")
    if not (isinstance(u, list) and len(u) == n * n
            and all(isinstance(rec, dict) for rec in u)):
        raise FormatError(f"encoding u must be a list of {n * n} {{re, im}} records")
    numbers = [doc.get("c"), doc.get("d")]
    numbers += [rec.get(part) for rec in u for part in ("re", "im")]
    if not all(map(is_finite_number, numbers)):
        raise FormatError("encoding c, d and each re, im of u must be finite numbers")
    # A unitary's entries have modulus <= 1; far larger ones overflow u^H u.
    if not all(abs(x) <= 1 + RECON_TOL for x in numbers[2:]):
        raise FormatError("encoding u is not unitary: a re or im exceeds 1")
    u = np.array([complex(rec["re"], rec["im"]) for rec in u]).reshape(n, n)
    lambdas = np.array(doc["lambdas"], dtype=float)
    squeezings = np.array(doc["squeezings"], dtype=float)
    # The checks encode runs, less the reconstruction: A' is not stored.
    _validate(
        FormatError, u,
        squeezings=float(np.max(np.abs(squeezings - np.arctanh(lambdas)))),
    )
    return GBSEncoding(
        c=float(doc["c"]), d=float(doc["d"]), u=u, lambdas=lambdas,
        squeezings=squeezings,
    )
