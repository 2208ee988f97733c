"""Curvature machinery for admissible surfaces in isotropic space.

The isotropic semi-norm of (x, y, z) is sqrt(x^2 + y^2): lengths and angles
live in the top view, the projection onto z = 0. A surface point is
admissible when its tangent plane does not contain the vertical direction;
there the surface is locally a graph z = f(x, y) and its shape is carried
entirely by the Hessian of f. Principal curvatures are the Hessian
eigenvalues, H is their mean, K their product, and the normal curvature
along a unit top-view direction t is t . Hess(f) . t.

All fields of the jet containers (a ParamJet2 field is an (x, y, z) triple
of them) may be scalars or arrays that broadcast against one another; every
operation here is vectorized over that shape. Top-view directions carry
their vector in the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateK,
    InvalidParams,
    NonAdmissiblePoint,
    StencilOutOfDomain,
    Umbilic,
)

# Numerical floors, in the units of the quantity they guard.
K_EPS = 1e-12
JACOBIAN_EPS = 1e-12
UMBILIC_RTOL = 1e-10
FD_STEP = 1e-4
_SINGULAR = "top-view Jacobian is singular: tangent plane is isotropic"


@dataclass(frozen=True)
class ParamJet2:
    """Second-order jet of a parametric surface r(u, v). Each field is an
    (x, y, z) triple, a tuple or a (3, ...) array, of arrays or plain
    constants that broadcast against one another and against u and v; they
    are read-only by convention, as evaluate's may be the caller's u or v."""

    r: np.ndarray
    ru: np.ndarray
    rv: np.ndarray
    ruu: np.ndarray
    ruv: np.ndarray
    rvv: np.ndarray


@dataclass(frozen=True)
class Jet2Height:
    """Second-order jet of a height field z = f(x, y) at base point (x0, y0)."""

    x0: np.ndarray | float
    y0: np.ndarray | float
    f: np.ndarray | float
    fx: np.ndarray | float
    fy: np.ndarray | float
    fxx: np.ndarray | float
    fxy: np.ndarray | float
    fyy: np.ndarray | float


@dataclass(frozen=True)
class IsoCurvature:
    """Isotropic curvature data: k1 >= k2, d1/d2 unit top-view eigen directions."""

    H: np.ndarray | float
    K: np.ndarray | float
    k1: np.ndarray | float
    k2: np.ndarray | float
    d1: np.ndarray
    d2: np.ndarray
    umbilic: np.ndarray | bool


def fd_jet(surface: Callable, x0: float, y0: float) -> Jet2Height:
    """Independent 9-point central-difference jet of a height-field callable.

    Second-order accurate in its step h = FD_STEP. Used as the oracle against
    analytic jets; raises StencilOutOfDomain when any stencil evaluation
    fails or returns a non-finite value.
    """
    h = FD_STEP

    def ev(x, y):
        try:
            z = surface(x, y)
        except Exception as exc:
            raise StencilOutOfDomain(f"surface evaluation failed at ({x}, {y})") from exc
        z = float(z)
        if not np.isfinite(z):
            raise StencilOutOfDomain(f"non-finite surface value at ({x}, {y})")
        return z

    f00 = ev(x0, y0)
    fp0 = ev(x0 + h, y0)
    fm0 = ev(x0 - h, y0)
    f0p = ev(x0, y0 + h)
    f0m = ev(x0, y0 - h)
    fpp = ev(x0 + h, y0 + h)
    fpm = ev(x0 + h, y0 - h)
    fmp = ev(x0 - h, y0 + h)
    fmm = ev(x0 - h, y0 - h)
    return Jet2Height(
        x0=x0, y0=y0, f=f00,
        fx=(fp0 - fm0) / (2 * h),
        fy=(f0p - f0m) / (2 * h),
        fxx=(fp0 - 2 * f00 + fm0) / (h * h),
        fyy=(f0p - 2 * f00 + f0m) / (h * h),
        fxy=(fpp - fpm - fmp + fmm) / (4 * h * h),
    )


def monge_gradient(ru, rv):
    """Height gradient of the tangent plane spanned by the triples ru and rv.

    Returns (fx, fy, det, singular). det is the top-view Jacobian
    determinant xu yv - yu xv. singular is the package's one admissibility
    test: a point is not admissible (its tangent plane is vertical) where
    |det| <= JACOBIAN_EPS (xu^2 + yu^2 + xv^2 + yv^2), a bound that scales
    with the top-view frame. det is NaN there, so fx, fy and everything
    later divided by det come out NaN without a floating-point warning.
    """
    (xu, yu, zu), (xv, yv, zv) = ru, rv
    det = xu * yv - yu * xv
    scale = xu * xu + yu * yu + xv * xv + yv * yv
    singular = np.abs(det) <= JACOBIAN_EPS * np.maximum(scale, 1e-300)
    det = np.where(singular, np.nan, det)
    fx = (zu * yv - yu * zv) / det
    fy = (xu * zv - zu * xv) / det
    return fx, fy, det, singular


def monge_jet(jet: ParamJet2) -> tuple[Jet2Height, np.ndarray]:
    """Height-field 2-jet at the same point as a parametric 2-jet, vectorized.

    Never raises; returns the jet and the singular mask of monge_gradient,
    where the jet is NaN. Each field has the broadcast shape of its operands.
    """
    (x, y, z), (xu, yu, _zu), (xv, yv, _zv) = jet.r, jet.ru, jet.rv
    fx, fy, det, singular = monge_gradient(jet.ru, jet.rv)
    fxx, fxy, fyy = _hessian(det, fx, fy, xu, yu, xv, yv, *jet.ruu, *jet.ruv, *jet.rvv)
    return Jet2Height(x0=x, y0=y, f=z, fx=fx, fy=fy, fxx=fxx, fxy=fxy, fyy=fyy), singular


def _hessian(det, fx, fy, xu, yu, xv, yv, xuu, yuu, zuu, xuv, yuv, zuv, xvv, yvv, zvv):
    """(fxx, fxy, fyy) by the chain rule Hess = J^-1 Hp J^-T: J has rows (xu, yu),
    (xv, yv) and determinant det, Hp is the second-order data less its gradient
    part. Operators only: monge_jet's arrays and the Python floats of a trace
    stage (curves) take the same steps in the same order."""
    puu = zuu - fx * xuu - fy * yuu
    puv = zuv - fx * xuv - fy * yuv
    pvv = zvv - fx * xvv - fy * yvv
    a11, a12 = yv / det, -yu / det
    a21, a22 = -xv / det, xu / det
    # B = J^-1 Hp, one row at a time
    b1 = a11 * puu + a12 * puv
    b2 = a11 * puv + a12 * pvv
    fxx = b1 * a11 + b2 * a12
    fxy = b1 * a21 + b2 * a22
    b1 = a21 * puu + a22 * puv
    b2 = a21 * puv + a22 * pvv
    fyy = b1 * a21 + b2 * a22
    # fxy from either off-diagonal; they agree to rounding. Symmetrize.
    return fxx, 0.5 * (fxy + (b1 * a11 + b2 * a12)), fyy


def height_jet_from_param(jet: ParamJet2) -> Jet2Height:
    """monge_jet's jet; raises NonAdmissiblePoint where its singular mask is set."""
    hj, singular = monge_jet(jet)
    if singular.any():
        raise NonAdmissiblePoint(_SINGULAR)
    return hj


def relative_curvatures(j: Jet2Height):
    """Mean curvature H and relative curvature K of the Hessian, as (H, K)."""
    fxx = np.asarray(j.fxx, float)
    fyy = np.asarray(j.fyy, float)
    fxy = np.asarray(j.fxy, float)
    return 0.5 * (fxx + fyy), fxx * fyy - fxy * fxy


def isotropic_curvatures(j: Jet2Height) -> IsoCurvature:
    """Eigen-decompose the Hessian into isotropic curvature data.

    k1 >= k2 always; each direction is normalized with its first
    nonvanishing component positive. At umbilics (|k1 - k2| below
    UMBILIC_RTOL relative to max(|k1|, |k2|, 1)) the directions fall back
    to the coordinate axes and the umbilic flag is set.
    """
    H, K = relative_curvatures(j)
    fxx = np.asarray(j.fxx, float)
    fyy = np.asarray(j.fyy, float)
    fxy = np.asarray(j.fxy, float)
    half_gap = np.hypot(0.5 * (fxx - fyy), fxy)
    k1 = H + half_gap
    k2 = H - half_gap
    umb = np.abs(k1 - k2) <= UMBILIC_RTOL * np.maximum(np.maximum(np.abs(k1), np.abs(k2)), 1.0)

    # Eigenvector for k1: (fxy, k1 - fxx) or (k1 - fyy, fxy), whichever is
    # better conditioned; umbilics get the x-axis. The work is done on the
    # x and y components; sqrt(x*x + y*y) is, bit for bit, np.linalg.norm
    # over a length-2 axis (np.hypot is not).
    c1y = k1 - fxx
    c2x = k1 - fyy
    pick = np.sqrt(fxy * fxy + c1y * c1y) >= np.sqrt(c2x * c2x + fxy * fxy)
    x = np.where(pick, fxy, c2x)
    y = np.where(pick, c1y, fxy)
    n1 = np.sqrt(x * x + y * y)
    degenerate = (n1 == 0.0) | umb
    n1 = np.where(n1 == 0.0, 1.0, n1)
    x, y = _fix_sign(np.where(degenerate, 1.0, x / n1), np.where(degenerate, 0.0, y / n1))
    d2x, d2y = _fix_sign(-y, x)
    return IsoCurvature(H=H, K=K, k1=k1, k2=k2, d1=np.stack([x, y], axis=-1),
                        d2=np.stack([d2x, d2y], axis=-1), umbilic=umb)


def _fix_sign(x, y):
    """Flip each direction (x, y) so its first nonzero component is positive."""
    sign = np.where(np.where(np.abs(x) > 1e-14, x, y) < 0, -1.0, 1.0)
    return x * sign, y * sign


def euclidean_curvatures(j: Jet2Height):
    """Euclidean K, H and principal curvatures of the same Monge patch.

    Returns (K_e, H_e, k1_e, k2_e) with k1_e >= k2_e. Kept separate from
    the isotropic pipeline on purpose: several families satisfy curvature
    laws in one geometry only.
    """
    fx = np.asarray(j.fx, float)
    fy = np.asarray(j.fy, float)
    fx2, fy2 = fx * fx, fy * fy
    w2 = 1.0 + fx2 + fy2
    w = np.sqrt(w2)
    K_e = (j.fxx * j.fyy - j.fxy ** 2) / (w2 * w2)
    H_e = ((1.0 + fx2) * j.fyy - 2.0 * fx * fy * j.fxy + (1.0 + fy2) * j.fxx) / (2.0 * w2 * w)
    # k1, k2 are the eigenvalues of S = A Hess A / w, A = g^(-1/2) = I - c grad grad^T,
    # c = 1/(w (w + 1)): A Hess A = Hess - c (grad s^T + s grad^T) with
    # s = t - (c/2) (grad . t) grad, t = Hess grad, divides by no |grad|, and the
    # half-gap of S, as on the isotropic path, keeps its digits at an umbilic
    c = 1.0 / (w2 + w)
    tx, ty = j.fxx * fx + j.fxy * fy, j.fxy * fx + j.fyy * fy
    e = 0.5 * c * (fx * tx + fy * ty)
    sx, sy = tx - e * fx, ty - e * fy
    p = 0.5 * (j.fxx - j.fyy) - c * (fx * sx - fy * sy)
    q = j.fxy - c * (fx * sy + fy * sx)
    half_gap = np.hypot(p, q) / w
    return K_e, H_e, H_e + half_gap, H_e - half_gap


def principal_ratio_residual(k1, k2, a):
    """Principal-ratio residual, zero where k1/k2 or k2/k1 is a.

    min(|k1 - a k2|, |k2 - a k1|) / max(1, |k1|, |k2|).
    """
    scale = np.maximum(1.0, np.maximum(np.abs(k1), np.abs(k2)))
    return np.minimum(np.abs(k1 - a * k2), np.abs(k2 - a * k1)) / scale


def crpc_target(a: float) -> float:
    """Value of H^2/K shared by all surfaces whose curvature ratio is a.

    Raises InvalidParams for a = 0 and for a ratio whose target is not finite.
    """
    if a == 0:
        raise InvalidParams(f"{a!r} is not a nonzero ratio")
    try:
        target = (a + 1.0) ** 2 / (4.0 * a)
    except OverflowError:
        target = math.inf
    if not math.isfinite(target):
        raise InvalidParams(f"{a!r} gives no finite target (a+1)^2/(4a)")
    return target


def ratio_law_residual(hj: Jet2Height, H, K, a: float, euclidean: bool):
    """The ratio law's residual of a Monge jet hj with relative curvatures H, K.

    Euclidean: principal_ratio_residual of hj's Euclidean principal
    curvatures. Isotropic: H^2/K - crpc_target(a), NaN where |K| < K_EPS.
    Overflow (a nearly flat chart) gives inf or NaN, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if euclidean:
            _K, _H, k1, k2 = euclidean_curvatures(hj)
            return principal_ratio_residual(k1, k2, a)
        return np.where(np.abs(K) < K_EPS, np.nan, H * H / K - crpc_target(a))


def normal_curvature(j: Jet2Height, t) -> np.ndarray | float:
    """Normal curvature t . Hess(f) . t along a unit top-view direction."""
    t = np.asarray(t, float)
    t1, t2 = t[..., 0], t[..., 1]
    return j.fxx * t1 * t1 + 2.0 * j.fxy * t1 * t2 + j.fyy * t2 * t2


def characteristic_directions(j: Jet2Height):
    """The two characteristic top-view directions at a non-degenerate point.

    For K < 0 these are the asymptotic directions (normal curvature zero).
    For K > 0 they are the conjugate pair symmetric with respect to the
    principal directions: t = cos(phi) d1 +- sin(phi) d2 with
    tan^2(phi) = k1/k2. Both cases come out of the same formula with
    tan^2(phi) = |k1/k2|.

    Returns (t_plus, t_minus), unit vectors of shape (..., 2).
    Raises Umbilic at umbilics and DegenerateK when K ~ 0.
    """
    c = isotropic_curvatures(j)
    if c.umbilic.any():
        raise Umbilic("characteristic directions undefined at an umbilic")
    if (np.abs(np.asarray(c.K, float)) < K_EPS).any():
        raise DegenerateK("characteristic directions undefined where K = 0")
    # k2 rounds to 0 where |k1| >> |k2| (K is computed apart): the ratio is
    # then inf, and phi its limit pi/2
    with np.errstate(divide="ignore"):
        ratio = np.abs(np.asarray(c.k1, float) / np.asarray(c.k2, float))
    phi = np.arctan(np.sqrt(ratio))
    cph, sph = np.cos(phi), np.sin(phi)
    # Build on the rigid frame (d1, rot90 d1): d2's own sign normalization
    # may flip relative to d1 between nearby points, which would silently
    # swap the +/- branches along a trace.
    d2r = np.stack([-c.d1[..., 1], c.d1[..., 0]], axis=-1)
    tp = cph[..., None] * c.d1 + sph[..., None] * d2r
    tm = cph[..., None] * c.d1 - sph[..., None] * d2r
    return tp, tm
