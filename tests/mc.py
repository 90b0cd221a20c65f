"""Monte-Carlo oracles for the averaging identities.

These estimate the defining integrals directly (uniform box sampling in an
orthonormal frame, uniform sampling of the fundamental parallelepiped) with
numpy floats; they are statistical cross-checks of the exact machinery, never
part of a certificate.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from oracles import enumerate_in_ball


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def chi_radius_sq_float(ctx, epsilon) -> float:
    m, g = ctx.m, ctx.g
    return ((m - float(Fraction(epsilon))) / unit_ball_volume(2 * g)) ** (1.0 / g)


def mc_j_value(ctx, r_sq, epsilon, n_samples: int, seed: int):
    """(estimate, standard_error) for the mean obstruction count J(r) from
    its definition: for each nonzero ring integer b, the x-integral of the
    chi indicator is estimated by uniform sampling of a box containing the
    chi ball slice, all b sharing the same sample stream."""
    g = ctx.g
    r_sq_f = float(Fraction(r_sq))
    big_r2 = chi_radius_sq_float(ctx, epsilon)
    # finite b-set (exact enumeration; the integral is what the oracle checks)
    margin = Fraction(r_sq) * Fraction(int(big_r2 * 2 ** 40) + 1, 2 ** 40)
    ok_gram = [list(r) for r in ctx.ok_gram]
    thresholds = []
    for v in enumerate_in_ball(ok_gram, None, margin):
        if not any(v):
            continue
        t = float(sum(ctx.ok_gram[i][j] * v[i] * v[j] for i in range(g) for j in range(g)))
        thr = big_r2 - t / r_sq_f
        if thr > 0:
            thresholds.append(thr)
    scale = math.sqrt(ctx.disc_abs) / r_sq_f ** (g / 2)
    if not thresholds:
        return 0.0, 0.0
    thr = np.sort(np.array(thresholds))
    half = math.sqrt(big_r2)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-half, half, size=(n_samples, g))
    q = (u * u).sum(axis=1)
    counts = len(thr) - np.searchsorted(thr, q, side="left")
    box_vol = (2 * half) ** g
    vals = counts * box_vol
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return scale * mean, scale * se


def mc_ball_slice(g: int, s: float, n_samples: int, seed: int):
    """(estimate, stderr) of vol{u in R^g : |u|^2 <= s} by box sampling."""
    if s <= 0:
        return 0.0, 0.0
    half = math.sqrt(s)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-half, half, size=(n_samples, g))
    hit = ((u * u).sum(axis=1) <= s).astype(float)
    box = (2 * half) ** g
    return box * float(hit.mean()), box * float(hit.std(ddof=1) / math.sqrt(n_samples))


def mc_fold_lhs(ctx, b_el, z_x, z_y, epsilon, n_samples: int, seed: int):
    """(estimate, stderr) of the integral over the fundamental parallelepiped
    of sum_a chi(a + x*b + z) at unit scale, by uniform sampling of x."""
    g = ctx.g
    s = chi_radius_sq_float(ctx, epsilon) - float((z_y * z_y.conj()).trace())
    if s <= 0:
        return 0.0, 0.0
    # affine map u -> codifferent coordinates of x*b + z_x for x = sum u_j a_j
    cols = [ctx.coords_in_codiff(a * b_el) for a in ctx.codiff_basis]
    m_map = np.array([[float(cols[j][i]) for j in range(g)] for i in range(g)])
    c0 = np.array([float(c) for c in ctx.coords_in_codiff(z_x)])
    gram_cd = np.array([[float(e) for e in row] for row in ctx.codiff_gram])

    # candidate lattice points: exact enumeration around the center of the
    # image of the unit box, inflated by its reach (triangle inequality)
    corners = np.array([[float(b) for b in bits] for bits in
                        np.ndindex(*(2,) * g)]) @ m_map.T + c0
    mid = corners.mean(axis=0)
    reach = max(math.sqrt(d @ gram_cd @ d) for d in corners - mid)
    rad = (math.sqrt(s) + reach + 1e-9) ** 2
    center = [-Fraction(c).limit_denominator(10 ** 9) for c in mid]
    cands = enumerate_in_ball([list(r) for r in ctx.codiff_gram], center,
                              Fraction(rad).limit_denominator(10 ** 9) + 1)
    cand_arr = np.array(cands, dtype=float)

    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(n_samples, g))
    centers = u @ m_map.T + c0
    counts = np.zeros(n_samples)
    for a in cand_arr:
        diff = centers + a
        q = np.einsum("ij,jk,ik->i", diff, gram_cd, diff)
        counts += q <= s
    nu_f = 1.0 / math.sqrt(ctx.disc_abs)  # covolume of the codifferent
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(n_samples))
    return nu_f * mean, nu_f * se
