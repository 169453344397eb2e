#!/usr/bin/env python3
"""Recompute every headline constant of the spectral pipeline.

Prints the kernel tail norms, the mixing and quartic floors, the
certified ||f*f||_inf threshold (hence the quadratic symmetric-subset
constant), the measure-1/2 refinement, and the density-ratio bounds.
"""
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bstar.kernels import (  # noqa: E402
    BoundCertificate,
    PiecewiseLinearKernel,
    alpha_mix_optimum,
    delta_half_lower,
    delta_lower_certificate,
    k1_closed_form,
    rho_lower,
    rho_upper,
    tail_norm,
    ubiquity_bound,
    zeta_integral_check,
)


def main() -> int:
    t0 = time.time()
    print("== two-valued kernel (closed form) ==")
    print(f"autoconvolution floor        {k1_closed_form():.9f}")

    print("== arctan kernel, T = 10^4 ==")
    k4 = PiecewiseLinearKernel.from_family("K3", 10**4)
    dc4 = k4.fourier_dc()
    tail1 = tail_norm(k4, 1, 4 / 3).value
    full = tail_norm(k4, 0, 4 / 3).value
    alpha, floor = alpha_mix_optimum(dc4, tail1, 4 / 3)
    print(f"Khat(0)                      {dc4:.9f}")
    print(f"lnorm_1,4/3                  {tail1:.9f}")
    print(f"lnorm_0,4/3                  {full:.9f}")
    print(f"mix floor ||f*f||_2^2        {floor:.9f}   (alpha = {alpha:.6f})")
    print(f"quadratic constant           {floor / 2:.9f}")

    print("== power kernel, T = 10^4 ==")
    k6 = PiecewiseLinearKernel.from_family("K5", 10**4)
    cert = BoundCertificate.from_kernel(k6)
    print(f"Khat(0)                      {cert.khat0:.9f}")
    print(f"Khat(1)                      {cert.khat1:.9f}")
    print(f"lnorm_2,4/3                  {cert.tail_m:.9f}")
    threshold, ok = delta_lower_certificate(cert)
    print(f"certified ||f*f||_inf        {threshold:.9f}   (verified: {ok})")
    print(f"quadratic constant           {threshold / 2:.9f}")

    print("== measure-1/2 refinement ==")
    for eps in (0.4, 0.5, 0.6):
        print(f"eps={eps:.2f}: ||f*f||_inf >= {delta_half_lower(eps):.6f}"
              f"   delta >= {delta_half_lower(eps) * eps * eps / 2:.6f}")

    print("== density-ratio bounds ==")
    for g in (2, 4, 10, 25):
        print(f"rho_upper({g})^2 <= {rho_upper(g):.6f}")
    for g in (4, 6, 12, 22, 24, 60):
        print(f"rho_lower({g})   >= {rho_lower(g):.6f}")
    print(f"limit ratio 11/(8 sqrt 3) =  {11 / (8 * math.sqrt(3)):.6f}")

    comp, simple = ubiquity_bound(0.7, 0.25)
    print(f"ubiquity(0.7, 0.25)          {max(comp, 0):.9f} / {max(simple, 0):.9f}")
    print(f"quadrature self-test         {zeta_integral_check():.12f}")
    print(f"total time {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
