#!/usr/bin/env python3
"""Warm-up on annuli where everything has a closed form.

With rho = sigma = 1 on (1, 2) the problem is -u'' = lam u, u(1) = u(2) = 0:
the principal eigenvalue is pi^2 with eigenfunction sin(pi (r-1)).  The
N = 3 annulus with unit weights hides the same spectrum: u = sin(pi(r-1))/r
satisfies -(r^2 u')' = pi^2 r^2 u exactly.  This script solves both by
shooting and cross-checks with the discrete Rayleigh minimizer (an inverse
iteration that also encloses the discrete eigenvalue from both sides).
"""

import math

import numpy as np

from radial_plap import presets, solver

PI2 = math.pi**2


def main():
    for name in ("annulus-trivial", "annulus-n3"):
        preset = presets.get_preset(name)
        ps = preset.problem
        eig = solver.find_lambda1(ps)
        print(f"{name}: lambda_1 = {eig.lam:.12f}   (pi^2 = {PI2:.12f})")
        print(f"  relative error      {abs(eig.lam - PI2) / PI2:.2e}")
        print(f"  interior sign flips {eig.zero_count} (simple, positive)")

        r = eig.mesh.nodes
        ref = np.sin(math.pi * (r - 1.0)) / (r if name == "annulus-n3" else 1.0)
        ref /= np.max(ref)
        print(f"  max |u - closed form| {np.max(np.abs(eig.u - ref)):.2e}")

        mesh = solver.make_mesh(ps, n_core=2000, delta_left=1e-6,
                                delta_right=1e-6)
        eig_r = solver.rayleigh_minimize(ps, mesh)
        lo, hi = eig_r.diagnostics["lambda_h_bounds"]
        print(f"  Rayleigh minimizer  {eig_r.lam:.8f} "
              f"({eig_r.diagnostics['iterations']} inverse iterations)")
        print(f"  discrete lambda_h in [{lo:.15f}, {hi:.15f}]")
        print()


if __name__ == "__main__":
    main()
