"""The end-to-end correlation Z: saturation, the closed form, and the
slowly-decaying gapless line.

  1. Topological point (mu=0, 2w=2): Z saturates to 1 within a few chain
     lengths and matches the closed-form value.
  2. Trivial point (mu=3, 2w=1): Z saturates to 0.
  3. Gapless line mu = 2w (here mu=2, 2w=2): Z decreases slowly and does not
     saturate -- shown on a reduced length schedule to keep the demo quick.
     The full default schedule (N = 8..96) also runs, in under two minutes, and
     ends unconverged; the scan reports such points as unconverged rather
     than printing a saturated value.
"""

import dataclasses

from kitaev_chain import KitaevParams, z_analytic, z_saturated


def show(params: KitaevParams, schedule=None) -> None:
    result = z_saturated(params, schedule=schedule)
    mu = params.chemical_potential
    two_w = 2.0 * params.hopping
    print(f"   mu={mu:+.1f}, 2w={two_w:+.1f}:")
    for n, z in result.history:
        print(f"      N={n:3d}  Z={z:.6f}")
    print(f"   converged={result.converged} (N_used={result.n_used}), "
          f"Z={result.z:.6f}, closed form {z_analytic(params):.6f}\n")


def main() -> None:
    print("1) topological point: fast saturation to the closed-form value")
    show(KitaevParams(8, 1.0, 0.0, 1.0))

    print("2) trivial point: fast saturation to zero")
    show(KitaevParams(8, 0.5, 3.0, 1.0))

    print("3) gapless line mu = 2w: slow monotone decrease, no saturation")
    show(KitaevParams(8, 1.0, 2.0, 1.0), schedule=(8, 16, 24, 32, 40))


if __name__ == "__main__":
    main()
