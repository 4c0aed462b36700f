"""Mean particle number and ground-state parity across the phase diagram.

For the periodic N=10 chain at pairing 1, scans the chemical potential at a
few fixed hoppings and prints the filling <N> together with the ground-state
parity sector.  The filling rises monotonically with mu from nearly empty to
nearly full, and the parity flips from even to odd exactly inside the
|mu| < 2|w| region.
"""

from kitaev_chain import KitaevParams, mean_particle_number, prepare_eigenstate


def main() -> None:
    mus = [-4.0, -3.0, -1.5, 0.0, 1.5, 3.0, 4.0]
    for w in (0.5, 1.0, 1.5):
        print(f"w = {w}  (topological for |mu| < {2 * abs(w)})")
        for mu in mus:
            params = KitaevParams(10, w, mu, 1.0, boundary="periodic")
            state, _, _ = prepare_eigenstate(params)
            filling = mean_particle_number(state)
            inside = "topological" if abs(mu) < 2 * abs(w) else "trivial"
            print(f"   mu={mu:+5.1f}  <N>={filling:7.4f}  parity={state.parity:5s}  [{inside}]")
        print()


if __name__ == "__main__":
    main()
