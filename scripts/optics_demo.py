#!/usr/bin/env python3
"""Demonstrate the post-selected linear-optical QND gate.

Runs the two-photon simulation for eigenstate and superposition signals,
shows the coincidence success probabilities with and without the balancing
signal loss, and scans the variable-strength regime.

Usage:
    python3 scripts/optics_demo.py [--eta ETA]
"""

import argparse
import math

import numpy as np

from qndsim import photonics as ph
from qndsim.hilbert import PureState

S = 1 / math.sqrt(2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eta", type=float, default=1.0 / 3.0, help="BS reflectivity")
    args = parser.parse_args()

    meter = ph.meter_prep(args.eta)
    inputs = [
        ("|H>", PureState([1, 0])),
        ("|V>", PureState([0, 1])),
        ("|D>", PureState([S, S])),
    ]

    print(f"eta = {args.eta:.4f}, meter amplitudes = {np.round(meter.amps.real, 6)}")
    print(f"{'signal':>8} {'P(success)':>12} {'P(success, lossy)':>18} {'heralded joint':>24}")
    for label, sig in inputs:
        res = ph.run_gate(sig, meter, args.eta)
        lossy = ph.run_gate(sig, meter, args.eta, include_signal_loss=True)
        joint = np.round(res.conditional_joint.ravel(), 4)
        print(f"{label:>8} {res.success_prob:12.6f} {lossy.success_prob:18.6f} {joint!s:>24}")

    print("\nHong-Ou-Mandel coincidence reduction:")
    for eta in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75):
        print(f"  eta = {eta:.4f}: factor = {ph.hom_reduction(eta):.6f}")

    print("\nvariable-strength scan (meter a|H> + sqrt(1-a^2)|V>, with loss):")
    print(f"{'a':>8} {'K':>10} {'Kbar':>10} {'K^2+Kbar^2':>12} {'gamma_eff':>10}")
    for a in np.linspace(0.0, ph.A_MAX, 7):
        pair, gamma_eff = ph.strength_distinguishability(float(a), args.eta)
        print(
            f"{a:8.4f} {pair.k:10.6f} {pair.k_bar:10.6f}"
            f" {pair.englert_lhs:12.9f} {gamma_eff:10.6f}"
        )


if __name__ == "__main__":
    main()
