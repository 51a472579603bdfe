#!/usr/bin/env python3
"""Survey observed quasimorphism defects against the proved bounds.

Sweeps sampler budgets for the sign family and a few iota families on the
stock parents, printing observed group defects (bound: 3 ||lambda||) and rack
defects (bound: 4 ||lambda||).  Observed values are certified lower bounds;
growing budgets can only move them toward the true defect.
"""

import argparse
import time

from rackqm import (
    Sigma,
    free_rack,
    group_defect_estimate,
    iota_family,
    rack_defect_estimate,
    sign_family,
    trivial_product,
)
from rackqm.sampling import SamplerConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--exhaustive", type=int, default=4,
                        help="exhaustive group defect syllable budget")
    args = parser.parse_args()

    parents = {
        "free rack {a,b}": free_rack(["a", "b"]),
        "T2 * T3": trivial_product({"a": 2, "b": 3}),
    }
    for parent_name, parent in parents.items():
        families = {
            "sign": sign_family(parent),
            "iota(+-1)": iota_family(parent, "a", 0, Sigma.indicator(1)),
            "iota(+-4)": iota_family(parent, "a", 0, Sigma.indicator(4)),
        }
        print(f"== {parent_name} ==")
        for fam_name, family in families.items():
            config = SamplerConfig(seed=args.seed, samples=args.samples)
            start = time.perf_counter()
            group = group_defect_estimate(
                family, config,
                exhaustive_syllables=args.exhaustive, exhaustive_exponent=2,
            )
            rack = rack_defect_estimate(family, config)
            elapsed = time.perf_counter() - start
            print(
                f"  {fam_name:10s} group {group.max_defect}/{3 * family.bound} "
                f"({group.checked} pairs)  rack {rack.max_defect}/{4 * family.bound} "
                f"({rack.checked} pairs)  [{elapsed:.1f}s]"
            )
            assert group.max_defect <= 3 * family.bound
            assert rack.max_defect <= 4 * family.bound


if __name__ == "__main__":
    main()
