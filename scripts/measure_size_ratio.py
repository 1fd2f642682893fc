#!/usr/bin/env python3
"""Estimate the size constant of the reduction over a random corpus.

The reduced pair is guaranteed to satisfy |output| <= c * n * |instance| for
some constant c independent of the instance; this script measures the ratio
|output| / (n * |instance|) empirically and prints the worst offenders, so
the constant can be quoted from data rather than asserted.
"""

import argparse
import json
import sys
from fractions import Fraction

from stablecons import (
    HarnessLimits,
    instance_to_json,
    random_instance,
    reduce_instance,
)
import random


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--max-groups", type=int, default=3)
    parser.add_argument("--max-group-size", type=int, default=3)
    parser.add_argument("--max-vars", type=int, default=3)
    parser.add_argument("--max-formula-size", type=int, default=6)
    parser.add_argument("--top", type=int, default=5, help="worst instances to show")
    args = parser.parse_args()

    limits = HarnessLimits(
        max_groups=args.max_groups,
        max_group_size=args.max_group_size,
        max_vars=args.max_vars,
        max_formula_size=args.max_formula_size,
    )
    rng = random.Random(args.seed)
    rows = []
    total = Fraction(0)
    for _ in range(args.count):
        instance = random_instance(rng, limits)
        stats = reduce_instance(instance).stats
        total += stats.ratio
        rows.append((stats.ratio, instance, stats))
    rows.sort(key=lambda row: row[0], reverse=True)

    worst = [
        {
            "ratio": str(stats.ratio),
            "ratio_float": float(ratio),
            "n": stats.n,
            "instance_length": stats.instance_length,
            "output_length": stats.output_length,
            "instance": instance_to_json(instance),
        }
        for ratio, instance, stats in rows[: args.top]
    ]
    summary = {
        "count": args.count,
        "seed": args.seed,
        "max_ratio": str(rows[0][0]),
        "max_ratio_float": float(rows[0][0]),
        "mean_ratio_float": float(total / args.count),
        "worst": worst,
    }
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
