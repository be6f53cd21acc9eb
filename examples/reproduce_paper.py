#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Writes the full report to stdout (and optionally a file).  The heavier
experiments (GA, random baseline) run at reduced sizes by default; pass
``--full`` for paper-scale settings.

Run:  python examples/reproduce_paper.py [--full] [-o report.txt]
"""

import argparse
import sys
import time

from repro.core.ga import GAConfig
from repro.core.pipeline import SubsettingConfig
from repro.runtime import RuntimeConfig
from repro.experiments import (ExperimentContext, run_capture_change,
                               run_figure2, run_figure3, run_figure4,
                               run_figure5, run_figure6, run_figure7,
                               run_figure8, run_table1, run_table2,
                               run_table3, run_table4, run_table5,
                               run_whatif)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale GA population / 1000 random "
                             "clusterings")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the report to this file")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk profile cache; a warm re-run "
                             "skips all re-profiling")
    args = parser.parse_args()

    ga_config = (GAConfig(population=300, generations=60, seed=42)
                 if args.full else
                 GAConfig(population=60, generations=15, seed=42))
    samples = 1000 if args.full else 200

    runtime = RuntimeConfig(cache_dir=args.cache_dir)
    ctx = ExperimentContext(config=SubsettingConfig(runtime=runtime))
    sections = []

    experiments = [
        ("Table 1", lambda: run_table1()),
        ("Table 2", lambda: run_table2(ctx, ga_config)),
        ("Table 3", lambda: run_table3(ctx, k=14)),
        ("Table 4", lambda: run_table4(ctx)),
        ("Table 5", lambda: run_table5(ctx)),
        ("Figure 2", lambda: run_figure2(ctx)),
        ("Figure 3", lambda: run_figure3(ctx,
                                         ks=tuple(range(2, 25, 2)))),
        ("Figure 4", lambda: run_figure4(ctx)),
        ("Figure 5", lambda: run_figure5(ctx)),
        ("Figure 6", lambda: run_figure6(ctx)),
        ("Figure 7", lambda: run_figure7(ctx, samples=samples)),
        ("Figure 8", lambda: run_figure8(ctx, reps_per_app=(1, 2, 3))),
        ("Section 4.4", lambda: run_capture_change(ctx)),
        ("What-if (extension)", lambda: run_whatif(ctx)),
    ]

    for label, runner in experiments:
        start = time.time()
        result = runner()
        elapsed = time.time() - start
        text = result.format()
        sections.append(text)
        print(text)
        print(f"[{label} regenerated in {elapsed:.1f}s]")
        print()

    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n\n".join(sections) + "\n")
        print(f"report written to {args.output}")


if __name__ == "__main__":
    main()
