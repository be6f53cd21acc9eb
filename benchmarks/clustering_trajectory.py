"""Maintain ``BENCH_clustering.json`` — the clustering hot-path
performance trajectory.

Absolute wall times are machine-specific, so the committed file is a
*trajectory*, not a contract: what CI enforces are machine-independent
ratios measured fresh on the runner —

* the vectorized greedy linkage must be ≥ 5× faster than the
  bit-compatible O(n³) reference loop at n = 512 (the headline
  contract of the clustering fast path, docs/PERFORMANCE.md);
* the fresh speedup at n = 512 must be ≥ 0.8× the committed one
  (a > 20% relative regression fails; smaller sizes are recorded for
  the trajectory but not gated — sub-10ms ratios are noise-dominated).

Usage::

    python benchmarks/clustering_trajectory.py --write   # refresh file
    python benchmarks/clustering_trajectory.py --check   # CI gate
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.clustering import linkage, linkage_reference

FORMAT = "repro-bench-clustering-v1"
N_FEATURES = 14
SIZES = (32, 128, 512)
#: Required fast-vs-reference speedup at the largest size.
MIN_SPEEDUP_AT_512 = 5.0
#: A fresh speedup below ``committed * (1 - tolerance)`` is a failure.
REGRESSION_TOLERANCE = 0.2


def _points(n: int) -> np.ndarray:
    return np.random.default_rng(n).normal(size=(n, N_FEATURES))


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> dict:
    """One fresh measurement pass (the payload of the JSON file)."""
    sizes = {}
    for n in SIZES:
        points = _points(n)
        repeats = 5 if n < 512 else 3
        fast_s = _best_of(repeats, lambda: linkage(points))
        ref_s = _best_of(2 if n == 512 else repeats,
                         lambda: linkage_reference(points))
        sizes[str(n)] = {
            "fast_s": round(fast_s, 6),
            "reference_s": round(ref_s, 6),
            "speedup": round(ref_s / fast_s, 2),
        }
    return {
        "format": FORMAT,
        "n_features": N_FEATURES,
        "sizes": sizes,
    }


def check(fresh: dict, committed: dict) -> list:
    """Machine-independent gates; returns failure messages."""
    failures = []
    if committed.get("format") != FORMAT:
        return [f"committed trajectory has format "
                f"{committed.get('format')!r}, expected {FORMAT!r}"]

    headline = fresh["sizes"][str(SIZES[-1])]["speedup"]
    if headline < MIN_SPEEDUP_AT_512:
        failures.append(
            f"fast path is only {headline:.1f}x the reference at "
            f"n={SIZES[-1]} (contract: >= {MIN_SPEEDUP_AT_512:.0f}x)")

    n = SIZES[-1]
    want = committed["sizes"][str(n)]["speedup"]
    floor = want * (1.0 - REGRESSION_TOLERANCE)
    if headline < floor:
        failures.append(
            f"n={n}: fresh speedup {headline:.1f}x regressed more than "
            f"{REGRESSION_TOLERANCE:.0%} below the committed "
            f"{want:.1f}x (floor {floor:.1f}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="measure and rewrite the trajectory file")
    mode.add_argument("--check", action="store_true",
                      help="measure fresh and gate against the file")
    parser.add_argument("-o", "--output",
                        default=str(Path(__file__).resolve().parent.parent
                                    / "BENCH_clustering.json"))
    args = parser.parse_args(argv)

    fresh = measure()
    path = Path(args.output)
    if args.write:
        path.write_text(json.dumps(fresh, indent=2, sort_keys=True)
                        + "\n")
        print(f"trajectory written to {path}")
        for n in SIZES:
            e = fresh["sizes"][str(n)]
            print(f"  n={n}: fast {e['fast_s']:.4f}s, reference "
                  f"{e['reference_s']:.4f}s, speedup {e['speedup']:.1f}x")
        return 0

    try:
        committed = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read committed trajectory {path}: {exc}",
              file=sys.stderr)
        return 2
    failures = check(fresh, committed)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if not failures:
        headline = fresh["sizes"][str(SIZES[-1])]["speedup"]
        print(f"clustering trajectory OK: n={SIZES[-1]} speedup "
              f"{headline:.1f}x (committed "
              f"{committed['sizes'][str(SIZES[-1])]['speedup']:.1f}x)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
