"""Golden-output regression guard for the compiler's per-nest decisions.

``tests/golden/compile_seed.json`` pins, for every dataset variant of
every NR and NAS codelet region at scale 1.0, what the lowering decides
per innermost nest on SSE2, SSE4.2 and AVX, and once more after
:func:`repro.isa.recompile_scalar` (the extraction perturbation): the
vectorize decision and width, the loop-carried latency chain, the
reduction/recurrence classification and the merged instruction mix of
one vector iteration.  Step B's static features and the execution
model both read these, so a change to dependence analysis or
vectorizer legality that moves any decision shows up here first.

If a change intentionally alters code generation, regenerate and
justify the new numbers in the PR:

    PYTHONPATH=src python tests/isa/test_golden_compile.py
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.isa import (AVX, SSE2, SSE42, CompilerOptions, compile_kernel,
                       recompile_scalar)
from repro.suites import build_nas_suite, build_nr_suite

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "golden", "compile_seed.json")

_BUILDERS = {"nas": build_nas_suite, "nr": build_nr_suite}


def _chain(ops):
    return [[opclass.value, dtype.name] for opclass, dtype in ops]


def _nest(nest):
    return {
        "vectorized": nest.vectorized,
        "vf": nest.vf,
        "chain_ops": _chain(nest.chain_ops),
        "chain_per_vector_iter": nest.chain_per_vector_iter,
        "reductions": [[r.array_name, _chain(r.chain_ops)]
                       for r in nest.deps.reductions],
        "recurrences": [[r.array_name, r.distance, _chain(r.chain_ops)]
                        for r in nest.deps.recurrences],
        "body": [[i.opclass.value, i.dtype.name, i.width, i.count]
                 for i in nest.body],
    }


def _variants(suite):
    """``(key, kernel)`` for every dataset variant of every region."""
    for app in suite.applications:
        for routine, region in app.regions():
            for k, kernel in enumerate(region.variants):
                yield f"{app.name}/{region.srcloc}#{k}", kernel


def _current(suite_name: str):
    out = {}
    for key, kernel in _variants(_BUILDERS[suite_name](1.0)):
        assert key not in out, f"duplicate variant key {key}"
        per_isa = {}
        for isa in (SSE2, SSE42, AVX):
            compiled = compile_kernel(kernel, replace(CompilerOptions(),
                                                      isa=isa))
            per_isa[isa.name] = [_nest(n) for n in compiled.nests]
        scalar = recompile_scalar(compile_kernel(kernel, CompilerOptions()))
        per_isa["recompile_scalar"] = [_nest(n) for n in scalar.nests]
        out[key] = per_isa
    return out


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("suite_name", sorted(_BUILDERS))
def test_compiled_nests_match_golden_snapshot(suite_name):
    golden = _golden()[suite_name]
    current = _current(suite_name)
    assert sorted(current) == sorted(golden)
    for key in golden:
        # Exact: lowering is deterministic and JSON round-trips doubles
        # losslessly.
        assert current[key] == golden[key], key


if __name__ == "__main__":
    snapshot = {name: _current(name) for name in sorted(_BUILDERS)}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
