"""Pass ``overlap`` — write-write alias detection (L201, L202).

Distinct arrays never alias in this IR (each is separately declared
storage), so the only write-write hazards are two *different* store
sites hitting the same elements of one array:

* a resolved non-zero distance proves both sites write the same
  location in different iterations — the store order is load-bearing
  and the region is not safely outlineable (**L201**, error);
* an unresolvable pair with intersecting index ranges may overlap
  (**L202**, warning).

Two sites writing the same location in the *same* iteration are plain
sequential overwrites; the ``deadstore`` pass reports those when the
first value is never read.
"""

from __future__ import annotations

from typing import List

from ...ir.dependence import (FREE, AnalysisContext, format_distance,
                              test_dependence)
from .diagnostics import Diagnostic, Severity
from .registry import lint_pass, make_diagnostic


@lint_pass(
    "overlap", ("L201", "L202"),
    "write-write alias detection between distinct store sites of one "
    "array (carried overlaps make outlining order-sensitive)")
def check_write_overlap(ctx: AnalysisContext) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    stores = ctx.store_sites
    for i, a in enumerate(stores):
        for b in stores[i + 1:]:
            if a.array.name != b.array.name:
                continue
            dep = test_dependence(ctx, a, b)
            if dep is None or not dep.carried:
                continue
            site = f"{a.site_id}+{b.site_id}"
            resolved = (dep.kind == "uniform"
                        and all(d is not FREE for d in dep.distance))
            if resolved:
                diags.append(make_diagnostic(
                    ctx, code="L201", pass_id="overlap",
                    severity=Severity.ERROR, site=site,
                    array=a.array.name,
                    message=(f"stores {a.site_id} and {b.site_id} write "
                             f"the same elements of {a.array.name!r} in "
                             f"different iterations, distance "
                             f"{format_distance(ctx, dep)}")))
            else:
                diags.append(make_diagnostic(
                    ctx, code="L202", pass_id="overlap",
                    severity=Severity.WARNING, site=site,
                    array=a.array.name,
                    message=(f"stores {a.site_id} and {b.site_id} may "
                             f"write overlapping elements of "
                             f"{a.array.name!r} "
                             f"({format_distance(ctx, dep)})")))
    return diags
