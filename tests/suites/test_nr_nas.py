"""Tests for the NR and NAS-like suite definitions."""

import pytest

from repro.codelets import Measurer, find_suite_codelets
from repro.ir import validate_kernel
from repro.machine import ATOM, NEHALEM
from repro.suites import NR_SPECS
from repro.suites.nas import NAS_APP_ORDER
from repro.suites.nr import NR_SPEC_BY_NAME


class TestNRSuite:
    def test_28_single_codelet_apps(self, nr_suite):
        assert len(nr_suite.applications) == 28
        for app in nr_suite.applications:
            assert len(app.regions()) == 1
            assert app.codelet_coverage == 1.0

    def test_specs_match_table3_rows(self):
        assert len(NR_SPECS) == 28
        # 14 representatives are angle-bracketed in Table 3.
        assert sum(s.paper_representative for s in NR_SPECS) == 14
        assert {s.paper_cluster for s in NR_SPECS} == set(range(1, 15))

    def test_nr_codelets_all_well_behaved(self, nr_suite):
        """Section 4.1: "all the NR codelets are well-behaved"."""
        m = Measurer()
        for codelet in find_suite_codelets(nr_suite):
            assert not m.is_ill_behaved(codelet, NEHALEM), codelet.name

    def test_precision_mix_matches_table3(self):
        def has_sp(kernel):
            return any(a.dtype.name == "f32" for a in kernel.arrays)

        for spec in NR_SPECS:
            kernel = spec.build(0.2)
            if spec.pattern.startswith("SP:"):
                assert has_sp(kernel), spec.name

    def test_scaling_shrinks_kernels(self):
        big = NR_SPEC_BY_NAME["toeplz_1"].build(1.0)
        small = NR_SPEC_BY_NAME["toeplz_1"].build(0.01)
        assert small.footprint_bytes() < big.footprint_bytes()

    def test_atom_speedups_diverse(self, nr_suite):
        """Table 3's speedup column spans roughly 0.1-0.5; the suite
        must reproduce that diversity or clustering has nothing to
        separate."""
        m = Measurer()
        speedups = []
        for codelet in find_suite_codelets(nr_suite):
            ref = m.true_inapp_seconds(codelet, NEHALEM)
            atom = m.true_inapp_seconds(codelet, ATOM)
            speedups.append(ref / atom)
        assert min(speedups) < 0.15
        assert max(speedups) > 0.30
        assert max(speedups) / min(speedups) > 2.5


class TestNASSuite:
    def test_seven_applications_in_paper_order(self, nas_suite):
        assert nas_suite.app_names == NAS_APP_ORDER
        assert NAS_APP_ORDER == ("bt", "cg", "ft", "is", "lu", "mg",
                                 "sp")

    def test_67_codelets(self, nas_suite):
        assert len(find_suite_codelets(nas_suite)) == 67

    def test_codelet_coverage_is_92_percent(self, nas_suite):
        for app in nas_suite.applications:
            assert app.codelet_coverage == pytest.approx(
                0.92 if app.name != "is" else 0.90)

    def test_ill_behaved_fraction_near_19_percent(self, nas_suite):
        """Akel et al.: 19% of NAS codelets are ill-behaved."""
        m = Measurer()
        codelets = find_suite_codelets(nas_suite)
        ill = [c for c in codelets if m.is_ill_behaved(c, NEHALEM)]
        assert 0.12 <= len(ill) / len(codelets) <= 0.28

    def test_mg_codelets_are_ill_behaved(self, nas_suite):
        """Section 4.4: MG cannot be predicted per-application because
        its codelets are ill-behaved."""
        m = Measurer()
        mg = [c for c in find_suite_codelets(nas_suite)
              if c.app == "mg"]
        assert all(m.is_ill_behaved(c, NEHALEM) for c in mg)

    def test_cluster_pair_codelets_exist(self, nas_suite):
        names = {c.name for c in find_suite_codelets(nas_suite)}
        for required in ("lu/erhs.f:49-57", "ft/appft.f:45-47",
                         "bt/rhs.f:266-311", "sp/rhs.f:275-320",
                         "cg/cg.f:556-564"):
            assert required in names

    def test_cg_dominated_by_matvec(self, nas_suite):
        """95% of CG's runtime sits in the sparse-matvec codelet."""
        m = Measurer()
        cg = [c for c in find_suite_codelets(nas_suite)
              if c.app == "cg"]
        times = {c.name: m.true_inapp_seconds(c, NEHALEM)
                 * c.invocations for c in cg}
        total = sum(times.values())
        assert times["cg/cg.f:556-564"] / total > 0.9

    def test_all_variants_valid(self, nas_suite):
        for app in nas_suite.applications:
            for _, region in app.regions():
                for variant in region.variants:
                    validate_kernel(variant)

    def test_scaled_suite_still_complete(self, nas_suite_small):
        assert len(find_suite_codelets(nas_suite_small)) == 67
