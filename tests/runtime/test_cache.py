"""Profile-cache behaviour: accounting, invalidation, corruption.

The cache is content-addressed, so correctness hinges on the key: a hit
must mean "same codelet source, same architecture, same measurer
config", and anything else must miss.  Corrupted entries must never
crash a run — they are evicted, recomputed and rewritten.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.codelets import Measurer, profile_codelets
from repro.ir import DP, KernelBuilder
from repro.machine import ATOM, NEHALEM
from repro.runtime import (CACHE_FORMAT, DiskCache, content_key,
                           kernel_fingerprint, profile_cache_key)
from repro.codelets.codelet import Codelet

from repro.verify.strategies import random_codelets

pytestmark = pytest.mark.runtime


def _make_codelet(name: str, n: int, invocations: int = 50000) -> Codelet:
    b = KernelBuilder(f"k_{name.replace('/', '_')}")
    x = b.array("x", (n,), DP)
    y = b.array("y", (n,), DP)
    with b.loop(0, n) as i:
        b.assign(y[i], y[i] + 2.0 * x[i])
    return Codelet(name=name, app="cachetest", variants=(b.build(),),
                   variant_weights=(1.0,), invocations=invocations)


def _entry_files(cache: DiskCache):
    out = []
    for dirpath, _, files in os.walk(cache.root):
        out.extend(os.path.join(dirpath, f)
                   for f in files if f.endswith(".pkl"))
    return sorted(out)


class TestAccounting:
    def test_cold_run_misses_then_stores(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelets = random_codelets(seed=1, count=6)
        profile_codelets(codelets, Measurer(), cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == len(codelets)
        assert cache.stats.stores == len(codelets)
        assert len(cache) == len(codelets)

    def test_warm_run_all_hits_no_recompute(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelets = random_codelets(seed=2, count=6)
        cold = profile_codelets(codelets, Measurer(), cache=cache)
        warm_cache = DiskCache(str(tmp_path / "c"))
        warm = profile_codelets(codelets, Measurer(), cache=warm_cache)
        assert warm_cache.stats.hits == len(codelets)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.stores == 0
        assert warm == cold

    def test_incremental_suite_only_profiles_the_new_codelet(self, tmp_path):
        """Adding one application re-profiles only what changed."""
        cache = DiskCache(str(tmp_path / "c"))
        codelets = random_codelets(seed=3, count=5)
        profile_codelets(codelets, Measurer(), cache=cache)
        extended = codelets + [_make_codelet("new/one.f:1-9", 256)]
        cache2 = DiskCache(str(tmp_path / "c"))
        profile_codelets(extended, Measurer(), cache=cache2)
        assert cache2.stats.hits == len(codelets)
        assert cache2.stats.misses == 1
        assert cache2.stats.stores == 1

    def test_partly_warm_run_matches_uncached(self, tmp_path):
        """Cache hits and fresh profiles interleave in input order, keep
        the caller's codelet objects and discard exactly what an
        uncached run discards."""
        codelets = random_codelets(seed=17, count=10)
        profile_codelets(codelets[::2], Measurer(),
                         cache=DiskCache(str(tmp_path / "c")))
        cache = DiskCache(str(tmp_path / "c"))
        mixed = profile_codelets(codelets, Measurer(), cache=cache)
        assert cache.stats.hits == 5
        assert cache.stats.misses == 5
        assert mixed == profile_codelets(codelets, Measurer())
        # The seed straddles the 1M-cycle filter.
        assert mixed.discarded
        by_name = {c.name: c for c in codelets}
        for p in mixed.profiles:
            assert p.codelet is by_name[p.name]


class TestInvalidation:
    def test_source_change_invalidates(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        original = _make_codelet("app/loop.f:1-9", 256)
        profile_codelets([original], Measurer(), cache=cache)
        # Same name, different loop body size -> different content.
        edited = _make_codelet("app/loop.f:1-9", 512)
        profile_codelets([edited], Measurer(), cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_architecture_change_invalidates(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelet = _make_codelet("app/loop.f:1-9", 256)
        profile_codelets([codelet], Measurer(), arch=NEHALEM, cache=cache)
        profile_codelets([codelet], Measurer(), arch=ATOM, cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_measurer_config_invalidates(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelet = _make_codelet("app/loop.f:1-9", 256)
        profile_codelets([codelet], Measurer(), cache=cache)
        from repro.machine import NoiseModel
        profile_codelets([codelet], Measurer(noise=NoiseModel(seed=99)),
                         cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_loop_variable_names_do_not_invalidate(self):
        """Fingerprints canonicalise builder-minted loop-variable names,
        so rebuilding the same source yields the same key."""
        a = _make_codelet("app/loop.f:1-9", 256)
        b = _make_codelet("app/loop.f:1-9", 256)
        # Fresh builds mint fresh loop-variable names...
        assert repr(a.kernel.body) != "" and a.kernel is not b.kernel
        # ...but content fingerprints (and hence cache keys) agree.
        assert (kernel_fingerprint(a.kernel)
                == kernel_fingerprint(b.kernel))
        m = Measurer()
        assert (content_key(profile_cache_key(a, NEHALEM, m, 1e6, 0))
                == content_key(profile_cache_key(b, NEHALEM, m, 1e6, 0)))

    def test_rebuilt_suite_hits_across_sessions(self, tmp_path):
        """Two independent builds of the same codelets share entries —
        the cross-process/cross-session reuse the cache exists for."""
        cache = DiskCache(str(tmp_path / "c"))
        profile_codelets(random_codelets(seed=4, count=4),
                         Measurer(), cache=cache)
        cache2 = DiskCache(str(tmp_path / "c"))
        profile_codelets(random_codelets(seed=4, count=4),
                         Measurer(), cache=cache2)
        assert cache2.stats.hits == 4
        assert cache2.stats.misses == 0


class TestCorruptionRecovery:
    def test_truncated_entry_recovers(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelets = random_codelets(seed=5, count=4)
        cold = profile_codelets(codelets, Measurer(), cache=cache)
        victim = _entry_files(cache)[0]
        with open(victim, "wb") as fh:
            fh.write(b"\x80\x04 this is not a pickle")
        cache2 = DiskCache(str(tmp_path / "c"))
        again = profile_codelets(codelets, Measurer(), cache=cache2)
        assert again == cold                      # recomputed, not crashed
        assert cache2.stats.errors == 1
        assert cache2.stats.misses == 1
        assert cache2.stats.hits == len(codelets) - 1
        assert cache2.stats.stores == 1           # entry was repaired
        cache3 = DiskCache(str(tmp_path / "c"))
        profile_codelets(codelets, Measurer(), cache=cache3)
        assert cache3.stats.hits == len(codelets)

    def test_foreign_format_entry_recovers(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelets = random_codelets(seed=6, count=3)
        profile_codelets(codelets, Measurer(), cache=cache)
        victim = _entry_files(cache)[0]
        with open(victim, "wb") as fh:
            pickle.dump({"format": "somebody-else-v9", "payload": 1}, fh)
        cache2 = DiskCache(str(tmp_path / "c"))
        profile_codelets(codelets, Measurer(), cache=cache2)
        assert cache2.stats.errors == 1
        assert cache2.stats.hits == len(codelets) - 1

    def test_wrong_payload_type_recovers(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelet = _make_codelet("app/loop.f:1-9", 256)
        cold = profile_codelets([codelet], Measurer(), cache=cache)
        victim = _entry_files(cache)[0]
        with open(victim, "wb") as fh:
            pickle.dump({"format": CACHE_FORMAT, "payload": "gibberish"},
                        fh)
        cache2 = DiskCache(str(tmp_path / "c"))
        again = profile_codelets([codelet], Measurer(), cache=cache2)
        assert again == cold

    def test_clear(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        profile_codelets(random_codelets(seed=7, count=3),
                         Measurer(), cache=cache)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0


class TestChecksum:
    """v2 entries carry a payload checksum verified on every read."""

    def test_round_trip_verifies(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        cache.put("ab" * 32, {"value": 42})
        assert cache.get("ab" * 32) == {"value": 42}
        assert cache.stats.checksum_failures == 0

    def test_bit_rot_detected_and_invalidated(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        codelets = random_codelets(seed=8, count=4)
        cold = profile_codelets(codelets, Measurer(), cache=cache)
        # Flip one payload byte in place, keeping the wrapper valid —
        # exactly what silent disk corruption looks like.
        victim = _entry_files(cache)[0]
        with open(victim, "rb") as fh:
            wrapper = pickle.load(fh)
        blob = wrapper["payload"]
        wrapper["payload"] = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        with open(victim, "wb") as fh:
            pickle.dump(wrapper, fh)
        cache2 = DiskCache(str(tmp_path / "c"))
        again = profile_codelets(codelets, Measurer(), cache=cache2)
        assert again == cold               # recomputed, never poisoned
        assert cache2.stats.checksum_failures == 1
        assert cache2.stats.errors == 1
        assert cache2.stats.stores == 1    # entry repaired on disk
        cache3 = DiskCache(str(tmp_path / "c"))
        profile_codelets(codelets, Measurer(), cache=cache3)
        assert cache3.stats.hits == len(codelets)
        assert cache3.stats.checksum_failures == 0

    def test_poisoned_put_detected_on_read(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        cache.put("cd" * 32, {"value": 7}, corrupt=True)
        assert cache.get("cd" * 32) is None
        assert cache.stats.checksum_failures == 1
        # The poisoned entry was evicted, not left to fail forever.
        assert len(cache) == 0

    def test_v1_entries_read_as_foreign(self, tmp_path):
        """Pre-checksum entries (payload stored unpickled, no sha256)
        must be evicted and recomputed, not misread."""
        cache = DiskCache(str(tmp_path / "c"))
        cache.put("ef" * 32, {"value": 1})
        victim = _entry_files(cache)[0]
        with open(victim, "wb") as fh:
            pickle.dump({"format": "repro-profile-cache-v1",
                         "payload": {"value": 1}}, fh)
        cache2 = DiskCache(str(tmp_path / "c"))
        assert cache2.get("ef" * 32) is None
        assert cache2.stats.errors == 1
        assert cache2.stats.checksum_failures == 0
