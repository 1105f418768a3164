"""Positive and negative fixtures for every project lint rule."""

from __future__ import annotations


def _ids(findings):
    return [f.rule_id for f in findings]


# ---------------------------------------------------------------------------
# REP101 — float-equality
# ---------------------------------------------------------------------------


class TestFloatEquality:
    def test_flags_bare_equality_on_periods(self, lint_source):
        findings = lint_source(
            """
            def check(period: float, best_period: float) -> bool:
                return period == best_period
            """,
            rules=["float-equality"],
        )
        assert _ids(findings) == ["REP101"]
        assert "summation orders" in findings[0].message
        assert "isclose" in findings[0].hint

    def test_flags_inequality_on_weight_calls(self, lint_source):
        findings = lint_source(
            """
            def check(profile, start: int, end: int, w: float) -> bool:
                return profile.interval_weight(start, end) != w
            """,
            rules=["float-equality"],
        )
        assert _ids(findings) == ["REP101"]

    def test_allows_comparison_against_infinity(self, lint_source):
        findings = lint_source(
            """
            import math

            INFINITY = math.inf

            def check(period: float) -> bool:
                if period == float("inf"):
                    return True
                return period == INFINITY
            """,
            rules=["float-equality"],
        )
        assert findings == ()

    def test_allows_isclose_and_int_comparisons(self, lint_source):
        findings = lint_source(
            """
            import math

            def check(period: float, best_period: float, cores: int) -> bool:
                return math.isclose(period, best_period) and cores == 3
            """,
            rules=["float-equality"],
        )
        assert findings == ()

    def test_pragma_suppresses_with_rule_name(self, lint_source):
        findings = lint_source(
            """
            def check(period: float, other_period: float) -> bool:
                return period == other_period  # lint: ignore[float-equality]
            """,
            rules=["float-equality"],
        )
        assert findings == ()

    def test_pragma_with_other_rule_does_not_suppress(self, lint_source):
        findings = lint_source(
            """
            def check(period: float, other_period: float) -> bool:
                return period == other_period  # lint: ignore[broad-except]
            """,
            rules=["float-equality"],
        )
        assert _ids(findings) == ["REP101"]

    def test_blanket_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            def check(period: float, other_period: float) -> bool:
                return period == other_period  # lint: ignore
            """,
            rules=["float-equality"],
        )
        assert findings == ()


# ---------------------------------------------------------------------------
# REP102 — frozen-mutation
# ---------------------------------------------------------------------------


class TestFrozenMutation:
    def test_flags_field_assignment_on_foreign_object(self, lint_source):
        findings = lint_source(
            """
            def tamper(stage):
                stage.cores = 3
            """,
            rules=["frozen-mutation"],
        )
        assert _ids(findings) == ["REP102"]
        assert "'cores'" in findings[0].message

    def test_flags_setattr_escape_on_foreign_object(self, lint_source):
        findings = lint_source(
            """
            def tamper(chain):
                object.__setattr__(chain, "tasks", ())
            """,
            rules=["frozen-mutation"],
        )
        assert _ids(findings) == ["REP102"]

    def test_allows_self_mutation_and_own_constructor(self, lint_source):
        findings = lint_source(
            """
            class Builder:
                def __init__(self) -> None:
                    self.cores = 1
                    object.__setattr__(self, "tasks", ())

                def grow(self) -> None:
                    self.cores += 1
            """,
            rules=["frozen-mutation"],
        )
        assert findings == ()

    def test_flags_augmented_assignment(self, lint_source):
        findings = lint_source(
            """
            def tamper(stage):
                stage.cores += 1
            """,
            rules=["frozen-mutation"],
        )
        assert _ids(findings) == ["REP102"]


# ---------------------------------------------------------------------------
# REP103 — error-hierarchy
# ---------------------------------------------------------------------------


class TestErrorHierarchy:
    def test_flags_builtin_raise_in_core(self, lint_source):
        findings = lint_source(
            """
            def validate(n: int) -> None:
                if n < 1:
                    raise ValueError(f"bad {n}")
            """,
            rules=["error-hierarchy"],
        )
        assert _ids(findings) == ["REP103"]
        assert "ValueError" in findings[0].message

    def test_allows_hierarchy_raises(self, lint_source):
        findings = lint_source(
            """
            from repro.core.errors import InvalidChainError

            def validate(n: int) -> None:
                if n < 1:
                    raise InvalidChainError(f"bad {n}")
            """,
            rules=["error-hierarchy"],
        )
        assert findings == ()

    def test_does_not_apply_outside_core(self, lint_source):
        findings = lint_source(
            """
            def validate(n: int) -> None:
                if n < 1:
                    raise ValueError(f"bad {n}")
            """,
            relpath="src/repro/analysis/sample.py",
            rules=["error-hierarchy"],
        )
        assert findings == ()


# ---------------------------------------------------------------------------
# REP104 — determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_flags_wall_clock(self, lint_source):
        findings = lint_source(
            """
            from datetime import datetime

            def stamp() -> float:
                return datetime.now().timestamp()
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]

    def test_a_time_clock_read_is_reported_once_by_raw_timing(self, lint_source):
        """``time.time()`` in a solver module is one finding, REP110's: the
        ``time.*`` clocks are REP110's everywhere, REP104 does not repeat it."""
        findings = lint_source(
            """
            import time

            def _stamp() -> float:
                return time.time()
            """,
        )
        assert _ids(findings) == ["REP110"]

    def test_flags_global_random(self, lint_source):
        findings = lint_source(
            """
            import random

            def draw() -> float:
                return random.random()
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]

    def test_flags_unseeded_default_rng(self, lint_source):
        findings = lint_source(
            """
            import numpy as np

            def draw() -> float:
                rng = np.random.default_rng()
                return float(rng.random())
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]

    def test_flags_set_iteration(self, lint_source):
        findings = lint_source(
            """
            def walk(items):
                for item in set(items):
                    yield item
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]
        assert "hash-dependent" in findings[0].message

    def test_allows_seeded_rng_and_perf_counter(self, lint_source):
        findings = lint_source(
            """
            import time
            import numpy as np

            def draw(seed: int) -> float:
                rng = np.random.default_rng(seed)
                start = time.perf_counter()
                value = float(rng.random())
                return value + 0 * (time.perf_counter() - start)
            """,
            rules=["determinism"],
        )
        assert findings == ()

    def test_does_not_apply_outside_solver_paths(self, lint_source):
        findings = lint_source(
            """
            from datetime import datetime

            def stamp() -> float:
                return datetime.now().timestamp()
            """,
            relpath="src/repro/analysis/sample.py",
            rules=["determinism"],
        )
        assert findings == ()

    def test_flags_unsorted_listdir_iteration(self, lint_source):
        findings = lint_source(
            """
            import os

            def load(root):
                for name in os.listdir(root):
                    yield name
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]
        assert "filesystem" in findings[0].message

    def test_flags_unsorted_glob_comprehension(self, lint_source):
        findings = lint_source(
            """
            import glob

            def load(pattern):
                return [p for p in glob.glob(pattern)]
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]

    def test_allows_sorted_listdir_iteration(self, lint_source):
        findings = lint_source(
            """
            import glob
            import os

            def load(root, pattern):
                for name in sorted(os.listdir(root)):
                    yield name
                for path in sorted(glob.glob(pattern)):
                    yield path
            """,
            rules=["determinism"],
        )
        assert findings == ()

    def test_flags_bare_popitem(self, lint_source):
        findings = lint_source(
            """
            def drain(table: dict):
                while table:
                    yield table.popitem()
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]
        assert "popitem" in findings[0].message

    def test_allows_directed_popitem(self, lint_source):
        findings = lint_source(
            """
            def drain(table):
                while table:
                    yield table.popitem(last=False)
            """,
            rules=["determinism"],
        )
        assert findings == ()


# ---------------------------------------------------------------------------
# REP105 — numpy-scalar-leak
# ---------------------------------------------------------------------------


class TestNumpyScalarLeak:
    def test_flags_unwrapped_reduction(self, lint_source):
        findings = lint_source(
            """
            def best(weights) -> float:
                return weights.max()
            """,
            rules=["numpy-scalar-leak"],
        )
        assert _ids(findings) == ["REP105"]

    def test_flags_np_call_return(self, lint_source):
        findings = lint_source(
            """
            import numpy as np

            def total(values) -> float:
                return np.sum(values)
            """,
            rules=["numpy-scalar-leak"],
        )
        assert _ids(findings) == ["REP105"]

    def test_allows_float_wrapped_returns(self, lint_source):
        findings = lint_source(
            """
            import numpy as np

            def best(weights) -> float:
                return float(weights.max())

            def total(values) -> float:
                return float(np.sum(values))
            """,
            rules=["numpy-scalar-leak"],
        )
        assert findings == ()

    def test_ignores_private_functions(self, lint_source):
        findings = lint_source(
            """
            def _best(weights) -> float:
                return weights.max()
            """,
            rules=["numpy-scalar-leak"],
        )
        assert findings == ()


# ---------------------------------------------------------------------------
# REP109 — broad-except
# ---------------------------------------------------------------------------


class TestBroadExcept:
    def test_flags_bare_except(self, lint_source):
        findings = lint_source(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
            relpath="src/repro/engine/sample.py",
            rules=["broad-except"],
        )
        assert _ids(findings) == ["REP109"]
        assert "bare" in findings[0].message

    def test_flags_base_exception(self, lint_source):
        findings = lint_source(
            """
            def run(fn):
                try:
                    fn()
                except BaseException:
                    pass
            """,
            relpath="src/repro/core/sample.py",
            rules=["broad-except"],
        )
        assert _ids(findings) == ["REP109"]

    def test_flags_base_exception_in_tuple(self, lint_source):
        findings = lint_source(
            """
            def run(fn):
                try:
                    fn()
                except (ValueError, BaseException) as exc:
                    return exc
            """,
            relpath="src/repro/cli.py",
            rules=["broad-except"],
        )
        assert _ids(findings) == ["REP109"]

    def test_allows_exception(self, lint_source):
        findings = lint_source(
            """
            def run(fn):
                try:
                    fn()
                except Exception:
                    pass
                except (ValueError, KeyError):
                    pass
            """,
            relpath="src/repro/engine/sample.py",
            rules=["broad-except"],
        )
        assert findings == ()

    def test_resilience_module_is_exempt(self, lint_source):
        findings = lint_source(
            """
            def run(fn):
                try:
                    fn()
                except BaseException:
                    raise
            """,
            relpath="src/repro/engine/resilience.py",
            rules=["broad-except"],
        )
        assert findings == ()

    def test_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            def run(fn):
                try:
                    fn()
                except BaseException as exc:  # lint: ignore[broad-except]
                    return exc
            """,
            relpath="src/repro/streampu/sample.py",
            rules=["broad-except"],
        )
        assert findings == ()


class TestRawTiming:
    """REP110: raw clock reads are confined to repro.obs (and the profiler)."""

    def test_flags_perf_counter_attribute_call(self, lint_source):
        findings = lint_source(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            rules=["raw-timing"],
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "REP110"
        assert "perf_counter" in findings[0].message

    def test_flags_aliased_module(self, lint_source):
        findings = lint_source(
            """
            import time as clock

            def measure():
                return clock.monotonic()
            """,
            rules=["raw-timing"],
        )
        assert len(findings) == 1

    def test_flags_from_import_call(self, lint_source):
        findings = lint_source(
            """
            from time import perf_counter

            def measure():
                return perf_counter()
            """,
            rules=["raw-timing"],
        )
        assert len(findings) == 1

    def test_allows_time_sleep(self, lint_source):
        findings = lint_source(
            """
            import time

            def backoff(delay):
                time.sleep(delay)
            """,
            rules=["raw-timing"],
        )
        assert findings == ()

    def test_obs_clock_module_is_exempt(self, lint_source):
        findings = lint_source(
            """
            import time

            def monotonic():
                return time.perf_counter()
            """,
            relpath="src/repro/obs/clock.py",
            rules=["raw-timing"],
        )
        assert findings == ()

    def test_obs_profile_module_is_exempt(self, lint_source):
        findings = lint_source(
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
            relpath="src/repro/obs/profile.py",
            rules=["raw-timing"],
        )
        assert findings == ()

    def test_new_obs_module_is_not_exempt_by_location(self, lint_source):
        # The sanctioned-clock allowlist names modules exactly: dropping a
        # new module into repro/obs/ must NOT grant it raw-clock access.
        findings = lint_source(
            """
            import time

            def sample():
                return time.perf_counter()
            """,
            relpath="src/repro/obs/sampler.py",
            rules=["raw-timing"],
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "REP110"
        assert "perf_counter" in findings[0].message

    def test_obs_clock_import_is_not_flagged(self, lint_source):
        findings = lint_source(
            """
            from repro.obs.clock import monotonic

            def measure():
                return monotonic()
            """,
            rules=["raw-timing"],
        )
        assert findings == ()

    def test_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            import time

            def measure():
                return time.perf_counter()  # lint: ignore[raw-timing]
            """,
            rules=["raw-timing"],
        )
        assert findings == ()


# ---------------------------------------------------------------------------
# REP111 — two-type-assumption
# ---------------------------------------------------------------------------


class TestTwoTypeAssumption:
    """REP111: k-type platform discipline outside the sanctioned k=2 shims."""

    def test_flags_coretype_other(self, lint_source):
        findings = lint_source(
            """
            from repro.core.types import CoreType

            def flip(core_type: CoreType) -> CoreType:
                return core_type.other
            """,
            rules=["two-type-assumption"],
        )
        assert _ids(findings) == ["REP111"]
        assert "two-type" in findings[0].message
        assert "core_types" in findings[0].hint

    def test_flags_identity_check_against_member(self, lint_source):
        findings = lint_source(
            """
            from repro.core.types import CoreType

            def is_big(core_type) -> bool:
                return core_type is CoreType.BIG
            """,
            rules=["two-type-assumption"],
        )
        assert _ids(findings) == ["REP111"]
        assert "identity" in findings[0].message

    def test_flags_literal_two_type_enumeration(self, lint_source):
        findings = lint_source(
            """
            from repro.core.types import CoreType

            def walk():
                for core_type in (CoreType.BIG, CoreType.LITTLE):
                    yield core_type
            """,
            rules=["two-type-assumption"],
        )
        assert _ids(findings) == ["REP111"]
        assert "hard-codes two core types" in findings[0].message

    def test_allows_ktype_iteration_idiom(self, lint_source):
        findings = lint_source(
            """
            from repro.core.types import Resources

            def walk(resources: Resources):
                for core_type in resources.types():
                    yield resources.count(core_type)
            """,
            rules=["two-type-assumption"],
        )
        assert findings == ()

    def test_allows_equality_against_member(self, lint_source):
        findings = lint_source(
            """
            from repro.core.types import CoreType

            def is_little(core_type) -> bool:
                return core_type == CoreType.LITTLE
            """,
            rules=["two-type-assumption"],
        )
        assert findings == ()

    def test_sanctioned_shims_are_exempt(self, lint_source):
        source = """
            from repro.core.types import CoreType

            def walk(core_type):
                for vtype in (CoreType.BIG, CoreType.LITTLE):
                    if vtype is CoreType.BIG:
                        yield core_type.other
        """
        for shim in ("herad", "herad_reference", "norep"):
            findings = lint_source(
                source,
                relpath=f"src/repro/core/{shim}.py",
                rules=["two-type-assumption"],
            )
            assert findings == ()
        # ...but the same code in an ordinary core module is flagged.
        findings = lint_source(
            source,
            relpath="src/repro/core/sample.py",
            rules=["two-type-assumption"],
        )
        assert len(findings) == 3

    def test_unrelated_other_attribute_is_not_flagged(self, lint_source):
        findings = lint_source(
            """
            def pick(pair):
                return pair.other
            """,
            rules=["two-type-assumption"],
        )
        assert findings == ()

    def test_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            from repro.core.types import CoreType

            def flip(core_type: CoreType) -> CoreType:
                return core_type.other  # lint: ignore[two-type-assumption]
            """,
            rules=["two-type-assumption"],
        )
        assert findings == ()
