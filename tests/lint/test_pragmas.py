"""Per-line pragma semantics: statement-span widening and decorated defs.

Regression coverage for the two narrow widenings documented in
``repro.lint.base``: a pragma on any line of one multi-line *simple*
statement covers the whole statement, a pragma on the ``def`` line covers
findings anchored to the decorator lines, and — crucially — a pragma on a
compound-statement header must NOT silence the suite beneath it.
"""

from __future__ import annotations


def _ids(findings):
    return [f.rule_id for f in findings]


class TestMultiLineStatementPragmas:
    def test_finding_fires_without_pragma(self, lint_source):
        findings = lint_source(
            """
            import random

            def stamp() -> float:
                return max(
                    random.random(),
                    0.0,
                )
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]

    def test_pragma_on_first_line_covers_whole_statement(self, lint_source):
        findings = lint_source(
            """
            import random

            def stamp() -> float:
                return max(  # lint: ignore[determinism]
                    random.random(),
                    0.0,
                )
            """,
            rules=["determinism"],
        )
        assert findings == ()

    def test_pragma_on_last_line_covers_whole_statement(self, lint_source):
        findings = lint_source(
            """
            import random

            def stamp() -> float:
                return max(
                    random.random(),
                    0.0,
                )  # lint: ignore[determinism]
            """,
            rules=["determinism"],
        )
        assert findings == ()

    def test_compound_header_pragma_does_not_cover_suite(self, lint_source):
        # A pragma on an `if` line must not silence the body: compound
        # statements are never widened.
        findings = lint_source(
            """
            import random

            def stamp(flag: bool) -> float:
                if flag:  # lint: ignore[determinism]
                    return random.random()
                return 0.0
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]

    def test_pragma_on_unrelated_line_does_not_leak(self, lint_source):
        findings = lint_source(
            """
            import random

            def stamp() -> float:
                x = 1.5  # lint: ignore[determinism]
                return random.random()
            """,
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]


class TestDecoratedDefPragmas:
    _DECORATED = """
        import random

        def tag(value):
            def wrap(fn):
                return fn
            return wrap

        @tag(random.random()){decorator_pragma}
        def solve() -> int:{def_pragma}
            return 1
        """

    def test_decorator_anchored_finding_fires(self, lint_source):
        findings = lint_source(
            self._DECORATED.format(decorator_pragma="", def_pragma=""),
            rules=["determinism"],
        )
        assert _ids(findings) == ["REP104"]

    def test_pragma_on_def_line_suppresses_decorator_finding(self, lint_source):
        findings = lint_source(
            self._DECORATED.format(
                decorator_pragma="",
                def_pragma="  # lint: ignore[determinism]",
            ),
            rules=["determinism"],
        )
        assert findings == ()

    def test_pragma_on_decorator_line_still_works(self, lint_source):
        findings = lint_source(
            self._DECORATED.format(
                decorator_pragma="  # lint: ignore[determinism]",
                def_pragma="",
            ),
            rules=["determinism"],
        )
        assert findings == ()
