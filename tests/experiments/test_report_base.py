"""Unit tests for the experiment report machinery."""

from repro.experiments.base import Check, ReportBuilder


class TestCheck:
    def test_render_pass_and_fail(self):
        assert "[PASS]" in Check("ok", True).render()
        assert "[FAIL]" in Check("bad", False).render()

    def test_detail_appended(self):
        assert "why" in Check("ok", True, detail="why").render()


class TestReportBuilder:
    def test_builds_report_with_checks_and_lines(self):
        builder = ReportBuilder("EX", "Title", "Artifact")
        builder.line("context")
        builder.lines("a\nb")
        assert builder.check("first", True)
        assert not builder.check("second", False, detail="boom")
        builder.record("key", 42)
        report = builder.build()
        assert report.experiment_id == "EX"
        assert report.lines == ("context", "a", "b")
        assert len(report.checks) == 2
        assert report.data == {"key": 42}

    def test_passed_requires_all_checks(self):
        builder = ReportBuilder("EX", "Title", "Artifact")
        builder.check("good", True)
        assert builder.build().passed
        builder.check("bad", False)
        assert not builder.build().passed

    def test_check_coerces_truthiness(self):
        builder = ReportBuilder("EX", "Title", "Artifact")
        builder.check("truthy", [1])
        report = builder.build()
        assert report.checks[0].passed is True


class TestRendering:
    def test_render_contains_verdict_and_counts(self):
        builder = ReportBuilder("EX", "Title", "Artifact")
        builder.check("one", True)
        builder.check("two", False)
        rendered = builder.build().render()
        assert "SOME CHECKS FAILED" in rendered
        assert "(1/2)" in rendered

    def test_render_all_pass(self):
        builder = ReportBuilder("EX", "Title", "Artifact")
        builder.check("one", True)
        assert "ALL CHECKS PASS" in builder.build().render()
