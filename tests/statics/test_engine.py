"""Engine mechanics: discovery, pragma suppression, ignore, catalogue."""

import textwrap

from repro.lint import expand_rule_patterns, rule_pattern_matches
from repro.statics import (
    CONCURRENCY_RULES,
    OBSERVABILITY_RULES,
    analyze_source,
    discover_modules,
    module_from_source,
    parse_pragmas,
    rule_catalogue,
    run_statics,
)

# A minimal RC006 positive: host module, broad except, pass-only body.
SWALLOW = textwrap.dedent(
    """\
    def f():
        try:
            g()
        except Exception:
            pass
    """
)


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


class TestPragmas:
    def test_parse_single_and_multi_rule(self):
        pragmas = parse_pragmas(
            "x = 1  # statics: ignore[RC001] owned by caller\n"
            "# statics: ignore[RC005, RC006]\n"
        )
        assert pragmas[1].rule_ids == ("RC001",)
        assert pragmas[1].justified
        assert pragmas[2].rule_ids == ("RC005", "RC006")
        assert not pragmas[2].justified

    def test_justified_pragma_suppresses(self):
        source = SWALLOW.replace(
            "    except Exception:",
            "    except Exception:"
            "  # statics: ignore[RC006] exercised by the fault suite",
        )
        report = analyze_source(source, name="host.demo", rules=["RC006"])
        assert report.clean

    def test_pragma_on_line_above_suppresses(self):
        source = SWALLOW.replace(
            "    except Exception:",
            "        # statics: ignore[RC006] exercised by the fault suite\n"
            "    except Exception:",
        )
        report = analyze_source(source, name="host.demo", rules=["RC006"])
        assert report.clean

    def test_unjustified_pragma_does_not_suppress(self):
        source = SWALLOW.replace(
            "    except Exception:",
            "    except Exception:  # statics: ignore[RC006]",
        )
        report = analyze_source(source, name="host.demo", rules=["RC006"])
        assert rule_ids(report) == ["RC006"]
        assert "lacks a justification" in report.findings[0].message

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = SWALLOW.replace(
            "    except Exception:",
            "    except Exception:  # statics: ignore[RC001] wrong rule",
        )
        report = analyze_source(source, name="host.demo", rules=["RC006"])
        assert rule_ids(report) == ["RC006"]


class TestEngine:
    def test_ignore_drops_the_rule(self):
        report = analyze_source(SWALLOW, name="host.demo", ignore=["RC006"])
        assert "RC006" not in rule_ids(report)

    def test_rules_selection_runs_only_those(self):
        report = analyze_source(SWALLOW, name="host.demo", rules=["RC001"])
        assert report.clean

    def test_report_subject_is_module_name(self):
        report = analyze_source("x = 1\n", name="host.demo")
        assert report.subject == "host.demo"

    def test_catalogue_covers_both_families(self):
        ids = {entry["rule"] for entry in rule_catalogue()}
        assert set(CONCURRENCY_RULES) <= ids
        assert set(OBSERVABILITY_RULES) <= ids
        assert len(CONCURRENCY_RULES) == 5
        assert len(OBSERVABILITY_RULES) == 4


class TestDiscovery:
    def test_discovers_and_names_modules(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "a.py").write_text("x = 1\n")
        (package / "sub" / "b.py").write_text("y = 2\n")
        names = {module.name for module in discover_modules(package)}
        assert names == {"pkg", "pkg.a", "pkg.sub.b"}

    def test_skips_pycache_and_broken_files(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "__pycache__").mkdir(parents=True)
        (package / "__pycache__" / "junk.py").write_text("x = 1\n")
        (package / "broken.py").write_text("def :::\n")
        (package / "good.py").write_text("x = 1\n")
        names = {module.name for module in discover_modules(package)}
        assert names == {"pkg.good"}

    def test_run_statics_over_directory(self, tmp_path):
        package = tmp_path / "host"
        package.mkdir()
        (package / "bad.py").write_text(SWALLOW)
        reports = run_statics(package)
        assert any("RC006" in rule_ids(report) for report in reports)

    def test_module_from_source_carries_pragmas(self):
        module = module_from_source("x = 1  # statics: ignore[RC001] why\n")
        assert module.pragma_for(1, "RC001") is not None
        assert module.pragma_for(1, "RC002") is None


class TestRulePatterns:
    """One selector grammar for CLI ignores and line pragmas."""

    def test_exact_match(self):
        assert rule_pattern_matches("RC006", "RC006")
        assert not rule_pattern_matches("RC006", "RC005")

    def test_glob_selects_the_family(self):
        assert rule_pattern_matches("RC00*", "RC006")
        assert not rule_pattern_matches("RC00*", "OB001")

    def test_range_is_inclusive(self):
        assert rule_pattern_matches("RC001-RC004", "RC001")
        assert rule_pattern_matches("RC001-RC004", "RC004")
        assert not rule_pattern_matches("RC001-RC004", "RC005")

    def test_mismatched_family_range_selects_nothing(self):
        assert not rule_pattern_matches("RC001-OB004", "RC002")

    def test_expand_reports_concrete_ids(self):
        known = ("RC001", "RC002", "RC006", "OB001")
        assert expand_rule_patterns(["RC001-RC004"], known) == ("RC001", "RC002")
        assert expand_rule_patterns(["OB*"], known) == ("OB001",)

    def test_cli_ignore_accepts_range(self):
        report = analyze_source(SWALLOW, name="host.demo", ignore=["RC004-RC008"])
        assert "RC006" not in rule_ids(report)

    def test_cli_ignore_accepts_glob(self):
        report = analyze_source(SWALLOW, name="host.demo", ignore=["RC00*"])
        assert "RC006" not in rule_ids(report)

    def test_range_pragma_suppresses(self):
        source = SWALLOW.replace(
            "    except Exception:",
            "    except Exception:"
            "  # statics: ignore[RC005-RC007] exercised by the fault suite",
        )
        report = analyze_source(source, name="host.demo", rules=["RC006"])
        assert report.clean

    def test_glob_pragma_suppresses(self):
        source = SWALLOW.replace(
            "    except Exception:",
            "    except Exception:"
            "  # statics: ignore[RC00*] exercised by the fault suite",
        )
        report = analyze_source(source, name="host.demo", rules=["RC006"])
        assert report.clean

    def test_out_of_range_pragma_does_not_suppress(self):
        source = SWALLOW.replace(
            "    except Exception:",
            "    except Exception:"
            "  # statics: ignore[RC001-RC005] wrong span",
        )
        report = analyze_source(source, name="host.demo", rules=["RC006"])
        assert rule_ids(report) == ["RC006"]
