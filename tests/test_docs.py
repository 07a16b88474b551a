"""The documentation stays consistent: nav complete, links resolve.

Runs ``tools/check_docs.py`` (the dependency-free checker CI pairs with
the mkdocs build) inside the regular suite, so a broken intra-repo link
or an orphaned docs page fails ``pytest`` locally — not just in CI.
"""

import importlib.util
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_docs.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_are_clean():
    result = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_nav_covers_every_docs_page():
    checker = _load_checker()
    nav = checker.nav_pages(REPO / "mkdocs.yml")
    pages = {p.name for p in (REPO / "docs").glob("*.md")}
    assert pages == set(nav) & pages  # no orphans
    assert set(nav) <= pages  # no dangling nav entries


def test_checker_flags_broken_link(tmp_path):
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text("see [missing](nope.md) and [bad](index.md#no-such)\n")
    (tmp_path / "index.md").write_text("# Title\n")
    errors = []
    checker.check_links(page, errors)
    assert len(errors) == 2
    assert "nope.md" in errors[0]
    assert "no-such" in errors[1]


def test_anchor_slugs_match_github_style():
    checker = _load_checker()
    robustness = REPO / "docs" / "robustness.md"
    anchors = checker.heading_anchors(robustness)
    # The exit-code contract anchor is load-bearing: index.md links to it.
    assert "exit-code-contract" in anchors


def test_rule_registry_and_static_analysis_page_agree():
    checker = _load_checker()
    errors = []
    checker.check_rule_anchors(errors)
    assert errors == []


def test_rule_anchor_check_catches_drift():
    """The anchor check is demonstrably capable of failing, both directions."""
    checker = _load_checker()
    registered = checker.registered_static_rules()
    assert {"RC001", "RC007", "OB001", "OB004"} <= registered
    page = REPO / "docs" / "static_analysis.md"
    documented = {
        match.group(1).upper()
        for anchor in checker.heading_anchors(page)
        for match in [checker.RULE_ANCHOR_RE.match(anchor)]
        if match
    }
    assert documented == registered


def test_code_fences_are_not_scanned(tmp_path):
    checker = _load_checker()
    page = tmp_path / "fenced.md"
    page.write_text("```\n[fake](missing.md)\n```\n")
    errors = []
    checker.check_links(page, errors)
    assert errors == []


def test_cli_surface_and_docs_agree():
    checker = _load_checker()
    errors = []
    checker.check_cli_surface(errors)
    assert errors == []


def test_cli_subcommand_scrape_sees_the_real_parser():
    checker = _load_checker()
    registered = checker.cli_subcommands()
    assert {"scan", "serve", "bench", "encode", "prove"} <= registered
    # Nested subcommands (obs summarize) are not top-level surface...
    assert "summarize" not in registered
    # ...but `obs` itself is.
    assert "obs" in registered


def test_cli_mention_scrape_reads_code_fences(tmp_path):
    checker = _load_checker()
    page = tmp_path / "walkthrough.md"
    page.write_text("```bash\nfabp-repro serve --port 0\n```\n")
    mentions = checker.documented_subcommands([page])
    assert "serve" in mentions


def test_cli_surface_check_catches_drift():
    """Both directions of the subcommand check can actually fail."""
    checker = _load_checker()
    registered = checker.cli_subcommands()
    pages = sorted((REPO / "docs").glob("*.md"))
    pages += [REPO / name for name in checker.EXTRA_FILES
              if (REPO / name).exists()]
    mentions = checker.documented_subcommands(pages)
    # every registered subcommand is documented, and no mention dangles
    assert registered <= set(mentions)
    assert set(mentions) <= registered
