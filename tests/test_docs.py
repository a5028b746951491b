"""Docs hygiene: intra-repo links resolve, the ``*.md`` files code names
exist, and the examples compile.

The CI ``docs`` job runs the link check standalone
(``python -m repro.tools.doccheck``) and runs every example; running the
checks in tier-1 too means a broken README link fails locally before it
reaches CI.
"""

import os
import py_compile
import re

from repro.tools.doccheck import (check_file, find_orphans,
                                  iter_markdown_files, link_targets, main)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_TARGETS = ["README.md", "docs", "ROADMAP.md", "CHANGES.md"]

#: a ``*.md`` file name, possibly with a directory part, as code cites it
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def _repo_path(*parts):
    return os.path.join(REPO_ROOT, *parts)


class TestRepoDocs:
    def test_expected_docs_exist(self):
        assert os.path.exists(_repo_path("README.md"))
        assert os.path.exists(_repo_path("docs", "ARCHITECTURE.md"))
        assert os.path.exists(_repo_path("docs", "PERSISTENCE.md"))
        assert os.path.exists(_repo_path("docs", "ANALYSIS.md"))

    def test_no_broken_intra_repo_links(self):
        problems = []
        for path in iter_markdown_files([_repo_path(t) for t in DOC_TARGETS]):
            problems.extend((path, line, target)
                            for line, target in check_file(path))
        assert problems == []

    def test_doccheck_cli_passes_on_repo(self, capsys):
        assert main([_repo_path(t) for t in DOC_TARGETS]) == 0
        assert "ok" in capsys.readouterr().out

    def test_no_orphaned_docs(self):
        # Every reference doc under docs/ must be reachable from the
        # scanned entry points (README, ROADMAP, the docs themselves).
        referenced = set()
        for path in iter_markdown_files([_repo_path(t) for t in DOC_TARGETS]):
            referenced |= link_targets(path)
        assert find_orphans(_repo_path("docs"), referenced) == []

    def test_readme_covers_required_sections(self):
        with open(_repo_path("README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        # The pieces the README must keep: quickstart, verify command,
        # package map, and the benchmark-figure index.
        assert "examples/quickstart.py" in readme
        assert "python -m pytest -x -q" in readme
        for package in ("piglatin", "logical", "mrcompiler", "mapreduce",
                        "restore"):
            assert package in readme
        for figure in range(9, 18):
            assert f"bench_fig{figure:02d}" in readme

    def test_architecture_covers_required_topics(self):
        with open(_repo_path("docs", "ARCHITECTURE.md"),
                  encoding="utf-8") as handle:
            text = handle.read()
        for topic in ("lifecycle", "fingerprint", "shard", "manifest",
                      "segment", "dirty"):
            assert topic in text.lower()

    def test_persistence_reference_covers_required_topics(self):
        """docs/PERSISTENCE.md is the registered durable-format
        reference: it must keep the grammar, watermark, and
        crash-ordering material the loader and the writer implement."""
        with open(_repo_path("docs", "PERSISTENCE.md"),
                  encoding="utf-8") as handle:
            text = handle.read()
        for topic in ("restore-manifest", "base_seq", "last_seq",
                      "watermark", "section", "segment", "torn", "stale",
                      "dangling", "walkthrough", "snapshot-before-",
                      "save_repository", "order_gen"):
            assert topic in text.lower(), topic

    def test_analysis_reference_covers_required_topics(self):
        """docs/ANALYSIS.md is the statlint reference: rule catalog,
        annotation conventions, suppression grammar, baseline flow."""
        with open(_repo_path("docs", "ANALYSIS.md"),
                  encoding="utf-8") as handle:
            text = handle.read()
        for topic in ("lock-discipline", "lock-ordering", "fork-safety",
                      "crash-ordering", "exception-hygiene",
                      "suppression-hygiene", "guarded_by",
                      "process-entrypoint", "baseline", "--fail-on-new",
                      "justification", "limitations"):
            assert topic in text.lower(), topic


    def test_md_names_in_code_resolve(self):
        """Every ``*.md`` name in a ``.py`` file under src/, benchmarks/ or
        examples/ is a file relative to that file's directory, the repo
        root or docs/."""
        dangling = []
        for top in ("src", "benchmarks", "examples"):
            for directory, _, names in os.walk(_repo_path(top)):
                bases = (directory, REPO_ROOT, _repo_path("docs"))
                for name in sorted(names):
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        for number, line in enumerate(handle, 1):
                            dangling.extend(
                                (os.path.relpath(path, REPO_ROOT), number, target)
                                for target in MD_NAME.findall(line)
                                if not any(os.path.isfile(os.path.join(base, target))
                                           for base in bases))
        assert dangling == []


class TestDoccheckTool:
    def test_detects_broken_link(self, tmp_path):
        doc = tmp_path / "bad.md"
        doc.write_text("see [missing](does/not/exist.md) here\n",
                       encoding="utf-8")
        broken = check_file(str(doc))
        assert broken == [(1, "does/not/exist.md")]
        assert main([str(doc)]) == 1

    def test_skips_external_and_anchor_links(self, tmp_path):
        doc = tmp_path / "ok.md"
        doc.write_text(
            "[web](https://example.com) [mail](mailto:a@b.c) "
            "[anchor](#section)\n",
            encoding="utf-8")
        assert check_file(str(doc)) == []

    def test_anchor_suffix_on_relative_link_ignored(self, tmp_path):
        (tmp_path / "other.md").write_text("# t\n", encoding="utf-8")
        doc = tmp_path / "doc.md"
        doc.write_text("[t](other.md#t) [bad](gone.md#t)\n", encoding="utf-8")
        assert check_file(str(doc)) == [(1, "gone.md#t")]

    def test_directory_scan_recurses(self, tmp_path):
        nested = tmp_path / "sub"
        nested.mkdir()
        (nested / "deep.md").write_text("[x](nope.md)\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 1

    def test_missing_argument_file_fails(self):
        assert main(["/no/such/file.md"]) == 1

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_orphan_detected(self, tmp_path, capsys):
        (tmp_path / "index.md").write_text("[a](linked.md)\n",
                                           encoding="utf-8")
        (tmp_path / "linked.md").write_text("[back](index.md)\n",
                                            encoding="utf-8")
        (tmp_path / "floating.md").write_text("# floating\n",
                                              encoding="utf-8")
        assert main([str(tmp_path), "--orphans", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "floating.md" in err and "orphaned" in err
        assert "linked.md" not in err

    def test_fully_linked_directory_has_no_orphans(self, tmp_path):
        (tmp_path / "index.md").write_text("[a](linked.md)\n",
                                           encoding="utf-8")
        (tmp_path / "linked.md").write_text("[back](index.md)\n",
                                            encoding="utf-8")
        assert main([str(tmp_path), "--orphans", str(tmp_path)]) == 0

    def test_orphans_needs_a_directory_argument(self):
        assert main(["--orphans"]) == 2

    def test_orphans_missing_directory_fails(self, tmp_path):
        (tmp_path / "a.md").write_text("# a\n", encoding="utf-8")
        assert main([str(tmp_path), "--orphans",
                     str(tmp_path / "nope")]) == 1


class TestExamplesCompile:
    def test_examples_compile(self, tmp_path):
        """Every example must byte-compile — the CI docs job runs
        `python -m compileall examples/` so documented examples cannot
        rot silently. Compiled files go to a temp dir to keep the
        working tree clean."""
        for name in sorted(os.listdir(_repo_path("examples"))):
            if name.endswith(".py"):
                py_compile.compile(_repo_path("examples", name),
                                   cfile=str(tmp_path / (name + "c")),
                                   doraise=True)

    def test_examples_have_main(self):
        for name in os.listdir(_repo_path("examples")):
            if name.endswith(".py"):
                with open(_repo_path("examples", name),
                          encoding="utf-8") as handle:
                    assert "def main():" in handle.read(), name
