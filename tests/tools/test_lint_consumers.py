"""The consumer gate: src/ holds nothing only tests reach."""

import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

from lint_consumers import lint_repo, main  # noqa: E402


def test_src_tree_has_a_consumer_for_everything():
    """The enforced invariant: every finding is deleted or waived."""
    report = lint_repo(REPO)
    assert report == [], "\n".join(report)


def _write(root: Path, files: dict[str, str]) -> None:
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


@pytest.fixture
def seeded(tmp_path):
    """A miniature repo: a CLI entry point, a library module, a test."""
    _write(tmp_path, {
        "src/repro/__init__.py": '''
            from repro.core import reexported

            __all__ = ["reexported"]
        ''',
        "src/repro/cli.py": '''
            from repro.core import Machine, used


            def main():
                machine = Machine()
                machine.run()
                return used()
        ''',
        "src/repro/core.py": '''
            def used():
                return _helper()


            def _helper():
                return 1


            def _dead():
                return 2


            def only_tested():
                return 3


            def reexported():
                return 4


            def registered():
                return 5


            REGISTRY = {"registered": registered}


            class Machine:
                def run(self):
                    return 6

                def test_hook(self):
                    return 7
        ''',
        "tests/test_core.py": '''
            from repro.core import Machine, only_tested


            def test_it():
                assert only_tested() == 3
                assert Machine().test_hook() == 7
        ''',
    })
    return tmp_path


def _names(report):
    """Qualified names of the ``path:line: kind name why`` findings."""
    return {line.split()[2] for line in report
            if line.split()[1] in ("function", "class", "method")}


class TestSeededCases:
    def test_test_only_function_is_flagged(self, seeded):
        report = lint_repo(seeded)
        assert any("repro.core.only_tested is reached only from tests/" in line
                   for line in report)

    def test_test_only_method_of_a_live_class_is_flagged(self, seeded):
        assert "repro.core.Machine.test_hook" in _names(lint_repo(seeded))

    def test_registry_entry_is_not_flagged(self, seeded):
        assert "repro.core.registered" not in _names(lint_repo(seeded))

    def test_init_reexport_is_not_a_consumer(self, seeded):
        assert "repro.core.reexported" in _names(lint_repo(seeded))

    def test_unreferenced_private_is_flagged_referenced_one_is_not(self, seeded):
        names = _names(lint_repo(seeded))
        assert "repro.core._dead" in names
        assert "repro.core._helper" not in names

    def test_exact_findings(self, seeded):
        assert _names(lint_repo(seeded)) == {
            "repro.core._dead", "repro.core.only_tested",
            "repro.core.reexported", "repro.core.Machine.test_hook",
        }

    def test_benchmark_and_ci_snippet_are_roots(self, seeded):
        _write(seeded, {
            "benchmarks/bench_core.py": '''
                from repro.core import only_tested
                only_tested()
            ''',
            ".github/workflows/ci.yml": '''
                jobs:
                  test:
                    steps:
                      - run: |
                          python - <<'PY'
                          from repro.core import reexported
                          reexported()
                          PY
            ''',
        })
        names = _names(lint_repo(seeded))
        assert "repro.core.only_tested" not in names
        assert "repro.core.reexported" not in names

    def test_waiver_silences_a_finding(self, seeded):
        _write(seeded, {"tools/consumer_waivers.txt": '''
            # kept on purpose
            repro.core.only_tested: a paper artifact
            repro.core.Machine: the class and everything under it
        '''})
        assert _names(lint_repo(seeded)) == {"repro.core._dead", "repro.core.reexported"}

    def test_stale_waiver_fails(self, seeded):
        _write(seeded, {"tools/consumer_waivers.txt": "repro.core.used: live already\n"})
        report = lint_repo(seeded)
        assert any("stale waiver 'repro.core.used'" in line for line in report)

    def test_waiver_needs_a_reason(self, seeded):
        _write(seeded, {"tools/consumer_waivers.txt": "repro.core.only_tested:\n"})
        assert any("needs a reason" in line for line in lint_repo(seeded))

    def test_main_exits_non_zero_on_findings(self, seeded, capsys):
        assert main([str(seeded / "src")]) == 1
        assert "only_tested" in capsys.readouterr().out
