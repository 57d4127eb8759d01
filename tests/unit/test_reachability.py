"""Tests for scripts/reachability.py, the check that keeps test-only code out of ``src/``.

The script reads the repository it sits in; these tests point it at small
synthetic trees so each rule of what counts as a reference is checked alone.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "scripts" / "reachability.py"


@pytest.fixture()
def reachability(monkeypatch, tmp_path):
    """The script as a module, aimed at an empty tree under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("reachability_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "SOURCE", tmp_path / "src")
    monkeypatch.setattr(module, "KEEP", {})
    return module


def write(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")


def unreached_keys(module) -> set[str]:
    return {key for key, _, _ in module.unreached()}


LIBRARY = """\
    def used():
        return 1


    def unused():
        return 2
    """


def test_repository_has_no_unreached_definitions():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout
    assert result.stdout == ""
    assert "0 not kept, 0 stale keep entries" in result.stderr


def test_unused_function_is_reported(reachability, tmp_path):
    write(tmp_path, {"src/pkg/lib.py": LIBRARY, "examples/run.py": "from pkg.lib import used\n"})
    assert unreached_keys(reachability) == {"pkg/lib.py::unused"}


def test_call_from_each_referrer_directory_counts(reachability, tmp_path):
    for directory in ("src/pkg", "examples", "benchmarks", "scripts", "perfbench"):
        (tmp_path / directory).mkdir(parents=True)
    write(tmp_path, {"src/pkg/lib.py": LIBRARY})
    assert unreached_keys(reachability) == {"pkg/lib.py::used", "pkg/lib.py::unused"}
    for directory in ("examples", "benchmarks", "scripts", "perfbench"):
        (tmp_path / directory / "caller.py").write_text("import pkg.lib\npkg.lib.unused()\n")
        assert unreached_keys(reachability) == {"pkg/lib.py::used"}, directory
        (tmp_path / directory / "caller.py").unlink()


def test_reference_from_tests_does_not_count(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": LIBRARY,
            "examples/run.py": "from pkg.lib import used\n",
            "tests/test_lib.py": "from pkg.lib import unused\nunused()\n",
        },
    )
    assert unreached_keys(reachability) == {"pkg/lib.py::unused"}


def test_string_constant_counts(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": LIBRARY,
            "perfbench/layers.py": """\
                TARGETS = ("pkg.lib", "unused")
                NAMES = ["used"]
                """,
        },
    )
    assert unreached_keys(reachability) == set()


def test_decorator_use_counts(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": """\
                def register(function):
                    return function


                @register
                def preset():
                    return 3
                """,
            "examples/run.py": "import pkg.lib\npkg.lib.preset()\n",
        },
    )
    assert unreached_keys(reachability) == set()


def test_all_entry_and_init_reexport_do_not_count(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/__init__.py": 'from pkg.lib import unused, used\n__all__ = ["unused"]\n',
            "src/pkg/lib.py": '__all__ = ["used", "unused"]\n' + textwrap.dedent(LIBRARY),
            "examples/run.py": "from pkg import used\n",
        },
    )
    assert unreached_keys(reachability) == {"pkg/lib.py::unused"}


def test_import_from_outside_an_init_counts(reachability, tmp_path):
    write(
        tmp_path,
        {"src/pkg/lib.py": LIBRARY, "src/pkg/other.py": "from pkg.lib import unused, used\n"},
    )
    assert unreached_keys(reachability) == set()


def test_docstring_mentions_do_not_count(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": LIBRARY,
            "examples/run.py": '''\
                """unused"""
                from pkg.lib import used


                def main():
                    """unused"""
                    # unused()
                    return used()
                ''',
        },
    )
    assert unreached_keys(reachability) == {"pkg/lib.py::unused"}


def test_reference_from_its_own_body_does_not_count(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": """\
                def countdown(n):
                    return countdown(n - 1) if n else 0


                class Node:
                    def walk(self):
                        return self.walk()

                    def _private(self):
                        return Node
                """,
            "examples/run.py": "from pkg.lib import Node\n",
        },
    )
    assert unreached_keys(reachability) == {"pkg/lib.py::countdown", "pkg/lib.py::Node.walk"}


def test_methods_public_ones_only_reached_by_attribute(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": """\
                class Thing:
                    def read(self):
                        return 1

                    def write(self):
                        return 2

                    def _hidden(self):
                        return 3

                    def __len__(self):
                        return 0
                """,
            "examples/run.py": "from pkg.lib import Thing\nThing().read()\n",
        },
    )
    assert unreached_keys(reachability) == {"pkg/lib.py::Thing.write"}


def test_bare_name_equal_to_a_method_does_not_reach_it(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": """\
                class Thing:
                    def records(self):
                        return 1

                    def stage(self):
                        return 2

                    def flows(self):
                        return 3


                def helper():
                    return 4
                """,
            "examples/run.py": """\
                from pkg.lib import Thing

                records = [1, 2]
                print(records, helper)
                getattr(Thing(), "stage")()
                """,
        },
    )
    # ``records`` is only a local variable's name; ``stage`` is read by
    # string, ``helper`` (a module-level function) by bare name.
    assert unreached_keys(reachability) == {
        "pkg/lib.py::Thing.records",
        "pkg/lib.py::Thing.flows",
    }


def test_private_module_functions_are_listed(reachability, tmp_path):
    write(
        tmp_path,
        {
            "src/pkg/lib.py": "def _helper():\n    return 1\n\n\nclass _Hidden:\n    pass\n",
        },
    )
    assert unreached_keys(reachability) == {"pkg/lib.py::_helper", "pkg/lib.py::_Hidden"}


def test_main_reports_path_line_and_name(reachability, tmp_path, capsys):
    write(tmp_path, {"src/pkg/lib.py": LIBRARY, "examples/run.py": "from pkg.lib import used\n"})
    assert reachability.main() == 1
    captured = capsys.readouterr()
    assert captured.out == "src/pkg/lib.py:5: unused\n"
    assert "1 not kept" in captured.err


def test_keep_entry_passes_and_stale_keep_entry_fails(reachability, tmp_path, monkeypatch, capsys):
    write(tmp_path, {"src/pkg/lib.py": LIBRARY, "examples/run.py": "from pkg.lib import used\n"})
    monkeypatch.setattr(reachability, "KEEP", {"pkg/lib.py::unused": "kept for a reason"})
    assert reachability.main() == 0
    assert capsys.readouterr().out == ""
    (tmp_path / "examples" / "more.py").write_text("from pkg.lib import unused\n")
    assert reachability.main() == 1
    assert "stale KEEP entry (reached or gone): pkg/lib.py::unused" in capsys.readouterr().out


def test_every_keep_entry_has_a_reason():
    spec = importlib.util.spec_from_file_location("reachability_keep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.KEEP
    for key, reason in module.KEEP.items():
        assert "::" in key and (REPO / "src" / key.split("::")[0]).is_file(), key
        assert isinstance(reason, str) and reason.strip(), key
