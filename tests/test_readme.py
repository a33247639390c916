"""The README's promises: the quick-start table, the CLI flag table, the
library snippet, the names the package exports, and the names it cites."""

from __future__ import annotations

import importlib
import os
import pkgutil
import re

import clare
from clare import harness
from clare.harness import build_parser, run_cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _fenced_blocks(text: str) -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S)


def test_quick_start_prints_the_readme_table(capsys):
    blocks = _fenced_blocks(_readme())
    command = next(b for b in blocks if b.startswith("clare --dataset toy"))
    table = blocks[blocks.index(command) + 1]
    assert run_cli(command.split()[1:]) == 0
    printed = capsys.readouterr().out
    assert [line.split() for line in printed.splitlines()] == [
        line.split() for line in table.splitlines()
    ]
    assert table.splitlines()[-1].split() == ["1", "7", "100.0", "100.0", "98.7"]


def test_cli_table_lists_exactly_the_parser_flags():
    section = _readme().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    listed = re.findall(r"--[a-z][a-z-]*", " ".join(row.split(" | ")[0] for row in rows))
    flags = [
        flag
        for action in build_parser()._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    ]
    assert sorted(listed) == sorted(flags)


def test_console_script_names_the_cli_entry_point():
    # The installed ``clare`` command must resolve to the function the CLI
    # tests run.
    with open(os.path.join(os.path.dirname(README), "pyproject.toml")) as fh:
        scripts = fh.read().split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, name = re.fullmatch(r'clare = "([\w.]+):(\w+)"', scripts.strip()).groups()
    assert getattr(importlib.import_module(module), name) is harness.main


def test_library_use_snippet_runs(capsys):
    section = _readme().split("## Library use", 1)[1]
    snippet = _fenced_blocks(section)[0]
    exec(compile(snippet, "README.md (Library use)", "exec"), {})
    assert capsys.readouterr().out.startswith("[")


def test_every_exported_name_resolves():
    for name in clare.__all__:
        assert getattr(clare, name, None) is not None, name


def test_every_program_name_the_readme_cites_resolves():
    # A backticked `clare.<module>.<name>`, `<module>.<name>` or
    # `<ExportedClass>.<attr>` must name something the package has, so a
    # deleted name cannot linger in the prose.
    modules = {info.name for info in pkgutil.iter_modules(clare.__path__)}
    cited = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", _readme())))
    checked = []
    for name in cited:
        parts = name.split(".")
        if parts[0] == "clare":
            parts = parts[1:]
        if parts[0] in modules:
            obj = importlib.import_module(f"clare.{parts[0]}")
        elif re.fullmatch(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*", parts[0]):
            assert parts[0] in clare.__all__, f"{name}: {parts[0]} is not exported"
            obj = getattr(clare, parts[0])
        else:
            continue  # a file or a benchmark metric, not a program name
        for attr in parts[1:]:
            assert hasattr(obj, attr), f"{name}: no {attr!r}"
            obj = getattr(obj, attr)
        checked.append(name)
    for name in ("ClareModel.decode", "clare.replay.generate_replay",
                 "clare.numkit.linear_forward"):
        assert name in checked, name
