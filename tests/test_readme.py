"""The README's library sketch runs and its exit-code table holds, the package
re-exports nothing, and every name the package defines has a reader."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qparch import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(capsys):
    exec(compile(library_sketch(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert len(printed) == 3 and printed[-1] == ""


def exit_code_rows():
    """(input, exit code) of each row of the README's exit-code table."""
    section = README.read_text(encoding="utf-8").split("### Exit codes", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["Input", "Exit", "Reason"] and set(rows[1][0]) == {"-"}
    return [(given, int(code)) for given, code, _ in rows[2:]]


# The rows whose input is one complete command: the rest need a file.
COMMANDS = [(shlex.split(match.group(1)), code) for given, code in exit_code_rows()
            if (match := re.fullmatch(r"`qparch ([^`]+)`", given))]


def test_the_exit_code_table_runs_a_command_for_most_rows():
    rows = exit_code_rows()
    assert len(COMMANDS) >= 20 and len(rows) - len(COMMANDS) <= 10
    assert {code for _, code in rows} == {0, 2, 3}


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_each_command_of_the_exit_code_table_exits_as_stated(argv, code, capsys, monkeypatch):
    """Exit 0 with output and an empty stderr, or the row's exit code with one
    ``error:`` line and an empty stdout."""
    monkeypatch.delenv(cli.PROFILE_ENV_VAR, raising=False)
    capsys.readouterr()
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code, err
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert "Traceback" not in err


def definitions(tree):
    """(name, node) of each top-level function, class, non-dunder method and module constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, node


def reads(tree):
    """(identifier, line) of each name, attribute and imported name that ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def string_words(tree):
    """The words of every string constant in ``tree`` that is not a docstring."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        is_string = isinstance(node, ast.Constant) and isinstance(node.value, str)
        if is_string and id(node) not in docstrings:
            yield from re.findall(r"\w+", node.value)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_the_package_module_defines_only_its_version():
    """``qparch/__init__.py`` is a docstring and ``__version__``: it imports and
    re-exports nothing, so each name has one import path,
    ``from qparch.<layer> import <name>``."""
    tree = parse(ROOT / "src" / "qparch" / "__init__.py")
    others = [ast.unparse(node).splitlines()[0] for node in tree.body[1:]
              if not (isinstance(node, ast.Assign)
                      and [ast.unparse(target) for target in node.targets] == ["__version__"])]
    assert ast.get_docstring(tree) and others == []


def test_every_name_has_a_reader():
    """Each name survives only if the package, the bench, an acceptance criterion
    or the library sketch reads it, outside the name's own definition."""
    package = {path: parse(path) for path in sorted((ROOT / "src" / "qparch").glob("*.py"))}
    inside = {}  # identifier -> (file, line) of each read in the package
    for path, tree in package.items():
        for name, line in reads(tree):
            inside.setdefault(name, []).append((path, line))
    outside = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = parse(path)
        outside.update(name for name, _ in reads(tree))
        outside.update(string_words(tree))  # tracing wraps functions by name
    outside.update(name for name, _ in reads(parse(ROOT / "tests" / "test_acceptance.py")))
    outside.update(name for name, _ in reads(ast.parse(library_sketch())))
    unread = []
    for path, tree in package.items():
        if path.name == "__init__.py":
            continue
        for name, node in definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if name not in outside and all(
                other == path and line in own for other, line in inside.get(name, ())
            ):
                unread.append(f"{path.stem}.{name}")
    assert unread == []


def type_tests(tree):
    """(line, source) of each ``isinstance(..., bool)``, alone or in a tuple, and each
    ``type(...) is int`` or ``type(...) is not int`` in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds):
                yield node.lineno, ast.unparse(node)
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Is, ast.IsNot))
              and ast.unparse(node.left).startswith("type(")
              and ast.unparse(node.comparators[0]) == "int"):
            yield node.lineno, ast.unparse(node)


def test_the_numeric_input_rule_has_one_home():
    """Only ``errors.py`` tells a bool from an int: every other module calls
    ``errors.is_int`` or ``errors.is_real``."""
    copies = [
        f"{path.name}:{line}: {source}"
        for path in sorted((ROOT / "src" / "qparch").glob("*.py")) if path.name != "errors.py"
        for line, source in type_tests(parse(path))
    ]
    assert copies == []


def count_rules(tree):
    """(line, source) of each read of ``MAX_EXACT_INT`` and each string constant
    holding "must be an integer" in ``tree``."""
    for name, line in reads(tree):
        if name == "MAX_EXACT_INT":
            yield line, name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "must be an integer" in node.value):
            yield node.lineno, repr(node.value)


def test_the_count_rule_has_one_home():
    """Only ``errors.py`` knows a count's largest value and words its type error:
    every other module calls ``errors.check_count``."""
    copies = [
        f"{path.name}:{line}: {source}"
        for path in sorted((ROOT / "src" / "qparch").glob("*.py")) if path.name != "errors.py"
        for line, source in count_rules(parse(path))
    ]
    assert copies == []


# Modules that cost start-up time on a host whose ``site`` does not preload them.
SLOW_IMPORTS = {"dataclasses", "typing", "inspect", "pathlib"}


def slow_imports(tree):
    """(line, module) of each import of a ``SLOW_IMPORTS`` module in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] in SLOW_IMPORTS:
                yield node.lineno, module


def test_the_package_imports_no_slow_module():
    """Records are ``collections.namedtuple`` classes and annotations name
    ``os.PathLike`` and ``collections.abc``, so no module pays for these imports."""
    found = [
        f"{path.name}:{line}: {module}"
        for path in sorted((ROOT / "src" / "qparch").glob("*.py"))
        for line, module in slow_imports(parse(path))
    ]
    assert found == []


def test_estimator_commands_load_no_dataclasses():
    """A fresh process running the estimator commands never loads ``dataclasses``,
    ``inspect`` or ``csv``."""
    script = """
import contextlib, io, sys
from qparch import cli
for argv in (["qec", "distance", "--distance", "31"], ["estimate", "shor", "--bits", "1024"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = {"dataclasses", "inspect", "csv"} & set(sys.modules)
assert not loaded, f"the estimator commands loaded {sorted(loaded)}"
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
