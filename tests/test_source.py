"""Source guards: the package imports only the standard library, at module
level, and holds no assert statement, whose check python -O would strip;
only its two certificates raise VerificationFailed; the CLI reads no private
name of the package's modules; the test oracles import no private name of
the package they check; the README's library example runs as written, and
its library API lists exactly what ``import parryscope`` gives."""

import ast
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "parryscope"
README = TESTS.parent / "README.md"


def test_package_is_stdlib_only_and_assert_free():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_package_imports_only_at_module_level():
    # an import inside a function hides a module cycle and runs on every call
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(func):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        path.name, node.lineno)


def test_cli_reads_no_private_name_of_a_package_module():
    # a private name is a module's own format (say, the runs of a walk) and
    # may change with it; the CLI goes through public names only
    modules = {"numeration", "analysis", "substitution", "words", "errors"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [(node.value.id, node.attr)]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in names:
            assert module not in modules or not name.startswith("_"), (module, name, node.lineno)


def test_oracles_import_no_private_name_of_the_package():
    # an oracle that borrows the engine's helpers would share its bugs
    oracles = sorted(TESTS.glob("*oracle*.py"))
    assert oracles
    for path in oracles:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "parryscope":
                    assert not any(part.startswith("_") for part in parts), (path.name, name)


def _verification_raisers(node, scope):
    """Qualified names of the scopes that raise VerificationFailed."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                and getattr(child.exc.func, "id", None) == "VerificationFailed"):
            yield scope
        inner = f"{scope}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _verification_raisers(child, inner)


def test_verification_failures_come_only_from_the_two_certificates():
    # a fact the theory implies is proved in a comment, not checked at run time
    raisers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        raisers.update(_verification_raisers(ast.parse(path.read_text()), path.stem))
    assert raisers == {"analysis.FactorLibrary.__post_init__", "analysis.verify_witness"}


def test_readme_library_example_runs_as_written():
    # the lines of the "Library examples" block run in one namespace; where a
    # line's comment, up to its first colon, is a Python literal, the line's
    # value must equal it
    text = README.read_text().split("## Library examples", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.split(":", 1)[0].strip())
        except (SyntaxError, ValueError):
            exec(code, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked >= 3


def test_readme_library_api_lists_what_the_package_exports():
    # each "- `module`: `name`, ..." item of the "Library API" section against
    # the names that __init__ imports from that module
    section = README.read_text().split("## Library API", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for item in re.findall(r"^- (.*(?:\n  .*)*)", section, re.M):
        module, *names = re.findall(r"`([^`]*)`", item)
        documented.update((module, name) for name in names)
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported and documented == exported
