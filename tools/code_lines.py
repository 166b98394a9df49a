"""Print the code lines of a source tree: lines that are not blank, not
comment-only and not inside a docstring that ``ast`` reports.

Usage: python tools/code_lines.py [DIR]   (default: src/parryscope)
"""

import ast
import sys
from pathlib import Path

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/parryscope")
    print(f"code lines of {root}:", sum(map(code_lines, sorted(root.rglob("*.py")))))
