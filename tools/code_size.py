"""Print each module's line count and code-line count, then the totals.

Code lines are the non-blank, non-comment lines outside module, class and
function docstrings.  Counts the modules of src/snoidal:

    python tools/code_size.py
"""

import ast
import pathlib


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main() -> None:
    total_lines = total_code = 0
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "snoidal"
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        docstrings = docstring_lines(ast.parse(text))
        code = sum(1 for n, line in enumerate(text.splitlines(), 1)
                   if line.strip() and not line.lstrip().startswith("#") and n not in docstrings)
        lines = text.count("\n")
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:16} {lines:5} lines {code:5} code")
    print("total".ljust(16), f"{total_lines:5} lines {total_code:5} code")


if __name__ == "__main__":
    main()
