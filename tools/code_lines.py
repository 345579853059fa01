"""Code lines of the relaysim package, per module and in total.

    python tools/code_lines.py [SRC]

A code line is a physical line that holds part of a token other than a
comment, and is not part of a docstring (the first statement of a module,
class or function, when it is a string). Blank lines, comment lines and
docstrings therefore do not count; a line holding code and a trailing
comment counts once, and every line a multi-line expression spans counts.
SRC is the directory holding the package (default: this checkout's
`src/`). Each module under SRC/relaysim is printed with its count, then
the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source `text`."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def count(src) -> dict:
    """{module file name: code lines} for the relaysim package under `src`."""
    package = Path(src) / "relaysim"
    return {path.name: code_lines(path.read_text())
            for path in sorted(package.glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"),
                        help="the directory holding the relaysim package")
    args = parser.parse_args(argv)
    if not (Path(args.src) / "relaysim" / "__init__.py").is_file():
        parser.error(f"no relaysim/__init__.py under {args.src!r}")
    counts = count(args.src)
    for name, lines in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
