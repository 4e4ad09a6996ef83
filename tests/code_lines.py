"""Count the code lines of Python source files.

    python tests/code_lines.py src/parterm/*.py

prints each file's count and then the total.  A line counts when it holds a
token other than a comment, NL, NEWLINE, INDENT, DEDENT or the end marker,
and it is not part of a module, class or function docstring.  A string
that spans lines holds every line it spans.
"""

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = count_code_lines(fh.read())
        print(f"{n:6d} {path}")
        total += n
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
