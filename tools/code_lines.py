"""Count the code lines of a Python package: lines that hold a token other
than a comment, not counting blank lines and docstrings.

Usage: python3 tools/code_lines.py src/ohara
"""

import ast
import io
import pathlib
import sys
import tokenize

#: tokens that put no code on a line
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path):
    """Number of code lines in the Python file ``path``."""
    source = pathlib.Path(path).read_text()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


if __name__ == "__main__":
    total = 0
    for path in sorted(pathlib.Path(sys.argv[1]).glob("*.py")):
        n = code_lines(path)
        total += n
        print("%6d %s" % (n, path.name))
    print("total %d" % total)
