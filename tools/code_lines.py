"""Count the code lines of a Python package: lines that hold a token other
than a comment, not counting blank lines and docstrings.

Usage: python3 tools/code_lines.py src/ohara [--rev REV]

With ``--rev`` it also counts the same directory at git revision ``REV``
(through ``git show``) and prints the net change; a ``REV`` that does not
exist is reported, and the exit code stays 0.
"""

import argparse
import ast
import io
import pathlib
import subprocess
import tokenize

#: tokens that put no code on a line
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """Number of code lines in the Python source text ``source``."""
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


def _git(*args):
    return subprocess.run(("git",) + args, capture_output=True, text=True)


def rev_total(directory, rev):
    """Code lines of the ``*.py`` files of ``directory`` at git revision
    ``rev``, or None when ``rev`` names no commit."""
    if _git("rev-parse", "--verify", "--quiet", rev + "^{commit}").returncode:
        return None
    names = _git("ls-tree", "--name-only", rev, directory.rstrip("/") + "/").stdout.split()
    return sum(code_lines(_git("show", "%s:./%s" % (rev, name)).stdout)
               for name in names if name.endswith(".py"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory")
    parser.add_argument("--rev", help="git revision to count the same directory at")
    args = parser.parse_args()
    total = 0
    for path in sorted(pathlib.Path(args.directory).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%6d %s" % (n, path.name))
    print("total %d" % total)
    if args.rev is not None:
        before = rev_total(args.directory, args.rev)
        if before is None:
            print("revision %s does not exist: no net change" % args.rev)
        else:
            print("total %d at %s, net %+d" % (before, args.rev, total - before))
