"""Print the lines and code lines of each module of ``src/sparserc/``.

    python3 tools/src_lines.py [DIR]

``DIR`` replaces ``src/sparserc/``, to count another checkout.  A code
line holds a token other than a comment, a docstring or a newline; a token
spanning several lines (a multi-line string) counts on each of them.  The
first column matches ``wc -l``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sparserc"
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docstrings.add(node.body[0].lineno)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP and not (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    total = code = 0
    for path in sorted(Path(argv[0] if argv else SRC).glob("*.py")):
        text = path.read_text()
        n, c = text.count("\n"), code_lines(text)
        total, code = total + n, code + c
        print(f"{n:6d} {c:6d}  {path.name}")
    print(f"{total:6d} {code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
