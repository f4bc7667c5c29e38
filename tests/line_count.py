"""Count the lines of ``src/cfpilot`` by kind: code, docstring, comment and blank.

    python tests/line_count.py [directory]

A line is a docstring line when it lies inside a module, class or function
docstring (``ast``), blank lines inside one included; a comment line when
its only token is a comment (``tokenize``); a blank line when it holds only
whitespace outside any string; and a code line otherwise. Each file's four
kinds sum to its line count. Prints one row per module and the total.
"""

import ast
import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cfpilot"


def docstring_lines(tree):
    """The 1-based numbers of the lines that a docstring of ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source):
    """``{kind: lines}`` of one module's source text."""
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = set()
    comments = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in comments and number not in code:
            counts["comment"] += 1
        elif number in code or line.strip():
            counts["code"] += 1
        else:
            counts["blank"] += 1
    return counts


def count_package(directory=PACKAGE):
    """``{module name: {kind: lines}}`` of every ``.py`` file in ``directory``."""
    return {path.name: count_lines(path.read_text(encoding="utf-8"))
            for path in sorted(pathlib.Path(directory).glob("*.py"))}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    modules = count_package(*argv[:1])
    total = {kind: sum(counts[kind] for counts in modules.values()) for kind in KINDS}
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in [*modules.items(), ("total", total)]:
        print(f"{name:<16}{sum(counts.values()):>7}"
              + "".join(f"{counts[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main()
