"""The size of the library: for each module of src/slncrystals, its physical
lines, as `wc -l` counts them, and its code lines, the lines that are not
blank, not comment-only and not part of a docstring.  Every line of a
string literal that is not a docstring is code.  Docstrings and strings
are found with the stdlib ast module.

Run from anywhere: python tests/src_size.py
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "slncrystals"

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of a module's source."""
    tree = ast.parse(source)
    docs, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.update(range(node.lineno, node.end_lineno + 1))
    count = 0
    for number, text in enumerate(source.splitlines(), 1):
        text = text.strip()
        if number not in docs and (
            number in strings or (text and not text.startswith("#"))
        ):
            count += 1
    return count


def main():
    print("%7s %7s  %s" % ("lines", "code", "module"))
    total_lines = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines, code = source.count("\n"), code_lines(source)
        total_lines += lines
        total_code += code
        print("%7d %7d  %s" % (lines, code, path.name))
    print("%7d %7d  total" % (total_lines, total_code))


if __name__ == "__main__":
    main()
