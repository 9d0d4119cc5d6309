"""The library tour of README.md runs, and what its comments state holds."""

import pathlib
import re

from slncrystals import Partition

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def tour():
    """The one ```python block of the README: its source, and each of its
    lines split into (code, comment), with '' for a missing part."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    lines = []
    for line in blocks[0].splitlines():
        code, _, comment = line.partition("#")
        lines.append((code.strip(), comment.strip()))
    return blocks[0], lines


def test_readme_tour_comments_hold():
    source, lines = tour()
    ns = {}
    exec(compile(source, str(README), "exec"), ns)
    said = {code: comment for code, comment in lines if code and comment}

    assert said["ell_core(lam, 4)"] == "Partition((8, 5, 2, 1))"
    assert eval("ell_core(lam, 4)", ns) == Partition((8, 5, 2, 1))

    assert said["[c.charge for c in ell_quotient(lam, 4)]"] == "[-1, 0, -1, 2]"
    assert eval("[c.charge for c in ell_quotient(lam, 4)]", ns) == [-1, 0, -1, 2]

    assert said["cpp_weight(pi), hw_of_cpp(pi)"] == "(1, L0+2*L1+L2)"
    weight, hw = eval("cpp_weight(pi), hw_of_cpp(pi)", ns)
    assert weight == 1 and str(hw) == "L0+2*L1+L2"

    # the Z line and the "# == ..." lines below it name one series
    start = [code for code, _ in lines].index(
        "Z_rep(DominantWeight((2, 0, 0)), 3, 2, 12).coeffs"
    )
    same = [comment[3:] for code, comment in lines[start + 1 :]
            if not code and comment.startswith("== ")]
    assert len(same) == 2
    want = eval(lines[start][0], ns)
    assert want[:4] == [1, 1, 3, 5]
    for expr in same:
        assert eval(expr, ns) == want, expr
