"""The README's python examples run and print what their comments say."""
import ast
import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading):
    """The first python block under `heading`: its code and its comments,
    in order."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading + "\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if "#" in line]
    return code, comments


def _printed(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    return out.getvalue().splitlines()


def test_library_example():
    code, comments = _block("## Library example")
    assert comments == ["a quaternionic module", "degree 4, value 1 in Z",
                        "the same class", "Z2, value 1"]
    flow, module, kitaev = map(ast.literal_eval, _printed(code))
    assert flow == module == {"degree": 4, "group": "Z", "value": 1}
    assert kitaev == {"degree": 2, "group": "Z2", "value": 1}


def test_bordered_route_example():
    code, comments = _block("### The `kitaev` route: the bordered seam block")
    assert comments == ["det M: -1/36, 0 (to rounding), +1/18"]
    rows = [tuple(map(float, line.split())) for line in _printed(code)]
    assert [a for a, _ in rows] == [0.0, 0.5, 1.0]
    for (_, det), expected in zip(rows, (-1 / 36, 0.0, 1 / 18)):
        assert det == pytest.approx(expected, abs=1e-12)
