"""README's Python examples run and print what their comments state."""

import contextlib
import doctest
import io
import re
from pathlib import Path

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README, re.M | re.S)


def test_the_grammar_example_gives_weight_4():
    """The first block is a doctest: each output line is checked as stated."""
    test = doctest.DocTestParser().get_doctest(_BLOCKS[0], {}, "README", "README.md", 0)
    assert [ex.want for ex in test.examples if ex.want] == ["4\n"]
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test, out=lambda _: None)
    assert runner.summarize(verbose=False) == doctest.TestResults(0, len(test.examples))


def test_the_library_sketch_prints_what_its_comments_state():
    """Every ``print`` line of the sketch carries its output as a comment;
    run the sketch and compare the lines it prints with those comments."""
    stated = [line.split("#", 1)[1].strip() for line in _BLOCKS[1].splitlines()
              if line.startswith("print(")]
    assert stated == ["u0^2 - 8*u1^3 - 8*u1*C1 - u1'^2", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_BLOCKS[1], "README.md", "exec"), {})
    assert out.getvalue().splitlines() == stated
