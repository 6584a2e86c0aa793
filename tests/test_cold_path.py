"""The loader's cold path: bytes in, ``int`` parses, numerator tests.

``model.read_json`` reads bytes and translates newlines as a text-mode
read does, so documents with CRLF or CR-only line endings load, and fail,
as they did through text mode: same models, same line and column in a
syntax error, same byte offset of an invalid UTF-8 byte. Loading and
validating every bundled instance, and rendering a report of it, calls
none of ``Fraction``'s comparison, truth or arithmetic dunders, and no
canonical "p/q" literal reaches ``Fraction``'s string parser.
"""

import fractions
import json
import re
from fractions import Fraction

import pytest

from cmdpkit import cli, model

# A syntax error on the fourth line: "x" where a key belongs.
SYNTAX_ERROR = '{\n  "a": 1,\n  "b": 2,\n  x\n}'


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_copies_load_equal_to_the_lf_file(tmp_path, instances_dir, newline):
    source = instances_dir / "twochain.json"
    text = source.read_bytes().decode("utf-8")
    assert "\r" not in text
    copy = tmp_path / "twochain.json"
    copy.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert model.load_instance(copy) == model.load_instance(source)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_syntax_errors_keep_their_line_and_column(tmp_path, newline):
    path = tmp_path / "broken.json"
    path.write_bytes(SYNTAX_ERROR.replace("\n", newline).encode("utf-8"))
    with pytest.raises(model.InstanceFormatError) as caught:
        model.load_instance(path)
    assert caught.value.args[0] == (
        f"{path}: syntax error at line 4, column 3: "
        "Expecting property name enclosed in double quotes")


@pytest.mark.parametrize("tail, reason", [
    (b'\xff"}', "invalid start byte"),
    (b"\xe2\x82", "unexpected end of data"),
])
def test_invalid_utf8_past_the_first_8_kib_keeps_its_byte_offset(tmp_path, tail, reason):
    path = tmp_path / "late.json"
    path.write_bytes(b'{"x": "' + b"a" * 9000 + tail)
    with pytest.raises(model.InstanceFormatError) as caught:
        model.load_instance(path)
    assert caught.value.args[0] == f"{path}: not UTF-8 text ({reason} at byte 9007)"


# The dunders the cold path must not reach; the comparisons go through _richcmp.
FRACTION_DUNDERS = (
    "__eq__", "_richcmp", "__bool__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)
CANONICAL = re.compile(r"-?[0-9]+/[0-9]+\Z")


class _RecordingFormat:
    """Stands in for ``fractions._RATIONAL_FORMAT``: records each string
    ``Fraction(str)`` parses, then parses it."""

    def __init__(self, pattern, parsed: list[str]):
        self.pattern, self.parsed = pattern, parsed

    def match(self, text):
        self.parsed.append(text)
        return self.pattern.match(text)


def test_loading_validating_and_rendering_use_no_fraction_dunder(tmp_path, instances_dir, monkeypatch):
    names = [name for name in FRACTION_DUNDERS if name in vars(Fraction)]
    assert {"__eq__", "_richcmp", "__bool__", "__add__", "__mul__"} <= set(names)
    parsed: list[str] = []
    monkeypatch.setattr(fractions, "_RATIONAL_FORMAT",
                        _RecordingFormat(fractions._RATIONAL_FORMAT, parsed))
    assert Fraction("1.5") == Fraction(3, 2) and parsed == ["1.5"]  # the recorder sees Fraction(str)
    parsed.clear()

    # One row of haviv sums to 1/2 and one holds a negative probability.
    bad = tmp_path / "bad.json"
    bad.write_bytes((instances_dir / "haviv.json").read_bytes()
                    .replace(b'"c2_0": "1/1"', b'"c2_0": "1/2"', 1)
                    .replace(b'"y": "1/2"', b'"y": "-1/2"', 1))
    files = sorted(instances_dir.glob("*.json"))
    called: list[str] = []
    with monkeypatch.context() as patch:
        for name in names:
            original = vars(Fraction)[name]
            patch.setattr(Fraction, name, lambda *args, _name=name, _original=original, **kwargs:
                          called.append(_name) or _original(*args, **kwargs))
        models = [model.load_instance(path) for path in files]
        for mdp in models:
            model.render_json({
                "rewards": mdp.rewards, "constraints": mdp.constraints,
                "successors": mdp.successors, "report": model.validate(mdp)._asdict(),
            })
            model.instance_to_json(mdp)
        outcomes = [cli.run(["validate", str(path)]) for path in [*files, bad]]
    assert called == []
    assert [text for text in parsed if CANONICAL.match(text)] == []
    assert len(files) == 4
    assert [outcome.exit_code for outcome in outcomes] == [0, 0, 0, 0, 1]
    violations = json.loads(outcomes[-1].report)["violations"]
    assert [v["kind"] for v in violations] == ["row-negative", "row-sum", "row-sum"]
    assert all(type(p) is Fraction for mdp in models
               for rows in mdp.successors for row in rows for _, p in row)
