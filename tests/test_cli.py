import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsinf
from helpers import rand_block_doc
from rsinf.classifier import classify, ideal_to_json, parse_spec
from rsinf.cli import main
from rsinf.rs_infinite import Axis, block_ideal, eventually_constant


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rs_shifted_worked_example(capsys):
    code, out = run(capsys, "rs", "3,4,a,5", "--shifted")
    assert code == 0
    assert out == (
        '{"tableaux":[{"class":"0","rows":[["2","1"],["2"]]},'
        '{"class":"a","rows":[["a-3"]]}]}\n'
    )


def test_rs_plain(capsys):
    code, out = run(capsys, "rs", "3,1,2")
    assert code == 0
    assert json.loads(out) == {
        "tableaux": [{"class": "0", "rows": [["3", "2"], ["1"]]}]
    }


def test_rs_bad_entry(capsys):
    code, out = run(capsys, "rs", "3,oops+")
    assert code == 1
    assert "error" in json.loads(out)
    # a non-ASCII digit is not read as 3
    code, out = run(capsys, "rs", "٣")
    assert code == 1
    assert json.loads(out) == {"error": "malformed element literal '٣'"}


def test_seq_of_round_trip(tmp_path, capsys):
    code, out = run(capsys, "rs", "3,4,a,5", "--shifted")
    doc = tmp_path / "tabs.json"
    doc.write_text(out)
    code, out = run(capsys, "seq-of", str(doc))
    assert code == 0
    assert json.loads(out) == {"seq": ["2", "2", "1", "a-3"]}


def test_seq_of_rejects_empty_rows(tmp_path, capsys):
    doc = tmp_path / "tabs.json"
    doc.write_text('{"tableaux":[{"class":"0","rows":[]}]}')
    code, out = run(capsys, "seq-of", str(doc))
    assert code == 1
    assert json.loads(out) == {"error": "tableaux must have at least one nonempty row"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"tableaux":[["3"]]}', "each tableau is an object with a 'rows' list"),
        ('{"tableaux":[{"rows":"33"}]}', "each tableau is an object with a 'rows' list"),
        ('{"tableaux":[{"rows":["33"]}]}', "a tableau row must be a list, not str"),
        ('{"tableaux":5}', "a tableau document is an object with a 'tableaux' list"),
    ],
)
def test_seq_of_rejects_malformed_tableaux(tmp_path, capsys, doc, message):
    path = tmp_path / "tabs.json"
    path.write_text(doc)
    code, out = run(capsys, "seq-of", str(path))
    assert code == 1
    assert json.loads(out) == {"error": message}


def test_interchange_path(capsys):
    code, out = run(capsys, "interchange", "0,5,3", "5,0,3")
    assert code == 0
    assert out == '{"connected":true,"path":[1]}\n'


@pytest.mark.parametrize(
    "argv, want",
    [
        (["rs", "-3,4"], {"tableaux": [{"class": "0", "rows": [["4"], ["-3"]]}]}),
        (["rs", "-3"], {"tableaux": [{"class": "0", "rows": [["-3"]]}]}),
        (["rs", "-3,4", "--shifted"], {"tableaux": [{"class": "0", "rows": [["2"], ["-4"]]}]}),
        (["rs", "--", "-3,4"], {"tableaux": [{"class": "0", "rows": [["4"], ["-3"]]}]}),
        (["interchange", "-1,5,3", "5,-1,3"], {"connected": True, "path": [1]}),
        (["interchange", "-1,2", "2,-1", "--shifted", "--k=-1"],
         {"connected": False, "joseph_equal": False}),
        (["interchange", "--shifted", "-2,-1", "--k", "-1", "-1,0"],
         {"connected": False, "joseph_equal": True}),
        (["interchange", "--", "-1,5,3", "5,-1,3"], {"connected": True, "path": [1]}),
        # a single-dash argument with a comma is a value too
        (["rs", "-a,3"],
         {"tableaux": [{"class": "-a", "rows": [["-a"]]}, {"class": "0", "rows": [["3"]]}]}),
        (["interchange", "-a,1", "1,-a"], {"connected": True, "path": [1]}),
    ],
)
def test_sequence_may_start_with_a_negative_entry(capsys, argv, want):
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == want


def test_options_keep_their_meaning(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rs", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rsinf rs")
    with pytest.raises(SystemExit) as exc:
        main(["rs", "-x"])
    assert exc.value.code == 2


def test_interchange_length_mismatch(capsys):
    code, out = run(capsys, "interchange", "0,5", "5,0,3")
    assert code == 0
    assert json.loads(out) == {"connected": False}


def test_interchange_reports_joseph(capsys):
    code, out = run(capsys, "interchange", "2,3", "3,4", "--shifted", "--k=-1")
    assert code == 0
    data = json.loads(out)
    assert data["joseph_equal"] is True


def test_classify(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(
        json.dumps(
            {
                "regions": [
                    {"type": "omega", "exceptions": ["2", "2"], "tail": "0"}
                ]
            }
        )
    )
    code, out = run(capsys, "classify", str(doc))
    assert code == 0
    assert out == '{"ideal":{"r":0,"g":0,"X":[2,2],"Y":[]}}\n'


def test_classify_zero(tmp_path, capsys):
    doc = tmp_path / "spec.json"
    doc.write_text(
        json.dumps(
            {
                "regions": [
                    {"type": "omega", "exceptions": [], "tail": "0"},
                    {"type": "omega", "exceptions": [], "tail": "a"},
                ]
            }
        )
    )
    code, out = run(capsys, "classify", str(doc))
    assert code == 0
    data = json.loads(out)
    assert data["ideal"] == "zero"
    assert "classes" in data["reason"]


def test_classify_missing_file(capsys):
    code, out = run(capsys, "classify", "/no/such/file.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_a_key_error_is_a_bug_not_an_error_answer(tmp_path, capsys, monkeypatch):
    """Every document field is read through one reader that raises
    ValueError, so no CLI path raises KeyError on bad input: one that
    escapes is a fault of the program and must not print as a clean
    {"error": ...}."""
    doc = tmp_path / "spec.json"
    doc.write_text(json.dumps({"regions": [{"type": "omega", "exceptions": [], "tail": 0}]}))

    def broken(spec):
        raise KeyError("a missing key")

    monkeypatch.setattr(importlib.import_module("rsinf.classifier"), "classify", broken)
    with pytest.raises(KeyError, match="a missing key"):
        main(["classify", str(doc)])
    assert capsys.readouterr().out == ""


def test_rs_inf(tmp_path, capsys):
    doc = tmp_path / "block.json"
    doc.write_text(
        json.dumps({"axis": "neg", "exceptions": ["a"], "left_tail": "0"})
    )
    code, out = run(capsys, "rs-inf", str(doc))
    assert code == 0
    data = json.loads(out)
    assert data["axis"] == "neg"
    assert data["r"] == 1
    assert data["underline"] == ["a+1"]
    assert data["first_row"] == {"window": [], "left_law": "1"}
    assert data["ideal"] == {"r": 1, "g": 0, "X": [], "Y": []}
    assert data["finite_tableaux"] == [{"class": "a", "rows": [["a+1"]]}]


def test_rs_inf_bad_axis(tmp_path, capsys):
    doc = tmp_path / "block.json"
    doc.write_text('{"axis":"up","exceptions":[],"left_tail":"0"}')
    code, out = run(capsys, "rs-inf", str(doc))
    assert code == 1
    assert json.loads(out) == {"error": "unknown axis 'up'; use neg, pos or all"}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("classify", {"regions": [{"type": "omega", "exceptions": "55", "tail": "0"}]}),
        ("classify", {"regions": [{"type": "finite", "values": "55"}, {"type": "omega", "tail": "0"}]}),
        ("rs-inf", {"axis": "neg", "exceptions": "55", "left_tail": "0"}),
    ],
)
def test_string_for_list_is_rejected(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert "must be a list, not str" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # JSON null, true and false are not read as symbols
        ("classify", {"regions": [{"type": "omega", "exceptions": [None], "tail": "0"}]},
         "an entry of 'exceptions' must be a string or an integer, not null"),
        ("classify", {"regions": [{"type": "omega", "exceptions": [], "tail": True}]},
         "'tail' must be a string or an integer, not true"),
        ("classify", {"regions": [{"type": "zeta", "left_tail": 0, "right_tail": False}]},
         "'right_tail' must be a string or an integer, not false"),
        ("rs-inf", {"axis": "neg", "exceptions": [], "left_tail": True},
         "'left_tail' must be a string or an integer, not true"),
        ("rs-inf", {"axis": "pos", "exceptions": [1.5], "right_tail": 0},
         "an entry of 'exceptions' must be a string or an integer, not 1.5"),
        ("seq-of", {"tableaux": [{"rows": [[None]]}]},
         "an entry of a tableau row must be a string or an integer, not null"),
        # documents of the wrong shape
        ("rs-inf", [1], "a block document is an object with an 'axis' field"),
        ("rs-inf", "neg", "a block document is an object with an 'axis' field"),
        ("rs-inf", {"axis": ["neg"]}, "unknown axis ['neg']; use neg, pos or all"),
        ("classify", {"regions": 5}, "a spec document is an object with a 'regions' list"),
        ("classify", [{"type": "omega"}], "a spec document is an object with a 'regions' list"),
        ("classify", {"regions": [5]}, "each region is an object with a 'type' field"),
        # a missing required field is named, with what lacks it
        ("classify", {"regions": [{"type": "omega", "exceptions": []}]},
         "a region of type 'omega' needs a 'tail' field"),
        ("classify", {"regions": [{"type": "zeta", "left_tail": 0, "exceptions": []}]},
         "a region of type 'zeta' needs a 'right_tail' field"),
        ("seq-of", {"tables": []}, "a tableau document is an object with a 'tableaux' list"),
        # an axis is read by its value
        ("rs-inf", {"axis": "NEG"}, "unknown axis 'NEG'; use neg, pos or all"),
        ("rs-inf", {"axis": 5}, "unknown axis 5; use neg, pos or all"),
    ],
)
def test_malformed_documents_answer_an_error(tmp_path, capsys, command, doc, message):
    _assert_error_answer(tmp_path, capsys, command, doc, message)


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # a present null tail is a malformed entry, not a missing field
        ("rs-inf", {"axis": "neg", "left_tail": None},
         "'left_tail' must be a string or an integer, not null"),
        ("rs-inf", {"axis": "all", "left_tail": 0, "right_tail": None},
         "'right_tail' must be a string or an integer, not null"),
        # a file holding a JSON string is not decoded a second time
        ("classify", '{"regions":[{"type":"omega","exceptions":[2],"tail":0}]}',
         "a spec document is an object with a 'regions' list"),
        ("classify", "neg", "a spec document is an object with a 'regions' list"),
        # two tableaux whose classes print alike name that class
        ("seq-of", {"tableaux": [{"rows": [["3"]]}, {"rows": [["4"]]}]},
         "the family has two tableaux of class 0"),
    ],
)
def test_null_tails_and_string_documents_answer_an_error(
    tmp_path, capsys, command, doc, message
):
    _assert_error_answer(tmp_path, capsys, command, doc, message)


def _assert_error_answer(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert json.loads(out) == {"error": message}


# Fuzzed documents: well-formed ones, ones with the right keys holding
# anything JSON can, and anything at all.  Integers stay within +-20 and
# lists within 6 entries, because a two-sided block's answer grows with
# the gap between its tails.
_ENTRY = st.integers(-20, 20) | st.sampled_from(
    ["0", "-3", "1/2", "-3/2", "a", "-a", "a+1", "b-2", "2/4", "1/0", "", "x y"]
)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.floats() | _ENTRY,
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(
        st.sampled_from(["regions", "type", "values", "exceptions", "tail", "left_tail",
                         "right_tail", "axis", "tableaux", "rows", "class"]),
        kids, max_size=6,
    ),
    max_leaves=12,
)
_ENTRIES = st.lists(_ENTRY, max_size=6)


def _doc(required, optional):
    """Objects with the given keys, and objects whose keys may be missing
    or hold junk."""
    keys = {**required, **optional}
    return st.fixed_dictionaries(required, optional=optional) | st.fixed_dictionaries(
        {}, optional={k: v | _JUNK for k, v in keys.items()}
    )


_REGION = _JUNK | st.one_of(
    _doc({"type": st.just("finite")}, {"values": _ENTRIES}),
    _doc({"type": st.just("omega"), "tail": _ENTRY}, {"exceptions": _ENTRIES}),
    _doc({"type": st.just("omega_star"), "tail": _ENTRY}, {"exceptions": _ENTRIES}),
    _doc({"type": st.just("zeta"), "left_tail": _ENTRY, "right_tail": _ENTRY},
         {"exceptions": _ENTRIES}),
)
_TABLEAU = _JUNK | _doc({"rows": st.lists(_ENTRIES, max_size=6)}, {"class": _ENTRY})
_DOCS = {
    "classify": _doc({"regions": st.lists(_REGION, max_size=4)}, {}),
    "rs-inf": st.one_of(
        _doc({"axis": st.just("neg"), "left_tail": _ENTRY}, {"exceptions": _ENTRIES}),
        _doc({"axis": st.just("pos"), "right_tail": _ENTRY}, {"exceptions": _ENTRIES}),
        _doc({"axis": st.just("all"), "left_tail": _ENTRY, "right_tail": _ENTRY},
             {"exceptions": _ENTRIES}),
    ),
    "seq-of": _doc({"tableaux": st.lists(_TABLEAU, max_size=4)}, {}),
}


def _answer(argv):
    """Call main in process: exit 0 with one JSON line, or exit 1 with
    one {"error": <str>} line."""
    with redirect_stdout(io.StringIO()) as buf:
        code = main(argv)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1, (argv, lines)
    out = json.loads(lines[0])
    if code == 1:
        assert list(out) == ["error"] and isinstance(out["error"], str), (argv, out)
    else:
        assert code == 0, (argv, code)


@pytest.mark.parametrize("command", sorted(_DOCS))
def test_fuzzed_documents_answer_or_error(tmp_path_factory, command):
    path = tmp_path_factory.mktemp(command) / "doc.json"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_DOCS[command] | _JUNK)
    def check(doc):
        path.write_text(json.dumps(doc))
        _answer([command, str(path)])

    check()


def _sequence(entries):
    return ",".join(str(e) for e in entries)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["rs", "interchange"]),
    st.lists(st.lists(_ENTRY, max_size=6).map(_sequence), min_size=2, max_size=2),
    st.booleans(),
    st.none() | st.integers(-20, 20),
)
def test_fuzzed_sequences_answer_or_error(command, sequences, shifted, k):
    positional = sequences[:1] if command == "rs" else sequences
    options = ["--shifted"] if shifted else []
    if command == "interchange" and k is not None:
        options += ["--k", str(k)]
    # a lone negated symbol ("-a") reads as an option, as documented; it
    # needs "--" before it
    if any(a.startswith("-") and "," not in a and not a[1:2].isdigit() for a in positional):
        options.append("--")
    _answer([command, *options, *positional])


@pytest.mark.parametrize(
    "doc, ideal",
    [
        (
            {"axis": "neg", "exceptions": [40, "a", -2, -2], "left_tail": 0},
            {"r": 2, "g": 0, "X": [], "Y": [4, 4]},
        ),
        (
            {"axis": "pos", "exceptions": ["3", "a", "-2"], "right_tail": "0"},
            {"r": 2, "g": 0, "X": [5], "Y": []},
        ),
        (
            {"axis": "all", "exceptions": ["5", "a"], "left_tail": "4", "right_tail": "0"},
            {"r": 2, "g": 6, "X": [], "Y": []},
        ),
    ],
)
def test_rs_inf_inserts_once(tmp_path, capsys, monkeypatch, doc, ideal):
    cli_mod = importlib.import_module("rsinf.cli")
    ri = importlib.import_module("rsinf.rs_infinite")
    orig_rs, orig_extract = ri.rs_infinite, ri._extract
    calls = {"rs_infinite": 0, "_extract": 0}
    depth = [0]

    def counted_rs(g):
        # a POS input recurses once through its mirror; count the outer call
        calls["rs_infinite"] += depth[0] == 0
        depth[0] += 1
        try:
            return orig_rs(g)
        finally:
            depth[0] -= 1

    def counted_extract(g):
        calls["_extract"] += 1
        return orig_extract(g)

    monkeypatch.setattr(ri, "rs_infinite", counted_rs)
    monkeypatch.setattr(cli_mod, "rs_infinite", counted_rs)
    monkeypatch.setattr(ri, "_extract", counted_extract)
    path = tmp_path / "block.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "rs-inf", str(path))
    assert code == 0
    assert calls == {"rs_infinite": 1, "_extract": 1}
    assert json.loads(out)["ideal"] == ideal


def test_rs_inf_r_counts_the_underline_on_a_seeded_corpus(tmp_path, capsys):
    """rs-inf prints the r of the insertion, its underline, and the ideal
    block_ideal reads off row 1 alone; the three agree."""
    rng = random.Random(16)
    path = tmp_path / "block.json"
    answered = 0
    for _ in range(300):
        doc = rand_block_doc(rng)
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "rs-inf", str(path))
        data = json.loads(out)
        blk = eventually_constant(
            Axis(doc["axis"]), doc["exceptions"],
            left_tail=doc.get("left_tail"), right_tail=doc.get("right_tail"),
        )
        if code:
            with pytest.raises(ValueError) as exc:
                block_ideal(blk)
            assert data == {"error": str(exc.value)}
            continue
        answered += 1
        assert data["r"] == len(data["underline"]) == data["ideal"]["r"] == block_ideal(blk)[0]
    assert answered > 250


def test_cls_level_lines(capsys):
    code, out = run(capsys, "cls-level", "0,0,0;;1", "--level=3", "--bound=5")
    assert code == 0
    assert out == "1,1,0\n0,0,0\n"


def test_cls_level_too_small(capsys):
    code, out = run(capsys, "cls-level", "2,0,0;1;", "--level=3", "--bound=5")
    assert code == 1
    assert "too small" in json.loads(out)["error"]


@pytest.mark.parametrize("params", ["1,0,0;;", "0,0,1;;"])
def test_cls_level_negative_bound(capsys, params):
    code, out = run(capsys, "cls-level", params, "--level=3", "--bound=-1")
    assert code == 1
    assert json.loads(out) == {"error": "the entry bound must be nonnegative, got -1"}


def test_cls_gamma_line(capsys):
    code, out = run(capsys, "cls-gamma", "2,0,0;;", "--level=2")
    assert code == 0
    assert out == "3,3,0,0\n"


def test_cls_gamma_level_error_names_the_given_level(capsys):
    # gamma works at level 2n, and the error names the n it was given
    code, out = run(capsys, "cls-gamma", "0,0,1;;", "--level=-2")
    assert code == 1
    assert json.loads(out) == {
        "error": "level -2, which gamma doubles to -4, is too small for parameters (0,0,1;();())"
    }


def test_cls_member(capsys):
    code, out = run(capsys, "cls-member", "0,0,0;2,1;", "2,1,0")
    assert code == 0
    assert out == '{"member":true}\n'
    code, out = run(capsys, "cls-member", "0,0,0;1;", "3,0,0")
    assert code == 0
    assert out == '{"member":false}\n'


def test_params_grammar_error(capsys):
    code, out = run(capsys, "cls-member", "1,0,2", "1,0")
    assert code == 1
    assert json.loads(out) == {
        "error": 'parameters are "r\',r\'\',g;X;Y", e.g. "1,0,2;2,1;"'
    }


@pytest.mark.parametrize("argv", [["rs"], ["cls-level", "0,0,0;;"]])
def test_missing_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cls-member", "0,0,0;;", "2,1.0,0"], "an entry of the weight must be an integer, not '1.0'"),
        (["cls-member", "0,0,0;;", "2,,0"], "an entry of the weight must be an integer, not ''"),
        (["cls-member", "0,0,0;;", ""], "level 0 is too small for parameters (0,0,0;();())"),
        (["cls-member", "x,0,0;;", "1"], "r' must be an integer, not 'x'"),
        (["cls-level", "0,1_0,0;;", "--level=3", "--bound=5"],
         "r'' must be an integer, not '1_0'"),
        (["cls-level", "0,0,\u0661;;", "--level=3", "--bound=5"],
         "g must be an integer, not '\u0661'"),
        (["cls-gamma", "0,0,0;2.5;", "--level=3"], "an entry of X must be an integer, not '2.5'"),
        (["cls-gamma", "0,0,0;;1,\u0661", "--level=3"],
         "an entry of Y must be an integer, not '\u0661'"),
        # an empty entry inside X or Y is malformed, not skipped
        (["cls-level", "0,0,0;2,,1;", "--level=4", "--bound=1"],
         "an entry of X must be an integer, not ''"),
        (["cls-level", "0,0,0;2,1,;", "--level=4", "--bound=1"],
         "an entry of X must be an integer, not ''"),
        (["cls-gamma", "0,0,0;;,1", "--level=3"], "an entry of Y must be an integer, not ''"),
        (["cls-member", "0,0,0;1; ,", "1,0,0"], "an entry of Y must be an integer, not ' '"),
        (["cls-member", "1,0;;", "1,0"], "the first group must be r',r'',g"),
        (["cls-level", "1,0,2,3;;", "--level=3", "--bound=1"],
         "the first group must be r',r'',g"),
    ],
)
def test_malformed_numbers_name_their_field(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize(
    "argv, option",
    [
        (["cls-level", "0,0,0;;", "--level", "\u0663", "--bound", "1"], "--level"),
        (["cls-level", "0,0,0;;", "--level", "3", "--bound", "1_0"], "--bound"),
        (["cls-gamma", "0,0,0;;", "--level", "3.0"], "--level"),
        (["interchange", "1,2", "2,1", "--k", "\u0663"], "--k"),
    ],
)
def test_malformed_integer_options_exit_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: the value must be an integer, not " in capsys.readouterr().err


# one digit past the interpreter's limit (4300 unless configured)
_LIMIT = sys.get_int_max_str_digits()
_HUGE = "9" * (_LIMIT + 1)


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["rs", f"3,{_HUGE}"], None,
         f"an integer in an element literal has more than {_LIMIT} digits"),
        (["rs", f"1/{_HUGE}"], None,
         f"an integer in an element literal has more than {_LIMIT} digits"),
        (["cls-member", "0,0,0;;", f"{_HUGE},0"], None,
         f"an entry of the weight has more than {_LIMIT} digits"),
        (["classify"], '{"regions":[{"type":"omega","exceptions":[%s],"tail":"0"}]}' % _HUGE,
         f"an integer in the document has more than {_LIMIT} digits"),
    ],
    ids=["rs", "rs-fraction", "cls-member", "classify"],
)
def test_integers_past_the_digit_limit_name_their_field(tmp_path, capsys, argv, doc, message):
    if doc is not None:
        (tmp_path / "doc.json").write_text(doc)
        argv = [*argv, str(tmp_path / "doc.json")]
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": message}


def test_answer_past_the_digit_limit_names_the_limit(capsys):
    # the entry is within the limit, and shifting it by its position
    # gives -10**_LIMIT, one digit past it
    code, out = run(capsys, "rs", "--shifted", "-" + "9" * _LIMIT)
    assert code == 1
    assert json.loads(out) == {"error": f"an entry of the answer has more than {_LIMIT} digits"}


def test_integer_option_past_the_digit_limit_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cls-level", "0,0,0;;", "--level", _HUGE, "--bound", "1"])
    assert exc.value.code == 2
    assert f"argument --level: the value has more than {_LIMIT} digits" in capsys.readouterr().err


def test_integers_may_carry_spaces(capsys):
    code, out = run(capsys, "cls-level", " 0 ,0,0;;1", "--level= 3 ", "--bound=5")
    assert (code, out) == (0, "1,1,0\n0,0,0\n")
    code, out = run(capsys, "cls-member", "0,0,0;2,1;", " 2 , 1,0 ")
    assert (code, out) == (0, '{"member":true}\n')
    # a blank group is the empty partition
    code, out = run(capsys, "cls-level", "0,0,1; ; ", "--level=2", "--bound=1")
    assert (code, out) == (0, "1,0\n0,0\n")


def _child(*argv):
    """The command and environment of a CLI child that finds the package
    imported here, installed or not."""
    pkg_dir = os.path.dirname(os.path.abspath(rsinf.__file__))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(pkg_dir)}
    return [sys.executable, "-m", "rsinf.cli", *argv], env


def _cli(*argv, timeout=None):
    """Run the CLI in a child and capture its output."""
    cmd, env = _child(*argv)
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


def test_installed_entry_point():
    proc = _cli("rs", "2,1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "tableaux": [{"class": "0", "rows": [["2", "1"]]}]
    }


def test_successive_in_process_calls_are_independent(capsys):
    """Literals are memoized process-wide, so calls of main in one
    process share state: a usage error, a valid call, a malformed literal
    and the valid call again each answer what they answer alone, in a
    child of their own."""
    calls = [
        ["rs"],
        ["rs", "3,a-1,1/2,-a+2,3"],
        ["rs", "3,a-1,1/0"],
        ["rs", "3,a-1,1/2,-a+2,3"],
    ]
    got = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        got.append((code, out.out, out.err))
    assert [code for code, _, _ in got] == [2, 0, 1, 0]
    assert got[1] == got[3]
    for argv, (code, out, err) in zip(calls, got):
        proc = _cli(*argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe after 50 bytes, as `| head -c 50`
    does, ends the CLI with exit 1 and no traceback: it writes nothing
    more to the closed pipe.  The answer, one row of 20,000 entries, is
    more than twice the size of a pipe's default buffer."""
    cmd, env = _child("rs", ",".join(map(str, range(20_000, 0, -1))))
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(50)
        proc.stdout.close()
        try:
            err = proc.communicate(timeout=60)[1].decode()
        finally:
            proc.kill()
    assert head.startswith(b'{"tableaux":')
    assert proc.returncode == 1
    assert err == "", err


@pytest.mark.parametrize(
    "command, field",
    [("classify", "regions"), ("rs-inf", "exceptions"), ("seq-of", "tableaux")],
)
def test_deeply_nested_documents_answer_an_error(tmp_path, capsys, command, field):
    path = tmp_path / "deep.json"
    path.write_text('{"%s":%s%s}' % (field, "[" * 3000, "]" * 3000))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert json.loads(out) == {"error": "the document nests too deeply"}


@pytest.mark.parametrize("big", [10**6, 10**18])
def test_far_window_entries_answer_at_once(tmp_path, big):
    """A short document with a huge offset answers as a small one does,
    in a child with a deadline, so a regression fails instead of
    exhausting memory."""
    docs = {
        "omega.json": (
            "classify",
            {"regions": [{"type": "omega_star", "tail": "0", "exceptions": [str(big), "3"]}]},
        ),
        "zeta.json": (
            "classify",
            {"regions": [{"type": "zeta", "left_tail": "0", "exceptions": [str(-big)],
                          "right_tail": "0"}]},
        ),
        # a right tail far above the left one
        "far.json": (
            "classify",
            {"regions": [{"type": "zeta", "left_tail": "0", "exceptions": [],
                          "right_tail": str(big)}]},
        ),
        "block.json": (
            "rs-inf",
            {"axis": "all", "left_tail": "0", "exceptions": [str(-big)], "right_tail": "0"},
        ),
    }
    out = {}
    for name, (command, doc) in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
        proc = _cli(command, str(tmp_path / name), timeout=10)
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout)
    assert out["omega.json"]["ideal"] == {"r": 2, "g": 0, "X": [], "Y": []}
    assert out["zeta.json"]["ideal"] == {"r": 1, "g": 1, "X": [], "Y": []}
    assert out["far.json"]["ideal"] == {"r": big, "g": 0, "X": [], "Y": []}
    block = out["block.json"]
    assert block["first_row"] == {"window": [], "left_law": "0", "right_law": "-1"}
    assert block["underline"] == [str(-big - 1)]
    assert block["ideal"] == {"r": 1, "g": 1, "X": [], "Y": []}
    # rs-inf would print all r = big entries, so it refuses before inserting
    doc = {"axis": "all", "left_tail": "0", "exceptions": [], "right_tail": str(big)}
    (tmp_path / "far_block.json").write_text(json.dumps(doc))
    proc = _cli("rs-inf", str(tmp_path / "far_block.json"), timeout=10)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": f"the block displaces r = {big} entries, more than the 100000 rs_infinite "
                 "lists (rsinf.rs_infinite._RS_INF_MAX_R)"
    }


def test_rs_inf_prints_up_to_its_limit_on_r(tmp_path, capsys, monkeypatch):
    """rs-inf answers a block whose r is at its limit and refuses one past it."""
    monkeypatch.setattr(importlib.import_module("rsinf.rs_infinite"), "_RS_INF_MAX_R", 3)
    path = tmp_path / "block.json"
    path.write_text(json.dumps({"axis": "all", "left_tail": "0", "right_tail": "3"}))
    code, out = run(capsys, "rs-inf", str(path))
    assert code == 0
    assert json.loads(out)["underline"] == ["2", "1", "0"]
    path.write_text(json.dumps({"axis": "all", "left_tail": "0", "right_tail": "4"}))
    code, out = run(capsys, "rs-inf", str(path))
    assert code == 1
    assert json.loads(out) == {
        "error": "the block displaces r = 4 entries, more than the 3 rs_infinite lists "
                 "(rsinf.rs_infinite._RS_INF_MAX_R)"
    }


def test_far_tails_classify_on_every_axis(tmp_path):
    """Tails, or a window entry and its tail, 10^18 apart on a POS, a NEG
    and an ALL block answer through classify in a child with a deadline."""
    big = 10**18
    specs = {
        "pos.json": [{"type": "omega", "exceptions": [str(big)], "tail": "0"}],
        "neg.json": [{"type": "omega_star", "tail": "0", "exceptions": [str(-big)]}],
        "down.json": [{"type": "zeta", "left_tail": str(big), "exceptions": [], "right_tail": "0"}],
        "up.json": [{"type": "zeta", "left_tail": "a", "exceptions": ["a+5"],
                     "right_tail": f"a+{big}"}],
        "half.json": [{"type": "omega", "exceptions": [f"{2 * big + 1}/2"], "tail": "1/2"},
                      {"type": "omega_star", "tail": "1/2", "exceptions": [f"{1 - 2 * big}/2"]}],
    }
    want = {
        "pos.json": {"r": 0, "g": 0, "X": [big], "Y": []},
        "neg.json": {"r": 0, "g": 0, "X": [], "Y": [big]},
        "down.json": {"r": 0, "g": big, "X": [], "Y": []},
        "up.json": {"r": big, "g": 0, "X": [], "Y": []},
        "half.json": {"r": 0, "g": 0, "X": [big], "Y": [big]},
    }
    for name, regions in specs.items():
        spec = {"regions": regions}
        assert ideal_to_json(classify(parse_spec(spec)))["ideal"] == want[name], name
        (tmp_path / name).write_text(json.dumps(spec))
        proc = _cli("classify", str(tmp_path / name), timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ideal"] == want[name], name


def test_long_interchange_search_refuses_in_time():
    """A random 18-entry permutation against its own reading word: the
    insertions agree, so the search runs, and its class holds 4,594,590
    words, where an unbounded search ran for more than a minute.  In a
    child with a deadline, the CLI answers an error naming the limit."""
    rs_finite = importlib.import_module("rsinf.rs_finite")
    f = list(range(18))
    random.Random(5).shuffle(f)
    assert rsinf.rs(f)[0].shape == (5, 5, 3, 3, 2)
    g = [str(v) for v in rsinf.seq_of(rsinf.rs(f))]
    proc = _cli("interchange", ",".join(map(str, f)), ",".join(g), timeout=60)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert f"limit of {rs_finite._CONNECTED_MAX_STATES} searched words" in error
    assert "_CONNECTED_MAX_STATES" in error and proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ("cls-level", "0,0,20;;", "--level", "20", "--bound", "0"),
    ("cls-level", "1,0,0;;", "--level", "3", "--bound", "1000000000"),
    ("cls-level", "1,0,0;;", "--level", "1000000000000", "--bound", "1"),
    ("cls-gamma", "1,0,0;;", "--level", "1000000000000"),
], ids=["weights", "bound", "level", "gamma"])
def test_large_level_sets_refuse_in_time(argv):
    """A set of C(39, 19) weights ran for minutes, and a bound of 10^9 or
    a level of 10^12 died of a MemoryError traceback.  In a child with a
    deadline, the CLI answers an error naming the limit."""
    proc = _cli(*argv, timeout=60)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error.endswith("would hold more than 20000000 entries (rsinf.cls._LEVEL_MAX_ENTRIES)")
    assert proc.stderr == ""


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_sessions():
    """The `$ ` sessions of README's sh blocks, one per block: a list of
    (command, the lines printed under it)."""
    sessions = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            elif steps:
                steps[-1][1].append(line)
        if steps:
            sessions.append(steps)
    return sessions


def test_readme_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    """Every `$ rsinf ...` example in README, run in-process from a fresh
    directory, prints exactly the lines shown under it and exits 0; the
    `echo ... > f` and `rsinf ... > f` steps write f there."""
    monkeypatch.chdir(tmp_path)
    shown = 0
    for steps in _readme_sessions():
        for command, lines in steps:
            words = shlex.split(command)
            target = None
            if words[-2:-1] == [">"]:
                words, target = words[:-2], words[-1]
            if words[0] == "echo":
                out = " ".join(words[1:]) + "\n"
            else:
                assert words[0] == "rsinf", command
                assert main(words[1:]) == 0, command
                out = capsys.readouterr().out
            if target is not None:
                assert not lines, command
                (tmp_path / target).write_text(out)
            else:
                assert out == "".join(line + "\n" for line in lines), command
                shown += 1
    assert shown >= 10
