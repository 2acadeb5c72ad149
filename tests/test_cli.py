import importlib
import json
import subprocess
import sys

import pytest

from rsinf.cli import main


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
    ],
)
def test_malformed_documents_answer_an_error(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert json.loads(out) == {"error": message}


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

    def counted_extract(g, margin):
        calls["_extract"] += 1
        return orig_extract(g, margin)

    monkeypatch.setattr(ri, "rs_infinite", counted_rs)
    monkeypatch.setattr(cli_mod, "rs_infinite", counted_rs)
    monkeypatch.setattr(ri, "_extract", counted_extract)
    path = tmp_path / "block.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "rs-inf", str(path))
    assert code == 0
    assert calls == {"rs_infinite": 1, "_extract": 1}
    assert json.loads(out)["ideal"] == ideal


def test_cls_level_lines(capsys):
    code, out = run(capsys, "cls-level", "0,0,0;;1", "--level=3", "--bound=5")
    assert code == 0
    assert out == "1,1,0\n0,0,0\n"


def test_cls_level_too_small(capsys):
    code, out = run(capsys, "cls-level", "2,0,0;1;", "--level=3", "--bound=5")
    assert code == 1
    assert "too small" in json.loads(out)["error"]


def test_cls_gamma_line(capsys):
    code, out = run(capsys, "cls-gamma", "2,0,0;;", "--level=2")
    assert code == 0
    assert out == "3,3,0,0\n"


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


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rsinf.cli", "rs", "2,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "tableaux": [{"class": "0", "rows": [["2", "1"]]}]
    }
