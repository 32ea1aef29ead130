"""Command-line interface: flags, formats, exit codes, JSON round trips."""

import ast
import json
import os
import random
import shlex
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from klmov import characters
from klmov.cli import LIMITS, build_parser, main, n_table_text, rationalqt_to_json
from klmov.laurent import RationalQT
from klmov.schur import sb_closed_form
from klmov.torus import TorusLinkSpec, torus_invariant


@pytest.fixture(autouse=True)
def no_cache_dir_after():
    # a --cache-dir given in-process stays set until the next char-table call
    yield
    characters.set_cache_dir(None)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariant_text(capsys):
    code, out = run(capsys, "invariant", "--torus", "1,1,2", "--colors", "1|1")
    assert code == 0
    assert "q^2" in out or "q" in out


def test_invariant_unlink(capsys):
    code, out = run(capsys, "invariant", "--unlink", "1", "--colors", "1")
    assert code == 0
    assert out.strip() == str(sb_closed_form((1,)))


def test_invariant_json_roundtrip(capsys):
    code, out = run(
        capsys, "invariant", "--torus", "2,3,1", "--colors", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "klmov-v1"
    num = {(a, b): Fraction(c) for a, b, c in data["value"]["num"]}
    den = {(a, 0): Fraction(c) for a, c in data["value"]["den"]}
    assert RationalQT(num) / RationalQT(den) == torus_invariant(TorusLinkSpec(2, 3, 1), ((1,),))


def test_json_helpers_roundtrip():
    x = RationalQT({(2, 1): 3, (-1, -2): -1}) / RationalQT({(1, 0): 1, (-1, 0): -1})
    data = rationalqt_to_json(x)
    num = {(a, b): Fraction(c) for a, b, c in data["num"]}
    den = {(a, 0): Fraction(c) for a, c in data["den"]}
    assert RationalQT(num) / RationalQT(den) == x


def test_lmov_table_text(capsys):
    # cells that fit in 6 characters keep 6-character columns
    for argv, expected in [
        (("--torus", "1,1,2", "--mu", "2|1"), (
            "T(2,2) colored 2|1\n"
            "g\\beta      -3      -1       1       3\n"
            "     0       1      -1      -1       1\n"
        )),
        (("--torus", "2,3,1", "--mu", "2"), (
            "T(2,3) colored 2\n"
            "g\\beta     -11      -9      -7      -5      -3\n"
            "   1/2      -6      26     -42      30      -8\n"
            "   3/2     -35     125    -161      85     -14\n"
            "   5/2     -56     210    -238      91      -7\n"
            "   7/2     -36     165    -174      46      -1\n"
            "   9/2     -10      66     -67      11       0\n"
            "  11/2      -1      13     -13       1       0\n"
            "  13/2       0       1      -1       0       0\n"
        )),
    ]:
        assert run(capsys, "lmov", *argv) == (0, expected)


def column_ends(line):
    """The index one past the end of each run of non-blank characters."""
    return [i + 1 for i, ch in enumerate(line)
            if ch != " " and (i + 1 == len(line) or line[i + 1] == " ")]


def test_lmov_wide_table_aligns_its_columns(capsys):
    # cells of up to 25 digits: each column widens to its widest cell
    code, out = run(capsys, "lmov", "--torus", "2,5,1", "--mu", "3,1")
    assert code == 0
    lines = out.splitlines()[1:]
    assert max(len(c) for line in lines for c in line.split()) > 6
    # the header and every data line end their columns at the same places
    assert all(column_ends(line) == column_ends(lines[0]) for line in lines)


def test_lmov_wide_genus_names_widen_their_column():
    table = {(Fraction(1234567, 2), -3): 5, (Fraction(1, 2), 1): -1234567}
    assert list(n_table_text(table)) == [
        "g\\beta         -3         1",
        "      1/2       0  -1234567",
        "1234567/2       5         0",
    ]


def test_lmov_json(capsys):
    code, out = run(
        capsys, "lmov", "--torus", "1,1,2", "--mu", "3|1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["integral"] is True
    assert {"g": "1/2", "beta": 3, "N": 1} in data["entries"]


def test_lmov_csv(capsys):
    code, out = run(
        capsys, "lmov", "--torus", "1,1,2", "--mu", "2|1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,beta,N"
    assert "0,-3,1" in lines


def test_lmov_empty_table(capsys):
    code, out = run(capsys, "lmov", "--unlink", "1", "--mu", "1,1")
    assert code == 0
    assert "vanish" in out


def test_degree_json(capsys):
    code, out = run(
        capsys, "degree", "--torus", "1,1,2", "--mu", "1|1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["bound"] == 0


def test_char_table(capsys):
    code, out = run(capsys, "char-table", "--n", "2")
    assert code == 0
    assert "1,1" in out and "chi" in out


@pytest.mark.parametrize("n", [0, 1, 5])
def test_char_table_json_is_the_indented_dump(n, capsys):
    # the rows are written one at a time, with the bytes of one json.dumps
    from klmov.characters import brauer_character, brauer_labels
    from klmov.partitions import partitions_of

    labels, classes = brauer_labels(n), partitions_of(n)
    data = {
        "schema": "klmov-v1",
        "kind": "char-table",
        "n": n,
        "labels": [list(a) for a in labels],
        "classes": [list(m) for m in classes],
        "values": [[brauer_character(a, m) for m in classes] for a in labels],
    }
    code, out = run(capsys, "char-table", "--n", str(n), "--format", "json")
    assert code == 0
    assert out == json.dumps(data, indent=2) + "\n"


def test_char_table_negative_rank(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char-table", "--n", "-1"])
    assert exc.value.code == 2
    assert "rank must be nonnegative, got -1" in capsys.readouterr().err


def test_char_table_closed_pipe_exits_quietly():
    # the rank-12 table (about 300 KB) overruns the pipe buffer, so the
    # writer is still writing when the reader goes away
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "klmov", "char-table", "--n", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"chi")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


ROOT = Path(__file__).resolve().parents[1]
# a fresh process reads this source and no KLMOV_ setting, as perfbench's jobs do
SRC_ENV = {k: v for k, v in os.environ.items() if not k.startswith("KLMOV_")}
SRC_ENV["PYTHONPATH"] = str(ROOT / "src")


def run_python(code):
    """Standard output of a fresh interpreter running code."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SRC_ENV, timeout=60, check=True).stdout


def test_cli_import_leaves_golden_and_dataclasses_unloaded():
    # the modules `import klmov.cli` adds to a bare interpreter's: verify and
    # its crosschecks are registered with it (to be executed on first use),
    # the golden tables and dataclasses are not
    def loaded(code):
        return set(run_python(f"{code}import sys; print(*sys.modules)").split())

    added = loaded("import klmov.cli; ") - loaded("")
    assert {"klmov.verify", "klmov.bmw", "klmov.rmatrix"} <= added
    assert not {"klmov.golden", "dataclasses"} & added


def loads_json(*argv):
    """Whether a fresh process running the command imports json; None when
    the bare interpreter has it already."""
    out = run_python(
        "import sys\n"
        "before = 'json' in sys.modules\n"
        "from klmov.cli import main\n"
        f"main({list(argv)!r})\n"
        "print(None if before else 'json' in sys.modules)\n"
    )
    return {"None": None, "True": True, "False": False}[out.split("\n")[-2]]


@pytest.mark.parametrize("argv, loads", [
    (("char-table", "--n", "3"), False),
    (("lmov", "--torus", "1,1,2", "--mu", "1|1", "--format", "csv"), False),
    (("char-table", "--n", "3", "--format", "json"), True),
    (("lmov", "--torus", "1,1,2", "--mu", "1|1", "--format", "json"), True),
], ids=["char-table-text", "lmov-csv", "char-table-json", "lmov-json"])
def test_json_loads_only_for_json_output(argv, loads):
    # start-up: json is imported by JSON output and the character cache only
    got = loads_json(*argv)
    if got is None:
        pytest.skip("the interpreter imports json at start-up")
    assert got is loads


def executed_modules(*argv, code=0):
    """The klmov modules whose code runs in a fresh process running the command,
    which exits with code.

    Read from the interpreter's ``exec`` audit events: ``-X importtime``
    does not list a module executed by a lazy loader.
    """
    out = run_python(
        "import sys\n"
        "seen = set()\n"
        "def hook(event, args):\n"
        "    if event == 'exec':\n"
        "        seen.add(getattr(args[0], 'co_filename', ''))\n"
        "sys.addaudithook(hook)\n"
        "from klmov.cli import main\n"
        f"assert main({list(argv)!r}) == {code}\n"
        "print(*sorted(f.rsplit('/', 1)[-1][:-3] for f in seen\n"
        "              if f.endswith('.py') and '/klmov/' in f))\n"
    )
    return set(out.split("\n")[-2].split())


LAYERS = {"cli", "errors", "partitions", "characters", "laurent", "schur", "torus",
          "lmov", "bmw", "rmatrix", "golden", "verify"}


@pytest.mark.parametrize("argv, used, unused", [
    (("char-table", "--n", "1"), {"cli", "characters", "partitions"},
     {"laurent", "lmov", "verify", "bmw", "rmatrix"}),
    (("ctilde", "--colors", "2", "--r", "2"), {"schur", "torus"},
     {"laurent", "lmov", "verify", "bmw", "rmatrix"}),
    (("lmov", "--torus", "2,3,1", "--mu", "2"),
     {"laurent", "lmov", "schur", "torus"}, {"verify", "golden", "bmw", "rmatrix"}),
    (("sb", "--partition", "2,1"), {"laurent", "schur"},
     {"torus", "lmov", "verify", "golden", "bmw", "rmatrix"}),
    (("invariant", "--torus", "2,3,1", "--colors", "1"),
     {"laurent", "lmov", "schur", "torus"}, {"verify", "golden", "bmw", "rmatrix"}),
    (("degree", "--torus", "2,3,1", "--mu", "2"),
     {"laurent", "lmov", "schur", "torus"}, {"verify", "golden", "bmw", "rmatrix"}),
    (("verify", "--suite", "all"), LAYERS, set()),
], ids=["char-table", "ctilde", "lmov", "sb", "invariant", "degree", "verify-all"])
def test_command_executes_only_the_modules_it_runs(argv, used, unused):
    # verify exits 1 on criterion 6's finding
    executed = executed_modules(*argv, code=int(argv[0] == "verify"))
    assert used <= executed
    assert not unused & executed


def test_lazy_layers_keep_an_imported_module():
    # a layer imported before klmov.cli, or before a second import of it, is
    # the one the command line and the package hand out
    out = run_python(
        "import sys\n"
        "import klmov.laurent\n"
        "laurent = sys.modules['klmov.laurent']\n"
        "import klmov.cli\n"
        "assert klmov.cli.laurent is sys.modules['klmov.laurent'] is laurent\n"
        "del sys.modules['klmov.cli']\n"
        "import klmov.cli as again\n"
        "assert again.laurent is sys.modules['klmov.laurent'] is laurent\n"
        "import klmov.torus\n"
        "assert klmov.torus is sys.modules['klmov.torus']\n"
        "assert klmov.RationalQT is klmov.laurent.RationalQT is laurent.RationalQT\n"
        "namespace = {}\n"
        "exec('from klmov import *', namespace)\n"
        "missing = set(klmov.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        "assert set(klmov.__all__) <= set(dir(klmov))\n"
        "print('ok')\n"
    )
    assert out == "ok\n"


_SB_JSON_3 = {
    "schema": "klmov-v1",
    "kind": "sb",
    "partition": [3],
    "closed": {
        "num": [
            [2, -2, "-1"], [2, 0, "1"], [3, -3, "-1"], [3, -1, "1"], [4, 0, "1"],
            [4, 2, "-1"], [5, -1, "1"], [5, 1, "-1"], [7, -1, "1"], [7, 1, "-1"],
            [8, -2, "1"], [8, 0, "-1"], [9, 1, "-1"], [9, 3, "1"], [10, 0, "-1"],
            [10, 2, "1"],
        ],
        "den": [[0, "-1"], [2, "1"], [4, "1"], [8, "-1"], [10, "-1"], [12, "1"]],
    },
    "pb_expansion": {"3": "1", "2,1": "-1", "1,1,1": "1"},
}


_SB_STDOUT = (
    (("--partition", "0"), "pb expansion of 0: 1\nclosed form: 1\n"),
    (("--partition", "2,1"),
     "pb expansion of 2,1: sb(3) - sb(1,1,1) + sb(1)\n"
     "closed form: (-q^10 + q^8*t^2 + q^8*t^-2 - q^7*t + q^7*t^-1 - q^6 + q^5*t^3"
     " - q^5*t + q^5*t^-1 - q^5*t^-3 + q^4 - q^3*t + q^3*t^-1 - q^2*t^2 - q^2*t^-2"
     " + 1)/(q^10 - 2*q^8 + q^6 - q^4 + 2*q^2 - 1)\n"),
    (("--partition", "2,2", "--pb"),
     "pb expansion of 2,2: sb(4) - sb(3,1) + 2*sb(2,2) - sb(2,1,1) + sb(1,1,1,1)"
     " + 2*sb(2) - 2*sb(1,1) + 3\n"),
    (("--partition", "3", "--format", "json"), json.dumps(_SB_JSON_3, indent=2) + "\n"),
    (("--partition", "3", "--pb", "--closed", "--format", "json"),
     json.dumps(_SB_JSON_3, indent=2) + "\n"),
    # --pb and --closed select the JSON fields as they select the text lines
    (("--partition", "3", "--closed", "--format", "json"),
     json.dumps({k: v for k, v in _SB_JSON_3.items() if k != "pb_expansion"}, indent=2)
     + "\n"),
    (("--partition", "3", "--pb", "--format", "json"),
     json.dumps({k: v for k, v in _SB_JSON_3.items() if k != "closed"}, indent=2) + "\n"),
    (("--partition", "1,1,1", "--closed"),
     "closed form: (-q^10 + q^10*t^-2 + q^9*t^-1 - q^9*t^-3 + q^8*t^2 - q^8 - q^7*t"
     " + q^7*t^-1 - q^5*t + q^5*t^-1 + q^4 - q^4*t^-2 + q^3*t^3 - q^3*t - q^2*t^2"
     " + q^2)/(q^12 - q^10 - q^8 + q^4 + q^2 - 1)\n"),
)


def test_sb_command(capsys):
    # the exact stdout of the sb renderer and closed forms
    for argv, want in _SB_STDOUT:
        assert run(capsys, "sb", *argv) == (0, want), argv


def dumped(kind, **fields):
    """The stdout of a JSON record of the command kind."""
    return json.dumps({"schema": "klmov-v1", "kind": kind, **fields}, indent=2) + "\n"


_T22_22 = {"link": {"torus": [1, 1, 2]}, "mu": "2|2"}
_T22_FINDING = "NotPolynomial: remainder 4 in univariate division"


@pytest.mark.parametrize("argv, code, want", [
    (("ctilde", "--colors", "1|1", "--r", "1", "--format", "json"), 0,
     dumped("ctilde", colors=[[1], [1]], r=1,
            entries=[[[1, 1], "1"], [[2], "1"], [[], "1"]])),
    (("invariant", "--unlink", "2", "--colors", "1|1", "--format", "json"), 0,
     dumped("invariant", link={"unlink": 2}, colors=[[1], [1]], value={
         "num": [[0, 0, "1"], [1, -1, "2"], [1, 1, "-2"], [2, -2, "1"], [2, 0, "-4"],
                 [2, 2, "1"], [3, -1, "-2"], [3, 1, "2"], [4, 0, "1"]],
         "den": [[0, "1"], [2, "-2"], [4, "1"]],
     })),
    (("lmov", "--torus", "1,1,2", "--mu", "2|2", "--no-antisym"), 1,
     f"FINDING for T(2,2) colored 2|2: {_T22_FINDING}\n"),
    (("lmov", "--torus", "1,1,2", "--mu", "2|2", "--no-antisym", "--format", "json"), 1,
     dumped("lmov", **_T22_22, integral=False, finding=_T22_FINDING)),
    (("degree", "--torus", "1,1,2", "--mu", "2|2", "--format", "json"), 0,
     dumped("degree", **_T22_22, valuation=0, bound=0, **{"pass": True})),
    (("degree", "--unlink", "2", "--mu", "1|1", "--format", "json"), 0,
     dumped("degree", link={"unlink": 2}, mu="1|1", valuation=None, bound=0,
            **{"pass": True})),
], ids=["ctilde-json", "invariant-unlink-json", "lmov-finding-text", "lmov-finding-json",
        "degree-torus-json", "degree-unlink-json"])
def test_command_writes_its_bytes(capsys, argv, code, want):
    # the exact stdout and exit code of each output form that no other test pins
    assert run(capsys, *argv) == (code, want)


def test_ctilde_command(capsys):
    code, out = run(capsys, "ctilde", "--colors", "1", "--r", "2")
    assert code == 0
    assert "1,1" in out


def test_ctilde_writes_no_table_it_does_not_read(tmp_path, capsys):
    # the rank-12 characters are read one class column at a time, so no
    # rank-12 table is built or cached
    expected = (Path(__file__).resolve().parents[1]
                / "perfbench/expected/ctilde-0.stdout").read_text()
    try:
        code, out = run(capsys, "ctilde", "--colors", "3|3", "--r", "2",
                        "--cache-dir", str(tmp_path))
    finally:
        from klmov import characters

        characters.set_cache_dir(None)
    assert code == 0
    assert out == expected
    assert not (tmp_path / "brauer_12.json").exists()


def test_bmw_rank2_names_the_failing_relation(monkeypatch, capsys):
    # the rank-2 algebra has no command of its own: verify's bmw-rank2 check
    # runs its relations and names the first that fails
    from klmov import verify

    monkeypatch.setattr(verify, "inverse_check", lambda: False)
    code, out = run(capsys, "verify", "--only", "bmw-rank2")
    assert (code, out) == (1, f"FAIL  {'bmw-rank2':<28} inverse fails\n0/1 checks passed\n")


def run_klmov(*argv):
    """klmov run in a fresh process, as perfbench runs it."""
    return subprocess.run([sys.executable, "-m", "klmov", *argv],
                          capture_output=True, env=SRC_ENV, timeout=300)


def assert_benchmark_job(key, proc):
    """The exit code, stdout and empty stderr that perfbench expects of job key."""
    expected = ROOT / "perfbench/expected"
    code = json.loads((expected / "exit_codes.json").read_text())[key]
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == (expected / f"{key}.stdout").read_bytes()


def test_verify_subset(capsys):
    code, out = run(capsys, "verify", "--suite", "properties", "--only", "kappa*")
    assert code == 0
    assert "PASS" in out


def test_lmov_bound_reaches_cable_limit(capsys):
    # T(13,2) = T(2,13) is cabled through min(r, k) = 2: the same cable size
    # 2 and framing degree 13 either way, so --bound 13 changes no byte
    code, swapped = run(capsys, "lmov", "--torus", "13,2,1", "--mu", "1",
                        "--bound", "13", "--format", "csv")
    assert code == 0
    code, out = run(capsys, "lmov", "--torus", "2,13,1", "--mu", "1",
                    "--format", "csv")
    assert code == 0
    assert swapped == out


@pytest.mark.parametrize("argv", [
    # the default cable limit 8 admits the size-8 cables of mu = 4
    ("lmov", "--torus", "2,3,1", "--mu", "4", "--format", "csv"),
    ("degree", "--torus", "2,3,1", "--mu", "4"),
    # the default cable limits 8 and 12 admit the size-4 cables
    ("invariant", "--torus", "2,3,1", "--colors", "2"),
    ("ctilde", "--colors", "2", "--r", "2"),
])
def test_bound_never_lowers_a_default(capsys, argv):
    code, low = run(capsys, *argv, "--bound", "3")
    assert code == 0
    assert run(capsys, *argv) == (0, low)


def test_size_limit_exit_code(capsys):
    code = main(["lmov", "--torus", "2,3,1", "--mu", "7", "--bound", "6"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: cable size 14 exceeds bound 8\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("sb", "--partition", "13"),
    ("sb", "--partition", "13", "--closed"),
    ("sb", "--partition", "100", "--closed"),
    ("char-table", "--n", "21"),
    ("invariant", "--torus", "2,3,1", "--colors", "7"),
    ("invariant", "--unlink", "1", "--colors", "13"),
    ("invariant", "--unlink", "2", "--colors", "50|50"),
    ("lmov", "--unlink", "1", "--mu", "9"),
], ids=["sb", "sb-closed", "sb-closed-100", "char-table", "invariant", "unlink",
        "unlink-100", "lmov"])
def test_size_limit_at_entry(capsys, argv):
    # each command checks its default limit once, before computing anything
    # (an unlink is cabled as r = k = 1): refused within a second
    start = time.perf_counter()
    code = main(list(argv))
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, measure", [
    (("lmov", "--torus", "1,1001,2", "--mu", "1|1"), "framing degree 2002"),
    (("lmov", "--torus", "1,3001,2", "--mu", "1|1"), "framing degree 6002"),
    (("degree", "--torus", "3001,1,2", "--mu", "1|1"), "framing degree 6002"),
    (("invariant", "--torus", "1,100001,2", "--colors", "1|1"), "framing degree 200002"),
], ids=["lmov-1001", "lmov-3001", "degree", "invariant"])
def test_framing_degree_limit_refuses_a_large_torus_parameter(capsys, argv, measure):
    # a small color on a large r or k passes the cable limit, so
    # max(r, k) * |colors| is checked at entry: refused within a second
    start = time.perf_counter()
    code = main(list(argv))
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {measure} exceeds bound 100\n"


@pytest.mark.parametrize("argv", [
    ("lmov", "--torus", "1,50,2", "--mu", "1|1", "--format", "csv"),
    ("invariant", "--torus", "1,50,2", "--colors", "1|1"),
    ("degree", "--torus", "50,1,2", "--mu", "1|1"),
])
def test_framing_degree_limit_admits_its_default_and_bound_raises_it(capsys, argv):
    # framing degree exactly 100 passes; one more needs --bound
    assert run(capsys, *argv)[0] == 0
    bigger = tuple({"1,50,2": "1,51,2", "50,1,2": "51,1,2"}.get(a, a) for a in argv)
    code = main(list(bigger))
    assert code == 3
    assert capsys.readouterr().err == "error: framing degree 102 exceeds bound 100\n"
    code, out = run(capsys, *bigger, "--bound", "102")
    assert code == 0 and out


@pytest.mark.parametrize("argv", [
    ("sb", "--partition", "13", "--bound", "13"),
    ("sb", "--partition", "13", "--closed", "--bound", "13"),
    ("invariant", "--unlink", "1", "--colors", "13", "--bound", "13"),
], ids=["sb", "sb-closed", "unlink"])
def test_bound_raises_every_limit(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize("argv, message", [
    (("lmov", "--torus", "2,3,1", "--mu", "\u0663"), "not a partition: '\u0663'"),
    (("lmov", "--torus", "2,3,1", "--mu", "+2"), "not a partition: '+2'"),
    (("degree", "--torus", "2,3,1", "--mu", "1_0"), "not a partition: '1_0'"),
    (("invariant", "--unlink", "2", "--colors", "1|2,\uff11"), "not a partition: '2,\uff11'"),
    (("sb", "--partition", "\u0967"), "not a partition: '\u0967'"),
    (("ctilde", "--colors", "+1", "--r", "2"), "not a partition: '+1'"),
    (("invariant", "--torus", "\u0662,3,1", "--colors", "1"),
     "--torus wants r,k,L, got '\u0662,3,1'"),
    (("lmov", "--torus", "+2,3,1", "--mu", "1"), "--torus wants r,k,L, got '+2,3,1'"),
    (("degree", "--torus", "2,3,1_0", "--mu", "1"), "--torus wants r,k,L, got '2,3,1_0'"),
    # a minus sign is read as before, and refused by the check that follows
    (("lmov", "--torus=-2,3,1", "--mu", "1"), "torus parameters must be positive"),
    (("lmov", "--torus", "2,3,1", "--mu", "-2"), "not a partition: '-2'"),
], ids=["arabic-indic", "plus", "underscore", "fullwidth", "devanagari", "plus-colors",
        "torus-arabic-indic", "torus-plus", "torus-underscore", "torus-minus", "minus"])
def test_only_ascii_decimal_digits_are_read(capsys, argv, message):
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("char-table", "--n", "\u0663"), "argument --n: invalid rank value: '\u0663'"),
    (("ctilde", "--colors", "1", "--r", "+2"), "argument --r: invalid positive value: '+2'"),
    (("ctilde", "--colors", "1", "--r", "1_0"), "argument --r: invalid positive value: '1_0'"),
    (("sb", "--partition", "2", "--bound", "\u0663\u0663"),
     "argument --bound: invalid int value: '\u0663\u0663'"),
    (("lmov", "--unlink", "\uff12", "--mu", "1|1"),
     "argument --unlink: invalid positive value: '\uff12'"),
    (("verify", "--suite", "properties", "--seed", "\u0663"),
     "argument --seed: invalid int value: '\u0663'"),
    (("verify", "--suite", "properties", "--seed", "+3"),
     "argument --seed: invalid int value: '+3'"),
    (("verify", "--suite", "properties", "--seed", "3_0"),
     "argument --seed: invalid int value: '3_0'"),
    # ASCII input is refused with the messages it always had
    (("char-table", "--n", "-1"), "argument --n: rank must be nonnegative, got -1"),
    (("ctilde", "--colors", "1", "--r", "x"), "argument --r: invalid positive value: 'x'"),
    (("ctilde", "--colors", "1", "--r", "0"), "argument --r: r must be positive, got 0"),
    (("sb", "--partition", "2", "--bound", "x"), "argument --bound: invalid int value: 'x'"),
    (("verify", "--suite", "properties", "--seed", "x"),
     "argument --seed: invalid int value: 'x'"),
    (("invariant", "--unlink", "0", "--colors", "1"),
     "argument --unlink: L must be positive, got 0"),
], ids=["n-arabic-indic", "r-plus", "r-underscore", "bound-arabic-indic",
        "unlink-fullwidth", "seed-arabic-indic", "seed-plus", "seed-underscore",
        "n-negative", "r-letter", "r-zero", "bound-letter", "seed-letter",
        "unlink-zero"])
def test_flag_numbers_are_ascii_decimal_digits(capsys, argv, message):
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err.count("error:") == 1
    assert err.endswith(f"error: {message}\n")


def test_verify_seed_may_be_negative(capsys):
    code, out = run(capsys, "verify", "--suite", "properties", "--only", "ring*",
                    "--seed", "-5")
    assert code == 0
    assert out.endswith("1/1 checks passed\n")


def test_lmov_is_cabled_through_the_smaller_parameter(monkeypatch, capsys):
    # T(7,2) = T(2,7): cabling the 7,2,1 side through r = 7 instead of
    # min(r, k) builds cables of size 14, and gives the bytes of 2,7,1
    from klmov import lmov

    code, out = run(capsys, "lmov", "--torus", "2,7,1", "--mu", "2",
                    "--format", "csv")
    assert code == 0
    cable_terms = lmov.cable_terms
    cabled = []

    def through_max(r, k, colors):
        cabled.append(k)
        return cable_terms(k, r, colors)

    monkeypatch.setattr(lmov, "cable_terms", through_max)
    code, swapped = run(capsys, "lmov", "--torus", "7,2,1", "--mu", "2",
                        "--format", "csv")
    assert code == 0
    assert 7 in cabled
    assert swapped == out


@pytest.mark.parametrize("value", ["-1", "0"])
def test_ctilde_degree_must_be_positive(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["ctilde", "--colors", "2", "--r", value])
    assert exc.value.code == 2
    assert f"argument --r: r must be positive, got {value}" in capsys.readouterr().err


def test_invariant_torus_knot_symmetry(capsys):
    # T(5,2) = T(2,5): the CLI cables through r = 2, which must agree with
    # cabling through r = 5 and the rank-10 table
    from klmov.torus import _torus_invariant_active

    code, out = run(capsys, "invariant", "--torus", "5,2,1", "--colors", "2")
    assert code == 0
    assert out.strip() == str(_torus_invariant_active(5, 2, ((2,),)))


def test_verify_type_error_is_not_retried(monkeypatch):
    from klmov import verify

    seeds = []

    def check(seed=0):
        seeds.append(seed)
        raise TypeError("a defect inside the check")

    monkeypatch.setattr(verify, "PROPERTY_CHECKS", [("ring-axioms", check)])
    with pytest.raises(TypeError):
        verify.run_suite("properties", seed=5)
    assert seeds == [5]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "--colors"])
    assert exc.value.code == 2


def test_bad_torus_triple(capsys):
    code = main(["invariant", "--torus", "2,4,1", "--colors", "1"])
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "value.txt"
    code = main(
        ["invariant", "--unlink", "1", "--colors", "1", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text().strip() == str(sb_closed_form((1,)))


def test_cache_dir_flag(tmp_path, capsys):
    code = main(
        [
            "char-table",
            "--n",
            "3",
            "--cache-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "brauer_3.json").exists()
    from klmov import characters

    characters.set_cache_dir(None)


def test_lmov_finding_exit_code(monkeypatch, capsys):
    # a non-representable value is reported as a finding with exit 1
    from klmov import lmov
    from klmov.errors import NotZRepresentable

    def boom(*args, **kwargs):
        raise NotZRepresentable("residual q-dependence at q^3")

    monkeypatch.setattr(lmov, "conjecture_lhs", boom)
    code, out = run(capsys, "lmov", "--torus", "1,1,2", "--mu", "1|1")
    assert code == 1
    assert "FINDING" in out and "NotZRepresentable" in out


def test_out_of_memory_exits_3(monkeypatch, capsys):
    # running out of memory is a resource limit, reported without a traceback
    from klmov import lmov

    def boom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(lmov, "conjecture_lhs", boom)
    code = main(["lmov", "--torus", "1,1,2", "--mu", "1|1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_lmov_finding_json(monkeypatch, capsys):
    from klmov import lmov
    from klmov.errors import NonIntegerCoefficient

    def boom(*args, **kwargs):
        raise NonIntegerCoefficient("coefficient 1/2 at z^0 t^1")

    monkeypatch.setattr(lmov, "conjecture_lhs", boom)
    code, out = run(capsys, "lmov", "--torus", "1,1,2", "--mu", "1|1",
                    "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["integral"] is False and "finding" in data


def test_invariant_cable_limit_takes_the_smaller_parameter(monkeypatch, capsys):
    # T(7,2) = T(2,7) is cabled through min(r, k) = 2: cable size 4, not 14,
    # so the default limit 12 admits it
    from klmov import torus

    code, out = run(capsys, "invariant", "--torus", "2,7,1", "--colors", "2")
    assert code == 0
    active = torus._torus_invariant_active
    cables = []

    def spy(r, k, colors):
        cables.append(r * sum(map(sum, colors)))
        return active(r, k, colors)

    monkeypatch.setattr(torus, "_torus_invariant_active", spy)
    assert run(capsys, "invariant", "--torus", "7,2,1", "--colors", "2") == (0, out)
    assert cables == [4]


def test_torus_knot_cables_through_min_r_k(monkeypatch, capsys):
    # T(9,1) is the unknot: its cables have size |mu| = 3, not 9 * |mu|
    from klmov import lmov

    cable_terms = lmov.cable_terms
    cables = []

    def spy(r, k, colors):
        cables.append(r * sum(map(sum, colors)))
        return cable_terms(r, k, colors)

    monkeypatch.setattr(lmov, "cable_terms", spy)
    code, _ = run(capsys, "lmov", "--torus", "9,1,1", "--mu", "3")
    assert code == 0
    assert max(cables) == 3


def run_failing(capsys, *argv):
    """Exit code and stderr of a command that must print nothing on stdout."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize("argv, message", [
    (("invariant", "--unlink", "2", "--colors", "1"), "1 colors for 2 components"),
    (("invariant", "--unlink", "1", "--colors", "1|1"), "2 colors for 1 components"),
    (("invariant", "--unlink", "-1", "--colors", "1"), "L must be positive, got -1"),
    (("invariant", "--unlink", "0", "--colors", "1"),
     "argument --unlink: L must be positive, got 0"),
    (("lmov", "--unlink", "0", "--mu", "1"), "L must be positive, got 0"),
    (("degree", "--unlink", "0", "--mu", "1"), "L must be positive, got 0"),
], ids=["too-few-colors", "too-many-colors", "negative", "zero-invariant",
        "zero-lmov", "zero-degree"])
def test_unlink_component_count(capsys, argv, message):
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err.count("error:") == 1
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("lmov", "--torus", "2,3,1", "--mu", "1,a"), "not a partition: '1,a'"),
    (("lmov", "--torus", "2,3,1", "--mu", ",1"), "not a partition: ',1'"),
    (("lmov", "--torus", "2,3,1", "--mu", "0"), "needs a nonzero multi-partition"),
    (("degree", "--torus", "2,3,1", "--mu", "0"), "needs a nonzero multi-partition"),
    (("degree", "--unlink", "2", "--mu", "0|0"), "needs a nonzero multi-partition"),
], ids=["letter-row", "empty-row", "zero-lmov", "zero-degree", "zero-degree-link"])
def test_bad_color_is_a_usage_error(capsys, argv, message):
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("error", ["NotDivisible"])
@pytest.mark.parametrize("target, argv", [
    ("invariant", ("invariant", "--torus", "2,3,1", "--colors", "1")),
    ("degree_check", ("degree", "--torus", "2,3,1", "--mu", "1")),
], ids=["invariant", "degree"])
def test_internal_arithmetic_error_exits_4(monkeypatch, capsys, error, target, argv):
    # an arithmetic error outside the findings of lmov is neither a usage
    # error (2) nor a finding (1)
    from klmov import errors, lmov

    def boom(*args, **kwargs):
        raise getattr(errors, error)("remainder q in univariate division")

    monkeypatch.setattr(lmov, target, boom)
    code, err = run_failing(capsys, *argv)
    assert code == 4
    assert err == "error: remainder q in univariate division\n"


@pytest.mark.parametrize("argv, message", [
    (("invariant", "--torus", "2,3,1", "--unlink", "2", "--colors", "1"),
     "argument --unlink: not allowed with argument --torus"),
    (("lmov", "--torus", "2,3,1", "--unlink", "3", "--mu", "1"),
     "argument --unlink: not allowed with argument --torus"),
    (("degree", "--unlink", "2", "--torus", "1,1,2", "--mu", "1|1"),
     "argument --torus: not allowed with argument --unlink"),
    (("invariant", "--colors", "1"), "one of the arguments --torus --unlink is required"),
    (("lmov", "--mu", "1"), "one of the arguments --torus --unlink is required"),
    (("degree", "--mu", "1"), "one of the arguments --torus --unlink is required"),
    (("verify", "--format", "json"), "unrecognized arguments: --format json"),
    (("char-table", "--n", "2", "--format", "csv"), "argument --format: invalid choice: 'csv'"),
    (("sb", "--partition", "2", "--format", "csv"), "argument --format: invalid choice: 'csv'"),
    (("ctilde", "--colors", "1", "--r", "2", "--format", "csv"),
     "argument --format: invalid choice: 'csv'"),
    (("invariant", "--unlink", "1", "--colors", "1", "--format", "csv"),
     "argument --format: invalid choice: 'csv'"),
    (("degree", "--unlink", "1", "--mu", "1", "--format", "csv"),
     "argument --format: invalid choice: 'csv'"),
    (("verify", "--only", "kappa*", "--bound", "3"), "unrecognized arguments: --bound 3"),
    (("verify", "--format", "text"), "unrecognized arguments: --format text"),
    (("lmov", "--torus", "2,3,1", "--mu", "1", "--no-cache"),
     "unrecognized arguments: --no-cache"),
    (("lmov", "--torus", "2,3,1", "--mu", "1", "--cache-dir", "D"),
     "unrecognized arguments: --cache-dir D"),
    (("verify", "--cache-dir", "D"), "unrecognized arguments: --cache-dir D"),
    (("sb", "--partition", "2", "--no-cache"), "unrecognized arguments: --no-cache"),
    (("ctilde", "--colors", "1", "--r", "2", "--no-cache"),
     "unrecognized arguments: --no-cache"),
    (("char-table", "--n", "3", "--no-cache"), "unrecognized arguments: --no-cache"),
    (("bmw",), "argument command: invalid choice: 'bmw'"),
    (("rmatrix", "--N", "1"), "argument command: invalid choice: 'rmatrix'"),
], ids=["invariant-both", "lmov-both", "degree-both", "invariant-neither",
        "lmov-neither", "degree-neither", "verify-json",
        "char-table-csv", "sb-csv", "ctilde-csv", "invariant-csv", "degree-csv",
        "verify-bound", "verify-text",
        "lmov-no-cache", "lmov-cache-dir", "verify-cache-dir", "sb-no-cache",
        "ctilde-no-cache", "char-table-no-cache", "bmw", "rmatrix"])
def test_flag_misuse_is_a_usage_error(capsys, argv, message):
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err.count("error:") == 1
    assert message in err


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_an_error_line(tmp_path, capsys, target):
    out = tmp_path / "missing" / "x" if target == "missing-dir" else tmp_path
    code, err = run_failing(capsys, "invariant", "--unlink", "1", "--colors", "1",
                            "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unusable_cache_dir_is_an_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, err = run_failing(capsys, "char-table", "--n", "3",
                            "--cache-dir", str(blocker / "x"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_commands_without_a_table_leave_the_cache_dir_alone(tmp_path, capsys):
    # only char-table makes, reads or writes the cache directory: lmov takes
    # no --cache-dir, and ctilde ignores the one it takes
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ("lmov", "--torus", "2,3,1", "--mu", "1", "--cache-dir", str(blocker / "x"))
    code, err = run_failing(capsys, *argv)
    assert code == 2 and "unrecognized arguments: --cache-dir" in err
    new = tmp_path / "new"
    code, _ = run(capsys, "ctilde", "--colors", "1", "--r", "2", "--cache-dir", str(new))
    assert code == 0 and not new.exists()


def test_char_table_reads_no_cache_setting_from_the_environment(tmp_path, monkeypatch, capsys):
    # --cache-dir is the cache's one switch: a KLMOV_CACHE directory is
    # neither read nor written, and an unusable one is no error
    _, expected = run(capsys, "char-table", "--n", "3")
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("KLMOV_CACHE", str(cache))
    assert run(capsys, "char-table", "--n", "3") == (0, expected)
    assert list(cache.iterdir()) == []
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("KLMOV_CACHE", str(blocker / "x"))
    assert run(capsys, "char-table", "--n", "3") == (0, expected)


def test_no_module_reads_the_environment():
    # configuration through the environment cannot come back unnoticed
    readers = []
    for path in sorted(Path(characters.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [node.attr] if isinstance(node, ast.Attribute) else []
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            readers += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name in ("environ", "environb", "getenv", "getenvb")]
    assert readers == []


def test_char_table_makes_a_nested_cache_dir(tmp_path, capsys):
    target = tmp_path / "a" / "b"
    code, _ = run(capsys, "char-table", "--n", "3", "--cache-dir", str(target))
    assert code == 0
    assert [p.name for p in target.iterdir()] == ["brauer_3.json"]


def test_verify_only_matches_names_exactly(capsys):
    for only in ("kappa", ""):
        code, err = run_failing(capsys, "verify", "--suite", "properties", "--only", only)
        assert (code, err) == (2, f"error: no check matches {only!r}\n")
    code, out = run(capsys, "verify", "--suite", "all", "--only", "ctilde*")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[:-1]] == [
        "ctilde-tables", "ctilde-identity"]


def test_not_polynomial_finding_renders_the_remainder(capsys):
    # the remainder is a rendered value, not the repr of an internal dict
    line = "NotPolynomial: remainder 2 in univariate division"
    argv = ("lmov", "--torus", "2,3,1", "--mu", "2", "--no-antisym")
    code, out = run(capsys, *argv)
    assert (code, out) == (1, f"FINDING for T(2,3) colored 2: {line}\n")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert json.loads(out)["finding"] == line


def test_verify_all_writes_the_benchmark_bytes():
    # the benchmark's verify-all job compares every detail line verbatim
    assert_benchmark_job("verify-all", run_klmov("verify", "--suite", "all", "--seed", "3"))


@pytest.mark.parametrize("key, argv", [
    ("lmov-t22-0", ("--torus", "1,1,2", "--bound", "8", "--mu", "4,2|2")),
    ("lmov-t36-0", ("--torus", "1,2,3", "--mu", "2|2|2")),
    ("lmov-t36-1", ("--torus", "1,2,3", "--mu", "2|2|1,1")),
    ("lmov-t36-2", ("--torus", "1,2,3", "--mu", "1,1|2|2")),
    ("lmov-t22-1", ("--torus", "1,1,2", "--bound", "8", "--mu", "2,2|4")),
    ("lmov-t22-2", ("--torus", "1,1,2", "--bound", "8", "--mu", "3,1|2,2")),
    ("lmov-t25-0", ("--torus", "2,5,1", "--mu", "4")),
    ("lmov-t25-1", ("--torus", "2,5,1", "--mu", "3,1")),
    ("lmov-t25-2", ("--torus", "2,5,1", "--mu", "2,2")),
    ("smoke-lmov", ("--torus", "1,1,2", "--mu", "1|1")),
])
def test_lmov_writes_the_benchmark_bytes(key, argv):
    # the benchmark's table jobs compare their csv tables verbatim
    assert_benchmark_job(key, run_klmov("lmov", *argv, "--format", "csv"))


@pytest.mark.parametrize("key, argv", [
    ("char-table-12", ("char-table", "--n", "12")),
    ("ctilde-0", ("ctilde", "--colors", "3|3", "--r", "2")),
    ("ctilde-1", ("ctilde", "--colors", "4,2", "--r", "2")),
    ("ctilde-2", ("ctilde", "--colors", "2,1|2|1", "--r", "2")),
    ("smoke-char-table", ("char-table", "--n", "4")),
    ("setup", ("char-table", "--n", "1")),
])
def test_character_jobs_write_the_benchmark_bytes(key, argv, tmp_path):
    # the benchmark's characters jobs run cold, then warm, each with its own
    # --cache-dir; both compare their stdout verbatim.  Only char-table
    # builds a whole table and caches it: ctilde reads class columns and
    # writes no file.  The setup job runs with no cache at all
    cache = () if key == "setup" else ("--cache-dir", str(tmp_path))
    for _ in ("cold", "warm"):
        assert_benchmark_job(key, run_klmov(*argv, *cache))
    written = [f"brauer_{argv[-1]}.json"] if cache and argv[0] == "char-table" else []
    assert [p.name for p in tmp_path.iterdir()] == written


def test_parser_accepts_every_benchmark_job(tmp_path):
    # a CLI change that would fail perfbench's jobs fails here first; the jobs
    # are read from perfbench/run.py as perfbench/test_perfbench.py reads them
    here = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, here)
    try:
        import run as bench
    finally:
        sys.path.remove(here)
    jobs = [
        bench.SETUP,
        *(bench.table_job(pool, i)
          for pool, (_, _, mus) in enumerate(bench.TABLE_POOLS) for i in range(len(mus))),
        *map(bench.ctilde_job, range(3)),
        bench.CHAR_TABLE,
        *bench.SMOKE,
        bench.verify_job(1),
    ]
    for job in jobs:
        # as Runner.run appends it
        argv = [*job.argv, *(("--cache-dir", str(tmp_path)) if job.cached else ())]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{job.key}: klmov {' '.join(argv)} is a usage error")


class _Alarm(BaseException):
    """Raised by SIGALRM: no handler of cli.main catches it."""


@contextmanager
def _alarm(seconds):
    """Interrupt the block with _Alarm after seconds of wall time."""
    def ring(signum, frame):
        raise _Alarm(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# (valid, broken) tokens: the valid ones are small, so that every admitted
# call is quick; the broken ones are digits of other scripts, signs,
# separators, huge and empty values
_BROKEN = ("0", "-1", "+2", "\u0663", "\uff12", "1_0", "", "x", "2.0", " 3", "9" * 30)
_NUMBERS = (("1", "2", "3"), _BROKEN)
_BOUNDS = (("0", "3", "12"), ("-1", "+2", "\u0663", "x", ""))  # never huge: it admits all
_PARTITIONS = (("1", "2", "1,1", "2,1", "3"),
               ("", ",", "1,,1", "1,2", "0", "-1", "+1", "\u0663", "a", "9" * 30, "2,1,"))
_COLORS = ((*_PARTITIONS[0], "1|1", "2|0", "1,1|1", "1|1|1", "2|1|1,1"),
           (*_PARTITIONS[1], "0|0", "|", "1|", "1|\uff11"))
_TORI = (("2,3,1", "3,2,1", "1,1,2", "1,2,2", "2,3,2", "1,1,3"),
         ("2,4,1", "0,1,1", "-2,3,1", "1,1", "1,1,1,1", "\u0662,3,1", "+2,3,1",
          f"1,{'9' * 30},1", f"{'9' * 30},1,2", f"1,1,{'9' * 30}", "", "a,b,c"))
# rmatrix is no command (verify runs its checks), but it stays among the drawn
# names, with its --N and --check branch, so that the seed's draws stay the
# same; each of its draws is a usage error
_COMMANDS = (("char-table", "sb", "ctilde", "invariant", "lmov", "degree", "rmatrix",
              "verify"), ("bmw", "", "help", "LMOV"))
_STRAY = (("--format", "json"), ("--bound", "3"), ("--no-cache",), ("--torus", "2,3,1"),
          ("--frobnicate",), ("--mu",))


def _draw_argv(rng, tmp_path):
    """One klmov argument list, drawn from valid and broken tokens."""
    command = rng.choice(_COMMANDS[rng.random() < 0.05])
    argv = [command]

    def maybe(flag, pool=None, p=0.9):
        if rng.random() < p:
            argv.append(flag)
            if pool is not None:
                argv.append(rng.choice(pool[rng.random() < 0.2]))

    if command in ("invariant", "lmov", "degree"):
        # one of --torus and --unlink, or both, or neither
        source = rng.choices(("torus", "unlink", "both", "neither"), (8, 8, 1, 1))[0]
        if source in ("torus", "both"):
            argv += ["--torus", rng.choice(_TORI[rng.random() < 0.2])]
        if source in ("unlink", "both"):
            argv += ["--unlink", rng.choice(_NUMBERS[rng.random() < 0.2])]
        # mostly one small color per component of a valid link
        last = argv[-1].rpartition(",")[2] if source != "neither" else "1"
        if last in ("1", "2", "3"):
            rows = _PARTITIONS[0] if last == "1" else ("1", "2", "1,1")
            fitting = ("|".join(rng.choice(rows) for _ in range(int(last))),)
        else:
            fitting = _COLORS[0]
        maybe("--colors" if command == "invariant" else "--mu", (fitting, _COLORS[1]))
        maybe("--no-antisym", p=0.2 if command == "lmov" else 0)
    elif command == "char-table":
        maybe("--n", _NUMBERS)
        maybe("--cache-dir", ((str(tmp_path / "cache"),), ("",)), 0.2)
        maybe("--no-cache", p=0.2)  # a usage error: --cache-dir is the one switch
    elif command == "sb":
        maybe("--partition", _PARTITIONS)
        maybe("--pb", p=0.3)
        maybe("--closed", p=0.3)
    elif command == "ctilde":
        maybe("--colors", _COLORS)
        maybe("--r", _NUMBERS)
    elif command == "rmatrix":
        maybe("--N", _NUMBERS)
        maybe("--check", (("all", "ribbon", "braid", "bmw"), ("yang",)), 0.5)
    elif command == "verify":
        maybe("--suite", (("paper", "properties", "all"), ("none",)), 0.7)
        maybe("--only", (("ring*", "kappa*", "z-basis*", "bmw*", "hopf*"), ("nothing", "")))
        maybe("--seed", _NUMBERS, 0.3)
    formats = ("text", "json", "csv") if command == "lmov" else ("text", "json")
    if command not in ("rmatrix", "verify"):
        maybe("--format", (formats, ("csv", "xml", "")), 0.3)
    if command != "verify":
        maybe("--bound", _BOUNDS, 0.2)
    maybe("--out", ((str(tmp_path / "out.txt"),), (str(tmp_path / "no" / "out.txt"),
                                                    str(tmp_path))), 0.1)
    if rng.random() < 0.05:
        argv += rng.choice((*_STRAY, ("--cache-dir", str(tmp_path / "cache"))))
    return argv


def test_cli_fuzz_ends_with_an_exit_code_and_no_traceback(capsys, tmp_path):
    # a fixed-seed set of argument lists over every command, each run in
    # process under an alarm: each ends with exit code 0-4, never with an
    # exception, and prints no traceback; --no-cache and the rmatrix command
    # are usage errors, and rmatrix prints nothing on standard output
    rng = random.Random(2010)
    failures, codes, rmatrix_draws = [], set(), 0
    for _ in range(400):
        argv = _draw_argv(rng, tmp_path)
        try:
            with _alarm(3):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except (_Alarm, Exception) as exc:
            code = f"{type(exc).__name__}: {exc}"
        out, err = capsys.readouterr()
        codes.add(code)
        rmatrix = argv[0] == "rmatrix"
        rmatrix_draws += rmatrix
        if (code not in range(5) or "Traceback" in err
                or (("--no-cache" in argv or rmatrix) and code != 2)
                or (rmatrix and (out or err.count("error:") != 1))):
            failures.append((argv, code, err[-300:]))
    assert failures == []
    assert {0, 1, 2, 3} <= codes
    assert rmatrix_draws == 57


def test_largest_admitted_inputs_end_in_bounded_time(capsys):
    # the default limits admit cables of 8 boxes at framing degree up to
    # 100: a knot at the framing limit, and single-box rows on a knot and on
    # two components end within the alarm, and one more box is refused
    with _alarm(3):
        for argv, more, cable in [
            (("lmov", "--torus", "2,25,1", "--mu", "4"), "5", 10),
            (("lmov", "--torus", "2,5,1", "--mu", "1,1,1,1"), "1,1,1,1,1", 10),
            (("degree", "--torus", "1,1,2", "--mu", "1,1,1,1|1,1,1,1"), "1,1,1,1|1,1,1,1,1", 9),
        ]:
            code, out = run(capsys, *argv)
            assert code == 0 and out
            assert main([*argv[:-1], more]) == 3
            assert capsys.readouterr().err == f"error: cable size {cable} exceeds bound 8\n"


@pytest.mark.parametrize("command", ["lmov", "degree"])
def test_cable_size_refuses_a_color_that_passes_the_framing_limit(capsys, command):
    # T(4,5) on mu = 6 has color size 6 and framing degree 30 but builds
    # cables of 24 boxes: refused at once, where it once ran for minutes
    start = time.perf_counter()
    code = main([command, "--torus", "4,5,1", "--mu", "6"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: cable size 24 exceeds bound 8\n"


def readme_command_lines():
    """The klmov lines of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("klmov ")]
    assert lines
    return lines


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_lines_run(capsys, line):
    # each documented example is accepted and ends in an exit code of its
    # own: 0, or 1 for a finding (verify --suite paper reports criterion
    # 6); never a usage error, a size limit or an internal error
    try:
        code = main(shlex.split(line, comments=True)[1:])
    except SystemExit as exc:
        code = exc.code
    assert code not in (2, 3, 4)
    assert capsys.readouterr().err == ""


def readme_size_limits():
    """(command, defaults) for each command of the README's size-limit table,
    in its order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| command | size checked | default |\n", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[1:]:
        commands, _, defaults = line.strip("| ").split(" | ")
        for command in commands.split(", "):
            rows.append((command.strip("`"), tuple(map(int, defaults.split(", ")))))
    return rows


def test_readme_size_limits_are_the_limits():
    # the README's table lists the commands of LIMITS, in order, with their defaults
    assert readme_size_limits() == [
        (command, tuple(limits.values())) for command, limits in LIMITS.items()]
