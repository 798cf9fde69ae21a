"""End-to-end tests of the command line.

Every test drives main(argv) directly with a captured stdout/stderr and a
patched stdin; four tests run the real interpreter as a subprocess, to
cover the module entry point, what a fresh process imports, and a failed
self-check under python -O.  Exit codes follow the contract: 0 for
built/holds, 1 for checked-and-false, 2 for unusable input, 3 for a result
that failed its re-verification.
"""

import io
import json
import subprocess
import sys

import pytest

from heisenmod import (
    GF,
    HeisenbergAlgebra,
    Matrix,
    ModuleParams,
    Representation,
    build_standard,
    build_V,
    conjugate_rep,
    decode_matrix,
    decode_representation,
    direct_sum_reps,
    encode_representation,
)
from heisenmod.cli import main


def params_of(field, alpha, betas, gammas):
    e = field.element
    return ModuleParams(e(alpha), [e(b) for b in betas], [e(g) for g in gammas])


@pytest.fixture
def cli(capsys, monkeypatch):
    def run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def rep_json(rep) -> str:
    return json.dumps(encode_representation(rep))


# -- build ------------------------------------------------------------------


def test_build_V_display(cli):
    code, out, err = cli(
        ["build", "V", "--p", "3", "--alpha", "1", "--betas", "0", "--gammas", "0"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["n"] == 1
    assert doc["x"][0]["entries"] == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    assert doc["y"][0]["entries"] == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert doc["z"]["entries"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_build_V_rank_two(cli):
    code, out, _ = cli(
        ["build", "V", "--p", "2", "--alpha", "1", "--betas", "0,1", "--gammas", "1,0"]
    )
    assert code == 0
    rep = decode_representation(json.loads(out))
    assert rep.n == 2 and rep.dim == 4


def test_build_standard(cli):
    code, out, _ = cli(["build", "standard", "--p", "5", "--n", "3"])
    assert code == 0
    rep = decode_representation(json.loads(out))
    assert rep.dim == 5 and rep.n == 3


def test_build_M_and_D_display(cli):
    code, out, _ = cli(["build", "M", "--p", "3", "--alpha", "1", "--beta", "0"])
    assert code == 0
    assert json.loads(out)["entries"] == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    code, out, _ = cli(["build", "D", "--p", "3", "--alpha", "1", "--deltas", "1,0"])
    assert code == 0
    assert json.loads(out)["entries"] == [[0, 1, 0], [1, 0, 2], [0, 1, 0]]


def test_build_companion_with_beta_alias(cli):
    code, out, _ = cli(
        ["build", "companion", "--p", "2", "--alpha", "1", "--beta", "0",
         "--f", "1,1,1"]
    )
    assert code == 0
    rep = decode_representation(json.loads(out))
    assert rep.dim == 4 and rep.n == 1


def test_build_restriction_via_degree_or_modulus(cli):
    argv = ["build", "restriction", "--p", "2", "--f", "0,1", "--g", "1"]
    code, out1, _ = cli(argv + ["--m", "2"])
    assert code == 0
    code, out2, _ = cli(argv + ["--q", "1,1,1"])
    assert code == 0
    assert json.loads(out1) == json.loads(out2)  # minimal modulus is X^2+X+1
    rep = decode_representation(json.loads(out1))
    assert rep.dim == 4


def test_build_over_extension_with_bracket_syntax(cli):
    code, out, _ = cli(
        ["build", "V", "--p", "2", "--q", "1,1,1", "--alpha", "[0,1]",
         "--betas", "[1,1]", "--gammas", "0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == {"p": 2, "modulus": [1, 1, 1]}
    assert doc["z"]["entries"][0][0] == [0, 1]  # alpha as a coefficient array


def test_build_usage_errors(cli):
    code, _, err = cli(["build", "V", "--p", "3", "--alpha", "1", "--betas", "0"])
    assert code == 2 and "--gammas" in err
    code, _, err = cli(
        ["build", "V", "--p", "3", "--alpha", "0", "--betas", "0", "--gammas", "0"]
    )
    assert code == 2 and "alpha" in err
    code, _, err = cli(
        ["build", "V", "--p", "3", "--alpha", "x", "--betas", "0", "--gammas", "0"]
    )
    assert code == 2 and "integer" in err
    code, _, err = cli(
        ["build", "V", "--p", "3", "--alpha", "[1", "--betas", "0", "--gammas", "0"]
    )
    assert code == 2 and "brackets" in err
    code, _, err = cli(
        ["build", "M", "--p", "3", "--alpha", "1", "--betas", "0,1"]
    )
    assert code == 2 and "one beta" in err
    code, _, err = cli(["build", "restriction", "--p", "2", "--f", "0,1", "--g", "1"])
    assert code == 2 and "--q or --m" in err
    # bare integers over an extension are element codes and must be in range
    code, _, err = cli(
        ["build", "V", "--p", "2", "--q", "1,1,1", "--alpha", "7",
         "--betas", "0", "--gammas", "0"]
    )
    assert code == 2 and "out of range" in err


def test_build_rank_comes_from_the_parameters(cli):
    # V reads its rank off the betas; a different --n is refused, not ignored
    argv = ["build", "V", "--p", "3", "--alpha", "1", "--betas", "0", "--gammas", "2"]
    code, out, err = cli(argv + ["--n", "2"])
    assert code == 2 and out == ""
    assert err == "error: build V builds rank 1, not --n 2\n"
    code, out, _ = cli(argv + ["--n", "1"])
    assert code == 0 and json.loads(out)["n"] == 1
    code, out, _ = cli(["build", "V", "--p", "3", "--n", "2", "--alpha", "1",
                        "--betas", "0,1", "--gammas", "2,0"])
    assert code == 0 and decode_representation(json.loads(out)).dim == 9
    # companion and restriction build rank 1 only
    for kind, extra in (("companion", ["--alpha", "1", "--betas", "0", "--f", "1,1,1"]),
                        ("restriction", ["--m", "2", "--f", "0,1", "--g", "1"])):
        code, _, err = cli(["build", kind, "--p", "2", "--n", "2", *extra])
        assert code == 2 and err == f"error: build {kind} builds rank 1, not --n 2\n"
        code, out, _ = cli(["build", kind, "--p", "2", "--n", "1", *extra])
        assert code == 0 and json.loads(out)["n"] == 1
    # standard keeps its default rank 1
    code, out, _ = cli(["build", "standard", "--p", "2"])
    assert code == 0 and decode_representation(json.loads(out)).dim == 3


BUILD_ARGS = {  # a valid build of each kind over GF(2), and the flags it reads
    "V": (["--alpha", "1", "--betas", "0", "--gammas", "1"],
          {"q", "n", "alpha", "betas", "gammas"}),
    "standard": ([], {"q", "n"}),
    "companion": (["--alpha", "1", "--betas", "0", "--f", "1,1,1"],
                  {"q", "n", "alpha", "betas", "f"}),
    "restriction": (["--m", "2", "--f", "0,1", "--g", "1"], {"q", "m", "n", "f", "g"}),
    "M": (["--alpha", "1", "--betas", "0"], {"q", "alpha", "betas"}),
    "D": (["--alpha", "1", "--deltas", "1"], {"q", "alpha", "deltas"}),
}


@pytest.mark.parametrize("kind", BUILD_ARGS)
def test_build_refuses_flags_its_kind_does_not_read(cli, kind):
    # a flag the kind would ignore is an error, not a silent default
    base, reads = BUILD_ARGS[kind]
    argv = ["build", kind, "--p", "2", *base]
    code, out, err = cli(argv)
    assert code == 0 and out and err == ""
    unread = {"n", "m", "alpha", "betas", "gammas", "deltas", "f", "g"} - reads
    for flag in sorted(unread):
        code, out, err = cli(argv + [f"--{flag}", "1"])
        assert code == 2 and out == ""
        assert err == f"error: build {kind} does not read --{flag}\n"


def test_build_reports_every_unread_flag(cli):
    code, out, err = cli(["build", "M", "--p", "3", "--n", "5", "--alpha", "1",
                          "--betas", "0"])
    assert (code, out, err) == (2, "", "error: build M does not read --n\n")
    code, out, err = cli(["build", "V", "--p", "2", "--m", "2", "--alpha", "1",
                          "--betas", "0", "--gammas", "1"])
    assert (code, out, err) == (2, "", "error: build V does not read --m\n")
    code, out, err = cli(["build", "standard", "--p", "2", "--f", "1,1", "--g", "1"])
    assert (code, out, err) == (2, "", "error: build standard does not read --f, --g\n")


def test_degree_one_moduli_build(cli):
    code, out, _ = cli(["suite", "cor23", "--p", "2,3", "--m", "1", "--json"])
    assert code == 0
    assert (json.loads(out)["cases_run"], json.loads(out)["cases_passed"]) == (10, 10)
    restriction = ["build", "restriction", "--p", "3", "--f", "1", "--g", "0,1"]
    code, out, _ = cli(restriction + ["--q", "1,1"])  # X + 1, root 2
    assert code == 0 and decode_representation(json.loads(out)).dim == 3
    code, out, err = cli(restriction + ["--m", "1"])  # X, root 0
    assert code == 2 and out == "" and err == "error: alpha must be nonzero\n"
    code, out, err = cli(["suite", "sec4-restriction", "--m", "1,2"])
    assert code == 2 and out == "" and err == "error: sec4-restriction needs m >= 2\n"


def test_build_prime_field_integers_reduce_mod_p(cli):
    code, out, _ = cli(
        ["build", "V", "--p", "3", "--alpha", "5", "--betas", "0", "--gammas", "0"]
    )
    assert code == 0
    assert json.loads(out)["z"]["entries"][0][0] == 2


# -- analyze -------------------------------------------------------------------


def test_analyze_validate(cli):
    field = GF(3)
    rep = build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [2], [0]))
    code, out, _ = cli(["analyze", "validate"], stdin_text=rep_json(rep))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"ok": True, "faithful": True, "z_scalar": 1, "violations": []}

    broken = conjugate_rep(rep, Matrix.identity(field, 3))
    swapped = encode_representation(broken)
    swapped["x"], swapped["y"] = swapped["y"], swapped["x"]
    code, out, _ = cli(["analyze", "validate"], stdin_text=json.dumps(swapped))
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["violations"]


def test_analyze_classify_round_trip(cli):
    field = GF(3)
    params = params_of(field, 2, [1], [2])
    rep = build_V(HeisenbergAlgebra(1, field), params)
    t = Matrix.from_rows(field, [[1, 2, 0], [0, 1, 1], [0, 0, 1]])
    code, out, _ = cli(["analyze", "classify"], stdin_text=rep_json(conjugate_rep(rep, t)))
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["alpha", "betas", "gammas", "transform"]
    assert doc["alpha"] == 2 and doc["betas"] == [1] and doc["gammas"] == [2]
    transform = decode_matrix(doc["transform"])
    moved = conjugate_rep(rep, t)
    for got, want in zip(moved.gen_matrices(), rep.gen_matrices()):
        assert transform.inv() * got * transform == want


def test_analyze_classify_failure_is_exit_one(cli):
    rep = build_standard(HeisenbergAlgebra(1, GF(3)))
    code, out, _ = cli(["analyze", "classify"], stdin_text=rep_json(rep))
    assert code == 1
    assert "error" in json.loads(out)


def test_analyze_classify_on_broken_relations_is_exit_one(cli):
    # x = y = N with N^2 = 0 and z = I over GF(2): [x, y] = 0 != z, and
    # classify's check fails on a singular basis; that is a verdict on the
    # input (exit 1), not a failed self-check (exit 3)
    field = GF(2)
    n_block = Matrix.from_rows(field, [[0, 1], [0, 0]])
    rep = Representation(HeisenbergAlgebra(1, field), [n_block], [n_block],
                         Matrix.identity(field, 2))
    code, out, err = cli(["analyze", "classify"], stdin_text=rep_json(rep))
    assert code == 1, err
    assert json.loads(out) == {"error": "relations violated: ['[x1, y1] != z']"}


def test_analyze_invariants(cli):
    field = GF(5)
    rep = build_V(HeisenbergAlgebra(1, field), params_of(field, 3, [2], [4]))
    code, out, _ = cli(["analyze", "invariants"], stdin_text=rep_json(rep))
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "alpha": 3,
        "deltas": [(field.element(2) ** 5).code],
        "epsilons": [(field.element(4) ** 5).code],
    }


def test_analyze_irreducible(cli):
    field = GF(2)
    rep = build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [0], [0]))
    code, out, _ = cli(["analyze", "irreducible"], stdin_text=rep_json(rep))
    assert code == 0
    assert json.loads(out) == {"irreducible": True}

    standard = build_standard(HeisenbergAlgebra(1, field))
    code, out, _ = cli(["analyze", "irreducible"], stdin_text=rep_json(standard))
    assert code == 1
    assert json.loads(out) == {"irreducible": False, "submodule": [[1, 0, 0]]}


def test_analyze_series(cli):
    field = GF(2)
    v = build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [0], [0]))
    w = build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [1], [1]))
    code, out, _ = cli(["analyze", "series"], stdin_text=rep_json(direct_sum_reps([v, w])))
    assert code == 0
    doc = json.loads(out)
    assert doc["chain_dims"] == [0, 2, 4]
    assert [f["dim"] for f in doc["factors"]] == [2, 2]
    assert all(f["faithful"] for f in doc["factors"])


def test_analyze_uniserial(cli):
    field = GF(2)
    standard = build_standard(HeisenbergAlgebra(1, field))
    code, out, _ = cli(["analyze", "uniserial"], stdin_text=rep_json(standard))
    assert code == 0 and json.loads(out) == {"uniserial": True}
    v = build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [0], [0]))
    code, out, _ = cli(["analyze", "uniserial"], stdin_text=rep_json(direct_sum_reps([v, v])))
    assert code == 1 and json.loads(out) == {"uniserial": False}


def test_analyze_schema_diagnostics(cli):
    code, _, err = cli(["analyze", "validate"], stdin_text="not json")
    assert code == 2 and err.startswith("error at $: not valid JSON")

    field = GF(3)
    rep = build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [0], [0]))
    doc = encode_representation(rep)
    doc["x"][0]["entries"][0][1] = 7
    code, _, err = cli(["analyze", "validate"], stdin_text=json.dumps(doc))
    assert code == 2
    assert "error at $.x[0].entries[0][1]: element out of range [0, 3)" in err

    del doc["x"]
    code, _, err = cli(["analyze", "validate"], stdin_text=json.dumps(doc))
    assert code == 2 and 'missing "x"' in err


def test_analyze_in_and_out_files(cli, tmp_path):
    field = GF(3)
    rep = build_V(HeisenbergAlgebra(1, field), params_of(field, 2, [0], [1]))
    src = tmp_path / "rep.json"
    dst = tmp_path / "result.json"
    src.write_text(rep_json(rep), encoding="utf-8")
    code, out, _ = cli(
        ["analyze", "validate", "--in", str(src), "--out", str(dst)]
    )
    assert code == 0 and out == ""  # output went to the file
    doc = json.loads(dst.read_text(encoding="utf-8"))
    assert doc["ok"] is True and doc["z_scalar"] == 2


def test_build_out_file_round_trips(cli, tmp_path):
    dst = tmp_path / "rep.json"
    code, out, _ = cli(
        ["build", "V", "--p", "2", "--alpha", "1", "--betas", "1", "--gammas", "0",
         "--out", str(dst)]
    )
    assert code == 0 and out == ""
    code, out, _ = cli(["analyze", "classify", "--in", str(dst)])
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 1 and doc["betas"] == [1] and doc["gammas"] == [0]


# -- suite ------------------------------------------------------------------


def test_suite_human_output(cli):
    code, out, _ = cli(["suite", "ex27", "--p", "2,3"])
    assert code == 0
    assert "ex27" in out and "3/3" in out


def test_suite_json_shape(cli):
    code, out, _ = cli(["suite", "ex27", "--p", "2,3,5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "suite", "anchor", "cases_run", "cases_passed", "failures", "wall_time"
    }
    assert doc["suite"] == "ex27"
    assert doc["cases_run"] == 7 and doc["cases_passed"] == 7
    assert doc["failures"] == []
    assert isinstance(doc["wall_time"], float)


def test_suite_search_message_lines(cli):
    code, out, _ = cli(["suite", "sec3-min-dim", "--p", "3", "--n", "1"])
    assert code == 0
    assert "d=2: none found over 6561 pairs" in out
    assert "d=3: witness found" in out


def test_suite_refused_search_is_exit_two(cli):
    # GF(67) at d = 2 is past the 2^12 class bound: a refusal, not a FAIL
    code, out, err = cli(["suite", "sec3-min-dim", "--p", "67", "--n", "1"])
    assert code == 2 and out == ""
    assert err == (
        "error: TooLarge: 4556 similarity classes exceed the 2^12 search bound\n"
    )


def test_suite_parallel_matches_serial(cli):
    code, serial, _ = cli(["suite", "cor26", "--p", "2,3", "--json"])
    assert code == 0
    code, parallel, _ = cli(["suite", "cor26", "--p", "2,3", "--jobs", "2", "--json"])
    assert code == 0
    a, b = json.loads(serial), json.loads(parallel)
    for key in ("cases_run", "cases_passed", "failures"):
        assert a[key] == b[key]


def test_suite_usage_errors(cli):
    code, _, err = cli(["suite", "unknown-name"])
    assert code == 2 and "unknown" in err
    code, _, err = cli(["suite", "thm22", "--p", "4"])
    assert code == 2 and "prime" in err
    code, _, err = cli(["suite", "thm22", "--p", "x"])
    assert code == 2
    code, _, err = cli(["suite", "prop21", "--n", "0"])
    assert code == 2
    for jobs in ("0", "-3"):
        code, out, err = cli(["suite", "ex27", "--jobs", jobs])
        assert code == 2 and "jobs" in err and out == ""


# -- argparse level ----------------------------------------------------------------


def test_no_arguments_is_usage_error(cli):
    assert cli([])[0] == 2


def test_help_exits_zero(cli):
    assert cli(["--help"])[0] == 0
    assert cli(["build", "--help"])[0] == 0


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "heisenmod.cli", "build", "M",
         "--p", "3", "--alpha", "1", "--beta", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"] == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]


# Prints the exit codes of a build and a serial suite run in one CLI
# process, and the modules loaded after the import and after each command.
LOADED_MODULES = """
import contextlib, io, json, sys
import heisenmod.cli

loaded, codes = [sorted(sys.modules)], []
for argv in (["build", "standard", "--p", "3"], ["suite", "ex27", "--p", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(heisenmod.cli.main(argv))
    loaded.append(sorted(sys.modules))
print(json.dumps([codes, loaded]))
"""


def test_cli_process_loads_only_the_layers_of_its_command():
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    codes, (after_import, after_build, after_suite) = json.loads(proc.stdout)
    assert codes == [0, 0]
    pool = {"concurrent.futures", "multiprocessing"}
    unused = {"heisenmod.modules", "heisenmod.suites", *pool}
    assert not unused & set(after_import)
    assert not unused & set(after_build)
    # a serial suite loads the suites but not the process pool
    assert "heisenmod.suites" in after_suite
    assert not pool & set(after_suite)


def test_bare_package_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, heisenmod; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m.startswith("heisenmod.")] == []


# Runs the CLI with the first product of classify's final check corrupted:
# the first product of two matrices inside _checked_transform is part of it.
CORRUPTED_CLASSIFY = """
import sys
import heisenmod.heisenberg as hb
from heisenmod import Matrix
from heisenmod.cli import main

if not sys.flags.optimize:
    sys.exit(4)
plain_mul, plain_check = Matrix.__mul__, hb._checked_transform
armed = []

def checked_transform(*args):
    armed.append(True)
    return plain_check(*args)

def mul(self, other):
    out = plain_mul(self, other)
    if armed and isinstance(other, Matrix):
        armed.clear()
        data = list(out.data)
        data[0] = out.field.add(data[0], 1)
        out = Matrix(out.field, out.rows, out.cols, data)
    return out

hb._checked_transform = checked_transform
Matrix.__mul__ = mul
sys.exit(main(sys.argv[1:]))
"""


def test_failed_self_check_is_internal_error_under_optimize(tmp_path):
    field = GF(3)
    rep = build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [2], [1]))
    t = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    path = tmp_path / "rep.json"
    path.write_text(rep_json(conjugate_rep(rep, t)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_CLASSIFY,
         "analyze", "classify", "--in", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "internal error: VerificationFailed" in proc.stderr


CORRUPTED_SERIES = """
import sys
import heisenmod.modules as md
from heisenmod import Matrix
from heisenmod.cli import main

if not sys.flags.optimize:
    sys.exit(4)
plain_series_basis = md._series_basis
calls = []

def series_basis(*args):
    calls.append(True)
    top = len(calls) == 1
    t, dims, factors = plain_series_basis(*args)
    if top:
        # the first column again in place of the last: T is singular
        cols = t.transpose().row_lists()
        t = Matrix.from_columns(t.field, [*cols[:-1], cols[0]])
    return t, dims, factors

md._series_basis = series_basis
sys.exit(main(sys.argv[1:]))
"""


def test_singular_series_basis_is_internal_error_under_optimize(tmp_path):
    field = GF(3)
    rep = direct_sum_reps([build_V(HeisenbergAlgebra(1, field), params_of(field, 1, [0], [1])),
                           build_V(HeisenbergAlgebra(1, field), params_of(field, 2, [2], [0]))])
    path = tmp_path / "rep.json"
    path.write_text(rep_json(rep), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_SERIES,
         "analyze", "series", "--in", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert ("internal error: VerificationFailed: composition series basis is singular"
            in proc.stderr)
