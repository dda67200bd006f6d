import json
import os
import re

import pytest

from cisupport import cache
from cisupport.cache import HEADER, cache_key, cache_path, read_cache, write_cache
from cisupport.catalog import catalog_modules, three_var_ring, two_var_ring
from cisupport.cimodule import residue_module
from cisupport.cli import EXIT_OK, EXIT_PARSE, main
from cisupport.groebner import Ideal, equal_up_to_radical
from cisupport.poly import parse_poly, render_poly
from cisupport.realize import ConeSpec, realize_cone
from cisupport.variety import SupportVariety, membership, vanishes_at, variety_of

EX54 = """\
field 5
ring x y z
relations x^2 ; y^2 ; z^2
module k
residue
command betti
length 5
module k
"""

TWOVAR = """\
field 5
ring x y
relations x^2 ; y^2
module M
twists 0
columns x
"""


@pytest.fixture
def jobfile(tmp_path):
    def write(text, name="job.job"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_golden(jobfile, capsys):
    code, out, _ = run_cli(capsys, ["betti", "--input", jobfile(EX54)])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["betti"] == [1, 3, 6, 10, 15, 21]
    assert report["ring"]["relations"] == ["x^2", "y^2", "z^2"]


def test_variety_golden(jobfile, capsys):
    code, out, _ = run_cli(capsys, ["variety", "--input", jobfile(TWOVAR)])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["ideal"] == ["chi2"]
    assert report["flags"]["stabilized"] is True
    assert report["results"]["dimension"] == 1


def test_member_goldens(jobfile, capsys):
    path = jobfile(TWOVAR)
    code, out, _ = run_cli(capsys, ["member", "--input", path, "--point", "0,1"])
    assert code == EXIT_OK and json.loads(out)["results"]["member"] is False
    code, out, _ = run_cli(capsys, ["member", "--input", path, "--point", "1,0"])
    assert code == EXIT_OK and json.loads(out)["results"]["member"] is True


def test_restrict_command(jobfile, capsys):
    text = """\
field 5
ring x y z
relations x^2 ; y^2 ; z^2
module M
twists 0
columns x
"""
    code, out, _ = run_cli(
        capsys,
        ["restrict", "--input", jobfile(text), "--subspace", "2x3:1,0,0;0,1,0"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["restricted_ideal"] == ["s2"]


def test_realize_command(jobfile, capsys):
    code, out, _ = run_cli(
        capsys, ["realize", "--input", jobfile(TWOVAR), "--cone", "chi1"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["variety_ideal"] == ["chi1"]


TWOVAR_K = """\
field 5
ring x y
relations x^2 ; y^2
module k
residue
"""


@pytest.mark.parametrize("d", range(1, 2 * (2 + 2) + 2))  # 1 .. 2(n + c) + 1
def test_realize_finds_a_cone_of_any_degree(jobfile, capsys, d):
    # the default degree bound is n + c = 4; a cone generator above it used
    # to come out as the zero ideal, flagged stable
    ring = two_var_ring(5)
    chi = ring.chi_ring()
    cone = parse_poly(chi, f"chi1^{d} + 2*chi1*chi2^{d - 1} + chi2^{d}")
    code, out, _ = run_cli(
        capsys, ["realize", "--input", jobfile(TWOVAR_K), "--cone", render_poly(cone)]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["flags"]["stabilized"] is True
    ideal = Ideal(chi, [parse_poly(chi, g) for g in report["results"]["variety_ideal"]])
    assert equal_up_to_radical(ideal, Ideal(chi, [cone]))
    module = realize_cone(ring, ConeSpec([cone]))
    assert module.presentation.render() == report["results"]["presentation"]["entries"]
    k = residue_module(ring)
    for point in [(1, b) for b in range(5)] + [(0, 1)]:  # P^1(F_5)
        assert membership(ring, module, k, point) == vanishes_at(ideal, point, ring.field), point


def test_parse_error_exit_code_and_location(jobfile, capsys):
    bad = "field 5\nring x y\nrelations x ; x*y\nmodule M\ntwists 0\ncolumns x\n"
    code, out, err = run_cli(capsys, ["betti", "--input", jobfile(bad)])
    assert code == EXIT_PARSE
    assert ":3:" in err and "regular sequence" in err


BIG_PRIME = 2147483647  # the largest prime the job grammar accepts


def test_betti_at_the_largest_accepted_prime(jobfile, capsys):
    code, out, _ = run_cli(capsys, ["betti", "--input", jobfile(EX54.replace("field 5", f"field {BIG_PRIME}"))])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["betti"] == [1, 3, 6, 10, 15, 21]


def test_variety_at_the_largest_accepted_prime(jobfile, capsys):
    code, out, _ = run_cli(capsys, ["variety", "--input", jobfile(EX54.replace("field 5", f"field {BIG_PRIME}"))])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["ideal"] == []
    assert report["flags"]["stabilized"] is True


def test_prime_above_two_to_the_31_is_a_located_parse_error(jobfile, capsys):
    code, out, err = run_cli(capsys, ["betti", "--input", jobfile(EX54.replace("field 5", "field 4294967311"))])
    assert code == EXIT_PARSE
    assert out == ""
    assert ":1:7:" in err and "below 2^31" in err


def test_missing_input_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, ["betti"])
    assert code == EXIT_PARSE


def test_seed_flag_is_not_accepted(jobfile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["variety", "--input", jobfile(EX54), "--seed", "3"])
    assert exc.value.code == EXIT_PARSE
    assert "--seed" in capsys.readouterr().err


def test_seed_job_parameter_is_a_located_parse_error(jobfile, capsys):
    code, out, err = run_cli(capsys, ["betti", "--input", jobfile(EX54 + "seed 3\n")])
    assert code == EXIT_PARSE
    assert out == ""
    assert ":9:1:" in err and "unknown command parameter 'seed'" in err


MIXED = """\
field 5
ring x y
relations x^2 ; y^3
module k
residue
"""


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["member", "--point", "1,1"], "different degrees"),
        (["restrict", "--subspace", "1,1,1"], "row length"),
        (["restrict", "--subspace", "1,1;2,2"], "full row rank"),
        (["restrict", "--subspace", "1x2:1,1"], "mixed-degree"),
        (["resolve", "--length", "-1"], "length must be >= 0"),
        (["operators", "--window", "-1"], "window must be >= 0"),
        (["realize", "--cone", "1"], "degree >= 1"),
        (["realize", "--cone", "chi1+chi2"], "mixes internal degrees"),
    ],
    ids=["mixed-point", "short-row", "rank-deficient", "mixed-subspace", "negative-length",
         "negative-window", "constant-cone", "mixed-cone"],
)
def test_invalid_option_values_are_parse_errors(jobfile, capsys, argv, reason):
    code, out, err = run_cli(capsys, argv[:1] + ["--input", jobfile(MIXED)] + argv[1:])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and reason in err


def test_non_integer_length_in_the_job_file_is_a_parse_error(jobfile, capsys):
    code, out, err = run_cli(capsys, ["betti", "--input", jobfile(EX54.replace("length 5", "length five"))])
    assert code == EXIT_PARSE
    assert out == ""
    assert "length must be an integer" in err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_degree_bound_below_one_is_a_parse_error(capsys, bound):
    job = os.path.join(os.path.dirname(__file__), "golden", "readme_variety.job")
    code, out, err = run_cli(capsys, ["variety", "--input", job, "--degree-bound", bound])
    assert code == EXIT_PARSE
    assert out == ""
    assert "degree-bound must be >= 1" in err


def strip_wall(out):
    report = json.loads(out)
    report.pop("wall_time_ms", None)
    return json.dumps(report, sort_keys=True)


def test_determinism_and_cache_byte_identity(jobfile, capsys, tmp_path):
    path = jobfile(TWOVAR)
    cache = str(tmp_path / "cache")
    code1, out1, err1 = run_cli(
        capsys, ["variety", "--input", path, "--cache-dir", cache]
    )
    code2, out2, err2 = run_cli(
        capsys, ["variety", "--input", path, "--cache-dir", cache]
    )
    assert code1 == code2 == EXIT_OK
    assert strip_wall(out1) == strip_wall(out2)
    assert "cache hit" in err2 and "cache hit" not in err1
    # no cache at all gives the same bytes too
    code3, out3, _ = run_cli(capsys, ["variety", "--input", path])
    assert strip_wall(out3) == strip_wall(out1)


def test_cache_corruption_recovers(jobfile, capsys, tmp_path):
    path = jobfile(TWOVAR)
    cache = str(tmp_path / "cache")
    _, out1, _ = run_cli(capsys, ["variety", "--input", path, "--cache-dir", cache])
    victim = next(
        os.path.join(cache, f) for f in os.listdir(cache) if f.endswith(".json")
    )
    with open(victim, "w") as fh:
        fh.write("cisupport-cache v1\ndeadbeef\ntruncated")
    code, out2, err = run_cli(capsys, ["variety", "--input", path, "--cache-dir", cache])
    assert code == EXIT_OK
    assert strip_wall(out2) == strip_wall(out1)
    assert "cache hit" not in err


def test_cache_key_depends_on_parameters():
    k1 = cache_key("job", "variety", {"window": "10"})
    k2 = cache_key("job", "variety", {"window": "12"})
    k3 = cache_key("job", "betti", {"window": "10"})
    assert len({k1, k2, k3}) == 3


def test_cache_key_depends_on_package_and_engine_versions(monkeypatch):
    base = cache_key("job", "variety", {"window": "10"})
    monkeypatch.setattr(cache, "__version__", cache.__version__ + ".dev1")
    bumped_package = cache_key("job", "variety", {"window": "10"})
    monkeypatch.undo()
    monkeypatch.setattr(cache, "ENGINE_VERSION", cache.ENGINE_VERSION + "1")
    bumped_engine = cache_key("job", "variety", {"window": "10"})
    assert len({base, bumped_package, bumped_engine}) == 3


def test_cache_roundtrip_and_header(tmp_path):
    d = str(tmp_path)
    write_cache(d, "abc", "payload text")
    assert read_cache(d, "abc") == "payload text"
    with open(cache_path(d, "abc")) as fh:
        assert fh.readline().strip() == HEADER
    assert read_cache(d, "missing") is None


def test_env_cache_dir(jobfile, capsys, tmp_path, monkeypatch):
    path = jobfile(TWOVAR)
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("CISUPPORT_CACHE", cache)
    run_cli(capsys, ["variety", "--input", path])
    assert os.path.isdir(cache) and os.listdir(cache)


def test_json_out_writes_file(jobfile, capsys, tmp_path):
    out_path = str(tmp_path / "report.json")
    code, out, _ = run_cli(
        capsys, ["betti", "--input", jobfile(EX54), "--json-out", out_path]
    )
    assert code == EXIT_OK
    assert json.loads(open(out_path).read()) == json.loads(out)


def test_cli_flag_overrides_file_param(jobfile, capsys):
    code, out, _ = run_cli(capsys, ["betti", "--input", jobfile(EX54), "--length", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["betti"] == [1, 3, 6, 10]


def test_operators_command(jobfile, capsys):
    code, out, _ = run_cli(
        capsys, ["operators", "--input", jobfile(TWOVAR), "--window", "4"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["identity_verified"] is True
    assert report["results"]["operators"]["t1"]["2"]["entries"] == [["1"]]


def test_unstable_variety_exit_code(jobfile, capsys, monkeypatch):
    import cisupport.cli as cli_mod
    from cisupport.groebner import Ideal
    from cisupport.variety import SupportVariety

    real = cli_mod.variety_of

    def unstable(ring, module, dbound=None):
        v = real(ring, module, dbound)
        return SupportVariety(v.ring, v.ideal, False, v.degree_bound)

    monkeypatch.setattr(cli_mod, "variety_of", unstable)
    path = jobfile(TWOVAR)
    code, out, err = run_cli(capsys, ["variety", "--input", path])
    assert code == 3 and "did not stabilize" in err
    assert json.loads(out)["flags"]["stabilized"] is False
    code2, _, _ = run_cli(capsys, ["variety", "--input", path, "--allow-unstable"])
    assert code2 == EXIT_OK
    # a bare allow-unstable line in the job file acts as the flag
    switch = jobfile(TWOVAR + "command variety\nallow-unstable\n", "switch.job")
    code3, out3, err3 = run_cli(capsys, ["variety", "--input", switch])
    assert code3 == EXIT_OK and "did not stabilize" not in err3
    assert json.loads(out3)["flags"]["stabilized"] is False
    # the switch changes no result: the job-file run and the flag run print
    # one report and share one cache entry
    cache = os.path.join(os.path.dirname(path), "cache")
    flag_run = run_cli(capsys, ["variety", "--input", path, "--allow-unstable", "--cache-dir", cache])
    file_run = run_cli(capsys, ["variety", "--input", switch, "--cache-dir", cache])
    assert flag_run[0] == file_run[0] == EXIT_OK
    wall = re.compile(r',\n  "wall_time_ms": -?\d+(?=\n\}\n$)')
    assert wall.sub("", flag_run[1]) == wall.sub("", file_run[1])
    assert "allow-unstable" not in json.loads(file_run[1])["parameters"]
    assert "# cache hit" in file_run[2]
    assert len(os.listdir(cache)) == 1


@pytest.mark.parametrize(
    "old, new, where, reason",
    [
        ("length 5", "allow-unstable yes", ":7:16:", "allow-unstable takes no value"),
        ("length 5", "length -1", ":7:8:", "length must be >= 0, got -1"),
        ("ring x y z", "ring x:0 y z", ":2:6:", "weight must be positive, got 0"),
        ("ring x y z", "ring x y:-1 z", ":2:8:", "weight must be positive, got -1"),
        ("ring x y z", "ring x y x", ":2:10:", "duplicate variable 'x'"),
    ],
    ids=["allow-unstable-value", "negative-length", "zero-weight", "negative-weight",
         "duplicate-variable"],
)
def test_job_file_values_are_located_parse_errors(jobfile, capsys, old, new, where, reason):
    path = jobfile(EX54.replace(old, new))
    code, out, err = run_cli(capsys, ["betti", "--input", path])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(path + where) and reason in err


def test_resolve_command_includes_differentials(jobfile, capsys):
    code, out, _ = run_cli(
        capsys, ["resolve", "--input", jobfile(TWOVAR), "--length", "3"]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    diffs = report["results"]["differentials"]
    assert len(diffs) == 3
    assert diffs[0]["entries"] == [["x"]]
    assert report["results"]["betti"] == [1, 1, 1, 1]


def test_a_job_checks_its_relations_once(jobfile, capsys, monkeypatch):
    import cisupport.cimodule as cimodule

    calls = []
    real = cimodule.is_regular_sequence

    def counting(fs, ring=None):
        calls.append(fs)
        return real(fs, ring)

    monkeypatch.setattr(cimodule, "is_regular_sequence", counting)
    code, _, _ = run_cli(capsys, ["betti", "--input", jobfile(EX54)])
    assert code == EXIT_OK and len(calls) == 1


SOCLE_ABOVE_200 = """\
field 101
ring x
relations x^202
module k
residue
"""


def test_a_socle_degree_above_200_gives_the_same_answer_on_every_route(jobfile, capsys):
    # k over k[x]/(x^202) has the 2-periodic resolution with differentials
    # x, x^201, x, ...; every direction of k^1 is in its variety
    path = jobfile(SOCLE_ABOVE_200)
    code, out, _ = run_cli(capsys, ["betti", "--input", path, "--length", "4"])
    results = json.loads(out)["results"]
    assert code == EXIT_OK
    assert results["betti"] == [1, 1, 1, 1, 1]
    assert results["betti_by_degree"] == [{"0": 1}, {"1": 1}, {"202": 1}, {"203": 1}, {"404": 1}]
    code, out, _ = run_cli(capsys, ["variety", "--input", path])
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["results"]["ideal"] == [] and report["results"]["dimension"] == 1
    assert report["flags"]["stabilized"] is True
    code, out, _ = run_cli(capsys, ["member", "--input", path, "--point", "1"])
    assert code == EXIT_OK
    assert json.loads(out)["results"]["member"] is True


# ---------------------------------------------------------------------------
# each command reads only its own parameters


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["realize", "--cone", "chi1", "--degree-bound", "9"], "realize does not read --degree-bound"),
        (["variety", "--length", "9", "--point", "1,1"], "variety does not read --length"),
        (["variety", "--point", "1,1"], "variety does not read --point"),
        (["member", "--point", "1,0", "--allow-unstable"], "member does not read --allow-unstable"),
        (["betti", "--window", "3"], "betti does not read --window"),
        (["variety", "--window", "8"], "variety does not read --window"),
        (["restrict", "--subspace", "1x2:1,0", "--window", "8"], "restrict does not read --window"),
    ],
    ids=["realize-degree-bound", "variety-length", "variety-point", "member-allow-unstable",
         "betti-window", "variety-window", "restrict-window"],
)
def test_a_flag_the_command_does_not_read_is_a_parse_error(jobfile, capsys, argv, reason):
    code, out, err = run_cli(capsys, argv[:1] + ["--input", jobfile(TWOVAR)] + argv[1:])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and reason in err


def test_a_flag_given_to_check_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, ["check", "--length", "3"])
    assert code == EXIT_PARSE and out == ""
    assert "check does not read --length (it takes no flags)" in err


@pytest.mark.parametrize(
    "text, where, reason",
    [
        (EX54.replace("length 5", "window 3"), ":7:1:", "betti does not read window"),
        (TWOVAR + "command realize\ncone chi1\ndegree-bound 9\n", ":9:1:", "realize does not read degree-bound"),
        (TWOVAR + "command realize\nmodule M\n", ":8:1:", "realize does not read module"),
        (TWOVAR + "command member\nwindow 3\n", ":8:1:", "member does not read window"),
        (TWOVAR + "command variety\nwindow 8\n", ":8:1:", "variety does not read window"),
        (TWOVAR + "command restrict\nsubspace 1x2:1,0\nwindow 8\n", ":9:1:", "restrict does not read window"),
    ],
    ids=["betti-window", "realize-degree-bound", "realize-module", "member-window", "variety-window",
         "restrict-window"],
)
def test_a_section_parameter_its_command_does_not_read_is_a_located_parse_error(
    jobfile, capsys, text, where, reason
):
    path = jobfile(text)
    command = re.search(r"^command (\w+)$", text, re.M).group(1)
    code, out, err = run_cli(capsys, [command, "--input", path])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(path + where) and reason in err


def test_a_section_for_another_command_lends_only_what_this_one_reads(jobfile, capsys, tmp_path):
    betti_file = jobfile(TWOVAR + "command betti\nlength 5\nmodule M\n", "betti.job")
    variety_file = jobfile(TWOVAR + "command variety\nmodule M\n", "variety.job")
    cache = str(tmp_path / "cache")
    code1, out1, _ = run_cli(capsys, ["variety", "--input", betti_file, "--cache-dir", cache])
    code2, out2, err2 = run_cli(capsys, ["variety", "--input", variety_file, "--cache-dir", cache])
    assert code1 == code2 == EXIT_OK
    assert json.loads(out1)["parameters"] == {"module": "M"}
    assert strip_wall(out1) == strip_wall(out2)
    assert "# cache hit" in err2 and len(os.listdir(cache)) == 1


# ---------------------------------------------------------------------------
# unusable output and cache paths


def test_json_out_to_an_unwritable_path_is_a_parse_error(jobfile, capsys, tmp_path):
    out_path = str(tmp_path / "missing" / "report.json")
    code, out, err = run_cli(capsys, ["betti", "--input", jobfile(EX54), "--json-out", out_path])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and out_path in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["file", "read-only"])
def test_an_unusable_cache_dir_is_a_parse_error_naming_it(jobfile, capsys, tmp_path, monkeypatch, kind):
    cache = tmp_path / "cache"
    if kind == "file":
        cache.write_text("")
    else:  # os.access is faked: a root user may write to any directory
        cache.mkdir()
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    code, out, err = run_cli(capsys, ["betti", "--input", jobfile(EX54), "--cache-dir", str(cache)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and str(cache) in err


# ---------------------------------------------------------------------------
# known wrong answers (ROADMAP item 1)


def realized_above_degree_bound_job():
    """The realize_above_degree_bound golden's module, as a job file."""
    golden = os.path.join(os.path.dirname(__file__), "golden", "realize_above_degree_bound.expected")
    with open(golden, encoding="utf-8") as fh:
        pres = json.loads(json.load(fh)["stdout"])["results"]["presentation"]
    cols = " ; ".join(", ".join(row[j] for row in pres["entries"]) for j in range(pres["cols"]))
    return (
        "field 101\nring x y\nrelations x^2 ; y^2\nmodule M\n"
        f"twists {' '.join(map(str, pres['row_twists']))}\ncolumns {cols}\n"
        f"coltwists {' '.join(map(str, pres['col_twists']))}\n"
    )


def test_variety_above_the_degree_bound_agrees_with_member(jobfile, capsys):
    # the module's variety is Z(chi1^5 - 3 chi2^5), cut by a form of degree
    # 5 > n + c = 4; a right answer either finds it or is flagged unstable
    path = jobfile(realized_above_degree_bound_job())
    code, out, _ = run_cli(capsys, ["member", "--input", path, "--point", "1,0"])
    assert code == EXIT_OK and json.loads(out)["results"]["member"] is False
    _, out, _ = run_cli(capsys, ["variety", "--input", path])
    report = json.loads(out)
    chi = two_var_ring(101).chi_ring()
    ideal = Ideal(chi, [parse_poly(chi, g) for g in report["results"]["ideal"]])
    assert report["flags"]["stabilized"] is False or not vanishes_at(ideal, (1, 0), chi.field)


def test_variety_at_degree_bound_one_agrees_with_member():
    # K_quadric's variety is Z(chi1 chi2 + 4 chi3^2), cut by a quadric: at
    # degree bound 1 a right answer is flagged unstable or does not vanish
    # at the points member puts outside it
    ring = three_var_ring(5)
    module = catalog_modules(ring)["K_quadric"]
    outside = [(0, 0, 1), (1, 1, 2)]
    assert not any(membership(ring, module, residue_module(ring), a) for a in outside)
    v = variety_of(ring, module, degree_bound=1)
    assert not v.stabilized or not any(vanishes_at(v.ideal, a, ring.field) for a in outside)


@pytest.mark.parametrize("d", range(1, 13))
def test_variety_of_a_realized_cone_is_the_cone(d, tmp_path):
    # the degree ladder starts at the degree of the rank locus' form and
    # finds the cone by itself; realize passes no degree bound
    import realize_cones

    ok, line = realize_cones.variety_of_realized_cone(5, d, str(tmp_path))
    assert ok and "exit 0" in line, line


def test_a_certified_bound_the_locus_refutes_is_unstable_with_its_reason(jobfile, capsys, tmp_path):
    # at degree bound 4 the chi1^5 - 3 chi2^5 cone goes unseen, so the
    # ladder starts at the degree 5 of the rank locus' form and finds it
    path = jobfile(realized_above_degree_bound_job())
    for argv in ([], ["--degree-bound", "4"]):
        code, out, err = run_cli(capsys, ["variety", "--input", path] + argv)
        report = json.loads(out)
        assert code == EXIT_OK and err == "" and report["results"]["ideal"] == ["chi1^5 + 98*chi2^5"]
        assert report["results"]["degree_bound"] == 5 and report["results"]["window_used"] == 12
        assert "reason" not in report["flags"]
    # over F_2 the cone chi1^12 + chi2^12 is (chi1^3 + chi2^3)^4: from the
    # locus' degree 3 the ladder's 2(n + c) + 1 rungs end at 11, below the
    # power 12 the annihilator needs, and the report and stderr say why
    import realize_cones

    path = realize_cones.realized_cone_job(2, 12, str(tmp_path))
    code, out, err = run_cli(capsys, ["variety", "--input", path])
    report = json.loads(out)
    assert code == 3 and report["results"]["ideal"] == [] and report["flags"]["stabilized"] is False
    assert report["results"]["degree_bound"] == 11 and report["results"]["window_used"] == 24
    reason = report["flags"]["reason"]
    assert reason.startswith("no degree bound up to 11 gives an ideal the rank locus confirms (the annihilator")
    assert err == f"warning: variety computation did not stabilize: {reason}\n"
    code, out, _ = run_cli(capsys, ["variety", "--input", path, "--degree-bound", "12"])
    report = json.loads(out)
    assert code == EXIT_OK and report["results"]["ideal"] == ["chi1^12 + chi2^12"]
    assert report["results"]["degree_bound"] == 12 and report["flags"] == {"stabilized": True}


def test_the_ladder_starts_at_the_degree_of_the_locus_form(jobfile, capsys, monkeypatch):
    # the module's locus is the form chi1^5 - 3 chi2^5 of degree 5 on P^1,
    # so no rung below 5 runs; a larger degree bound is the first rung
    import cisupport.variety as variety

    bounds = []
    real = variety.annihilator_ideal

    def spy(ext, degree_bound):
        bounds.append(degree_bound)
        return real(ext, degree_bound)

    monkeypatch.setattr(variety, "annihilator_ideal", spy)
    path = jobfile(realized_above_degree_bound_job())
    for argv, first in (([], 5), (["--degree-bound", "3"], 5), (["--degree-bound", "7"], 7)):
        bounds.clear()
        code, out, _ = run_cli(capsys, ["variety", "--input", path] + argv)
        assert code == EXIT_OK and bounds == [first], (argv, bounds)
        assert json.loads(out)["results"]["degree_bound"] == first


def test_check_with_an_unstable_pair_variety_exits_unstable(capsys, monkeypatch):
    import cisupport.checksuite as checksuite

    real = checksuite.variety_of_pair

    def unstable(ring, module, other):
        v = real(ring, module, other)
        return SupportVariety(v.ring, v.ideal, False, v.degree_bound, note="sampled point disagrees")

    monkeypatch.setattr(checksuite, "variety_of_pair", unstable)
    code, out, err = run_cli(capsys, ["check"])
    report = json.loads(out)
    assert code == 3 and report["flags"]["stabilized"] is False
    assert "sampled point disagrees" in report["flags"]["reason"] and "sampled point disagrees" in err
