"""Command-line interface: payloads, formats, exit codes, cache, config."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import comodfilt
from comodfilt import __version__, cli
from comodfilt.cli import main
from comodfilt.cobar import NotACComoduleError
from comodfilt.coordalg import group_from_spec
from comodfilt.linalg import DimensionMismatch


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_dims_json_payload(capsys):
    payload = run_json(capsys, "dims", "--group", "GL:2@p=5", "--dmax", "3")
    assert [r["dim"] for r in payload["rows"]] == [1, 5, 16, 40]
    assert payload["engine"]["version"] == __version__
    assert payload["job"] == {"command": "dims", "group": "GL:2@p=5", "dmax": 3}
    assert set(payload) == {"job", "rows", "verdicts", "engine", "timestamp"}


def test_dims_csv(capsys):
    code, out, _ = run(capsys, "dims", "--group", "Gm@p=3", "--dmax", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["d,dim", "0,1", "1,3", "2,5"]


def test_filter_payload(capsys):
    payload = run_json(capsys, "filter", "--group", "Ga@p=2",
                       "--module", "regular(3)", "--dmax", "4")
    assert [r["dim"] for r in payload["rows"]] == [1, 2, 3, 4, 4]
    assert payload["verdicts"]["stabilized_at"] == 3


def test_closure_payload(capsys):
    payload = run_json(capsys, "closure", "--group", "Ga@p=2", "--dmax", "2")
    for row in payload["rows"]:
        assert row["subcoalgebra"] and row["equals_level"]


def test_growth_verdict(capsys):
    payload = run_json(capsys, "growth", "--group", "Ga@p=2",
                       "--module", "primitives", "--dmax", "16")
    assert payload["verdicts"]["class"] == "logarithmic"
    payload = run_json(capsys, "growth", "--group", "Ga@p=2", "--dmax", "12")
    assert payload["verdicts"] == {"class": "polynomial", "parameter": 1}


def test_cobar_payload(capsys):
    payload = run_json(capsys, "cobar", "--group", "Ga@p=2", "--dmax", "2",
                       "--nmax", "2")
    dims = {r["n"]: r["dim"] for r in payload["rows"]}
    assert dims[0] == 1 and dims[1] == 2
    assert payload["verdicts"]["coalgebra_dim"] == 3


def test_inject_profile(capsys):
    payload = run_json(capsys, "inject", "--group", "Ga@p=2", "--dmax", "2")
    assert [r["injective"] for r in payload["rows"]] == [True, False, False]


@pytest.mark.parametrize("argv,rows,verdicts", [
    (("filter", "--group", "SL:1@p=2", "--dmax", "2"),
     [{"d": d, "dim": 1} for d in range(3)], {"stabilized_at": 0}),
    (("validate", "--group", "SL:1@p=3"),
     [{"dim": 1, "failure": "", "ok": True, "target": "module"}], {"valid": True}),
    (("inject", "--group", "SL:1@p=2", "--dmax", "2"),
     [{"d": d, "injective": True} for d in range(3)], {"all_injective": True}),
    (("cobar", "--group", "SL:1@p=2", "--dmax", "2", "--nmax", "2"),
     [{"dim": 1, "n": 0}, {"dim": 0, "n": 1}, {"dim": 0, "n": 2}],
     {"coalgebra_dim": 1}),
])
def test_natural_over_sl1_is_the_trivial_module(capsys, argv, rows, verdicts):
    # x11 = det = 1 over SL(1), so natural has the coaction of triv
    for module in ("natural", "triv"):
        payload = run_json(capsys, *argv, "--module", module)
        assert payload["rows"] == rows and payload["verdicts"] == verdicts


def test_validate_module_and_suite(capsys):
    payload = run_json(capsys, "validate", "--group", "GL:2@p=2",
                       "--module", "sym(2,natural)")
    assert payload["verdicts"]["valid"]
    code, out, _ = run(capsys, "validate", "--suite", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,ok" and len(lines) == 6
    assert all(line.endswith(",true") for line in lines[1:])


def test_usage_exit_codes(capsys):
    cases = [
        ("dims", "--group", "Ga@p=4", "--dmax", "2"),          # not prime
        ("dims", "--group", "Sp:4@p=2", "--dmax", "2"),        # unknown kind
        ("filter", "--group", "Ga@p=2", "--module", "natural",
         "--dmax", "2"),                                       # incompatible
        ("filter", "--group", "Ga@p=2", "--module", "regular(",
         "--dmax", "2"),                                       # parse error
        ("filter", "--group", "Ga@p=2", "--dmax", "2"),        # missing module
        ("dims", "--group", "Ga@p=2", "--dmax", "-1"),
        ("dims", "--group", "Ga@p=2"),                         # missing dmax
        ("frobnicate",),                                       # unknown command
        ("cobar", "--group", "Ga@p=2", "--module", "primitives",
         "--dmax", "2"),                                       # stream in cobar
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.strip()


def test_primes_too_large_for_exact_elimination_are_usage_errors(capsys):
    code, out, err = run(capsys, "dims", "--group", "Ga@p=4294967311", "--dmax", "1")
    assert code == 1 and not out
    assert err.startswith("error:") and "too large" in err and len(err.splitlines()) == 1
    code, _, _ = run(capsys, "dims", "--group", "Ga@p=2147483647", "--dmax", "1")
    assert code == 0
    # rejected by size before any trial division
    code, _, err = run(capsys, "dims", "--group", f"Ga@p={10 ** 40 + 1}", "--dmax", "1")
    assert code == 1 and "too large" in err


@pytest.mark.parametrize("exc, code, prefix", [
    (DimensionMismatch("ambient mismatch: (3,p=2) vs (4,p=2)"), 3,
     "internal invariant violation:"),
    (NotACComoduleError("module does not fit the level"), 1, "error:"),
])
def test_engine_errors_map_to_their_exit_codes(capsys, monkeypatch, exc, code, prefix):
    def failing_runner(args, limits):
        raise exc
    monkeypatch.setitem(cli._RUNNERS, "dims", failing_runner)
    got, out, err = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "1", "--no-cache")
    assert got == code and not out
    assert err.startswith(prefix) and len(err.splitlines()) == 1


def test_a_module_outside_the_level_is_a_one_line_usage_error(capsys):
    code, out, err = run(capsys, "cobar", "--group", "Ga@p=2", "--module", "regular(3)",
                         "--dmax", "2", "--no-cache")
    assert code == 1 and not out
    assert err == ("error: coefficient f[0,3] = t^3 is not in the sub-coalgebra "
                   "(monomial t^3 outside the span)\n")


def test_resource_exit_code(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "99")
    assert code == 2 and "ceiling" in err
    # the config file raises the ceiling; there is no command-line override
    cfg = tmp_path / "limits.json"
    cfg.write_text(json.dumps({"max_dmax": 200}))
    monkeypatch.setenv("COMODFILT_CONFIG", str(cfg))
    code, out, _ = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "99")
    assert code == 0 and json.loads(out)["rows"][-1] == {"d": 99, "dim": 100}
    code, _, err = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "99",
                       "--max-dmax", "200")
    assert code == 1 and "--max-dmax" in err


def test_an_inject_profile_refuses_its_first_level_over_the_ceiling(tmp_path, capsys,
                                                                    monkeypatch):
    # SL(2) levels 0..3 have dimensions 1, 5, 14, 30: at a sub-coalgebra
    # ceiling of 10 level 2 is refused, unless a solver refusal at level 1
    # comes first
    cfg = tmp_path / "limits.json"
    monkeypatch.setenv("COMODFILT_CONFIG", str(cfg))
    argv = ["inject", "--group", "SL:2@p=2", "--module", "regular(3)", "--dmax", "3",
            "--no-cache"]
    for limits, refusal in [
            ({"max_coalgebra_dim": 10}, "sub-coalgebra dimension = 14 exceeds "
                                        "the configured ceiling 10"),
            ({"max_coalgebra_dim": 10, "max_solver_unknowns": 20},
             "retraction system unknowns = 25 exceeds the configured ceiling 20")]:
        cfg.write_text(json.dumps(limits))
        assert run(capsys, *argv) == (2, "", f"resource limit: {refusal}\n")


def test_config_file_overrides(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "limits.json"
    cfg.write_text(json.dumps({"max_dmax": 3}))
    monkeypatch.setenv("COMODFILT_CONFIG", str(cfg))
    code, _, _ = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "5")
    assert code == 2
    code, _, _ = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "3")
    assert code == 0


def test_output_is_deterministic(capsys):
    argv = ["filter", "--group", "Gm@p=3", "--module", "dual(regular(2))",
            "--dmax", "3"]
    first = run_json(capsys, *argv)
    second = run_json(capsys, *argv)
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second


def test_cache_roundtrip(tmp_path, capsys):
    argv = ["dims", "--group", "SL:2@p=3", "--dmax", "4",
            "--cache", str(tmp_path)]
    first = run_json(capsys, *argv)
    records = os.listdir(tmp_path)
    assert len(records) == 1 and len(records[0]) == 64 + 5  # sha256 + .json
    second = run_json(capsys, *argv)
    first.pop("timestamp"), second.pop("timestamp")
    assert first == second
    # a different job gets a different fingerprint
    run_json(capsys, "dims", "--group", "SL:2@p=3", "--dmax", "5",
             "--cache", str(tmp_path))
    assert len(os.listdir(tmp_path)) == 2


def test_cache_env_var_and_no_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COMODFILT_CACHE", str(tmp_path))
    run_json(capsys, "dims", "--group", "Ga@p=2", "--dmax", "2")
    assert len(os.listdir(tmp_path)) == 1
    run_json(capsys, "dims", "--group", "Ga@p=2", "--dmax", "3", "--no-cache")
    assert len(os.listdir(tmp_path)) == 1


def test_cache_ignores_corrupt_and_stale_records(tmp_path, capsys):
    argv = ["dims", "--group", "Ga@p=2", "--dmax", "2", "--cache", str(tmp_path)]
    run_json(capsys, *argv)
    path = tmp_path / os.listdir(tmp_path)[0]
    path.write_text("{not json")
    code, out, err = run(capsys, *argv)
    assert code == 0 and "corrupt cache" in err
    assert [r["dim"] for r in json.loads(out)["rows"]] == [1, 2, 3]
    # records from another engine version are recomputed, not trusted
    record = json.loads(path.read_text())
    record["engine"]["version"] = "0.0.0"
    path.write_text(json.dumps(record))
    payload = run_json(capsys, *argv)
    assert [r["dim"] for r in payload["rows"]] == [1, 2, 3]
    # a record of the wrong shape is one warning line and a miss, in either
    # format, and is overwritten: the next run is a silent hit
    record = json.loads(path.read_text())
    for bad in ([], "x", {**record, "engine": "x"}, {**record, "payload": 3},
                {**record, "payload": {"rows": 5}},
                {**record, "payload": {**record["payload"], "rows": [1]}},
                {**record, "payload": {**record["payload"], "rows": [{"d": 0}, {"e": 1}]}}):
        for fmt in ("json", "csv"):
            path.write_text(json.dumps(bad))
            for warned in (True, False):
                code, out, err = run(capsys, *argv, "--format", fmt)
                assert code == 0, (bad, err)
                if warned:
                    assert len(err.splitlines()) == 1, (bad, err)
                    assert err.startswith(f"warning: corrupt cache record {path}")
                else:
                    assert err == ""
                if fmt == "csv":
                    assert out.splitlines() == ["d,dim", "0,1", "1,2", "2,3"]
                else:
                    assert [r["dim"] for r in json.loads(out)["rows"]] == [1, 2, 3]


def test_cache_key_holds_the_engine_digest(tmp_path, capsys, monkeypatch):
    # the same job from unchanged sources hits the cache; from changed
    # sources it misses and is computed again, with the same payload
    calls = []
    compute = cli._RUNNERS["dims"]
    monkeypatch.setitem(cli._RUNNERS, "dims",
                        lambda args, limits: calls.append(1) or compute(args, limits))
    argv = ["dims", "--group", "Ga@p=2", "--dmax", "2", "--cache", str(tmp_path)]
    first = run_json(capsys, *argv)
    second = run_json(capsys, *argv)
    assert len(calls) == 1 and len(os.listdir(tmp_path)) == 1
    digest = cli._engine_digest()
    assert len(digest) == 64 and cli._engine_digest() == digest
    monkeypatch.setattr(cli, "_engine_digest", lambda: "0" * 64)
    third = run_json(capsys, *argv)
    assert len(calls) == 2 and len(os.listdir(tmp_path)) == 2
    for payload in (first, second, third):
        payload.pop("timestamp")
    assert first == second == third and first["engine"] == {"version": __version__}


@pytest.mark.parametrize("content, needle", [
    (None, "cannot read"),                                 # missing file
    ("{not json", "cannot read"),                          # not JSON
    ("[3]", "JSON object"),                                # not an object
    (json.dumps({"max_dmx": 1}), "'max_dmx'"),             # unknown key
    (json.dumps({"max_ambient": 5000}), "'max_ambient'"),  # a removed key
    (json.dumps({"max_dmax": -5}), "max_dmax"),            # below 1
    (json.dumps({"max_chain_dim": 0}), "max_chain_dim"),
    (json.dumps({"max_dmax": "many"}), "max_dmax"),
])
def test_bad_config_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch,
                                              content, needle):
    cfg = tmp_path / "limits.json"
    if content is not None:
        cfg.write_text(content)
    monkeypatch.setenv("COMODFILT_CONFIG", str(cfg))
    code, out, err = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_unreadable_config_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COMODFILT_CONFIG", str(tmp_path))  # a directory
    code, _, err = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "2")
    assert code == 1 and err.startswith("error: cannot read")


def test_cache_store_leaves_no_partial_record(tmp_path, monkeypatch):
    from comodfilt import cli

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"fingerprint": ')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        cli.cache_store(str(tmp_path), "f" * 64, {"rows": []})
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    cli.cache_store(str(tmp_path), "f" * 64, {"rows": []})
    assert cli.cache_lookup(str(tmp_path), "f" * 64) == {"rows": []}
    assert os.listdir(tmp_path) == ["f" * 64 + ".json"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("shape", ["cache is a file", "record is a directory"])
def test_a_record_that_cannot_be_stored_warns_and_answers(tmp_path, capsys, shape, fmt):
    argv = ["dims", "--group", "Ga@p=2", "--dmax", "1", "--format", fmt]
    if shape == "cache is a file":
        cache = tmp_path / "F"
        cache.write_text("")
    else:
        cache = tmp_path / "cache"
        run_json(capsys, *argv[:-2], "--cache", str(cache))
        (record,) = os.listdir(cache)
        os.remove(cache / record)
        os.mkdir(cache / record)
    code, out, err = run(capsys, *argv, "--cache", str(cache))
    assert code == 0, err
    if fmt == "csv":
        assert out.splitlines() == ["d,dim", "0,1", "1,2"]
    else:
        assert [r["dim"] for r in json.loads(out)["rows"]] == [1, 2]
    lines = err.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines), err
    assert lines[-1].startswith("warning: cannot store cache record: ")
    if shape == "cache is a file":
        assert len(lines) == 1
    assert not [name for _, _, names in os.walk(tmp_path)
                for name in names if name.endswith(".tmp")]


def test_a_run_without_a_cache_hashes_no_source(capsys, monkeypatch):
    monkeypatch.delenv("COMODFILT_CACHE", raising=False)
    monkeypatch.setattr(cli, "_engine_digest", lambda: pytest.fail("sources hashed"))
    for extra in ([], ["--no-cache"]):
        code, out, _ = run(capsys, "dims", "--group", "Ga@p=2", "--dmax", "1",
                           "--format", "csv", *extra)
        assert code == 0 and out.splitlines() == ["d,dim", "0,1", "1,2"]


def test_reused_parser_gives_the_same_answers(capsys, monkeypatch):
    # main() parses every call with one parser built per process; fresh
    # parsers must give the same output and exit codes
    monkeypatch.delenv("COMODFILT_CACHE", raising=False)
    argvs = [
        ["dims", "--group", "GL:2@p=5", "--dmax", "3"],
        ["cobar", "--group", "Ga@p=2", "--dmax", "2", "--format", "csv"],
        ["dims", "--group", "Ga@p=2"],                         # usage error
        ["filter", "--group", "Ga@p=2", "--module", "regular(2)", "--dmax", "3",
         "--format", "csv"],
        ["frobnicate"],                                        # usage error
        ["inject", "--group", "Ga@p=2", "--dmax", "2"],
        ["validate", "--suite", "--format", "csv"],
        ["cobar", "--group", "Ga@p=2", "--dmax", "2"],
    ]

    def answers(fresh):
        out = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            code, stdout, stderr = run(capsys, *argv)
            stdout = "\n".join(line for line in stdout.splitlines()
                               if '"timestamp"' not in line)
            out.append((code, stdout, stderr))
        return out

    reused = answers(fresh=False)
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 1, 0, 0, 0]
    assert cli._build_parser() is cli._build_parser()
    assert answers(fresh=True) == reused


def test_window_is_a_growth_option_only(capsys):
    payload = run_json(capsys, "growth", "--group", "Ga@p=2", "--module", "primitives",
                       "--dmax", "16", "--window", "8", "--no-cache")
    assert payload["job"]["window"] == 8
    code, out, err = run(capsys, "filter", "--group", "Ga@p=2", "--module", "primitives",
                         "--dmax", "16", "--window", "3", "--no-cache")
    assert code == 1 and not out
    assert err == "error: unrecognized arguments: --window 3\n"


def test_window_must_be_at_least_two(capsys):
    argv = ["growth", "--group", "Ga@p=2", "--module", "primitives", "--dmax", "16",
            "--no-cache", "--window"]
    for window in ("1", "0"):
        assert run(capsys, *argv, window) == (1, "", "error: --window must be >= 2\n")
    assert run_json(capsys, *argv, "2")["job"]["window"] == 2


def test_a_level_over_the_ceiling_is_refused_before_it_is_built():
    # O(GL:2)_{<=40} has dimension 247,681; building its basis before the
    # sub-coalgebra ceiling was checked ran out of a 1 GiB address space
    proc = run_under_one_gib(["cobar", "--group", "GL:2@p=2", "--dmax", "40", "--no-cache"])
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == ("resource limit: sub-coalgebra dimension = 247681 "
                           "exceeds the configured ceiling 30\n")


def test_normalized_cobar_runs_under_a_one_gib_address_space():
    # passes max_chain_dim (top dimension 2^16); the full complex's d^15 would
    # be a 65536 x 32768 int64 array (about 17 GB), while every normalized
    # chain group has dimension 1
    proc = run_under_one_gib(["cobar", "--group", "Ga@p=2", "--dmax", "1",
                              "--nmax", "15", "--format", "csv", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["n,dim"] + [f"{n},1" for n in range(16)]


@pytest.mark.parametrize("argv, max_chain_dim", [
    # with max_chain_dim raised to 10^8 (m s^5 = 24.3 M), d^4 maps CH^4
    # (29^4 = 707,281) to CH^5 (29^5 = 20.5 M): its 13.3 M triples are
    # 304 MiB as three int64 arrays, before they are summed
    (["cobar", "--group", "Ga@p=2", "--module", "triv", "--dmax", "29", "--nmax", "4"], 10 ** 8),
])
def test_an_allocation_over_the_address_space_exits_2_without_a_traceback(
        argv, max_chain_dim, tmp_path):
    # never run these jobs without the limit
    config = tmp_path / "limits.json"
    config.write_text(json.dumps({"max_chain_dim": max_chain_dim}))
    proc = run_under_one_gib(argv + ["--no-cache"], config)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"resource limit: out of memory in {argv[0]}\n"


def test_the_frontier_closure_answers_under_a_one_gib_address_space():
    # level 5 of SL(3) has 1,947 monomials and 137,624 coproduct entries;
    # their dense (84783, 1947) int64 row stack took 1.23 GiB, and a dense
    # (705, 705, 705) array of level 4's images 2.6 GiB
    job = ["closure", "--group", "SL:3@p=2", "--dmax", "5", "--format", "csv", "--no-cache"]
    proc = run_under_one_gib(job)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["d,dim,subcoalgebra,equals_level"] + [
        f"{d},{dim},true,true" for d, dim in enumerate([1, 10, 55, 219, 705, 1947])]


@pytest.mark.parametrize("argv, dims, max_chain_dim", [
    # natural lies in the odd block of SL(2): M_{C0} = 0
    pytest.param(["SL:2@p=2", "natural", "2", "3"], [0, 0, 0, 0], None, id="SL2-natural-d2-n3"),
    # the unit's block of O(GL:2)_{<=2} is k.1
    pytest.param(["GL:2@p=2", "regular(2)", "2", "2"], [1, 0, 0], None, id="GL2-regular2-d2-n2"),
    # C is injective over itself; its weight blocks stay small
    pytest.param(["U:3@p=2", "regular(2)", "2", "3"], [1, 0, 0, 0], None, id="U3-regular2-d2-n3"),
    # with max_chain_dim raised to 10^6 (m s^4 = 480,000): the dense weight
    # blocks of its d^3 held 119.8 M cells (914 MiB).  [1, 3, 10] agrees with
    # `reference_normalized_complex` at n <= 2, a dense check of 1.6 s and
    # 620 MB kept out of the suite; all four ranks of the engine's complex
    # are checked by sympy in tests/test_linalg_oracles.py
    pytest.param(["U:3@p=2", "natural", "3", "3"], [1, 3, 10, 34], 10 ** 6,
                 id="U3-natural-d3-n3"),
])
def test_the_frontier_cobar_jobs_answer_under_a_one_gib_address_space(
        argv, dims, max_chain_dim, tmp_path):
    # each passes max_chain_dim, the last with it raised; the dense normalized
    # d^n of the first two ran out of a 1 GiB address space, and the third's
    # d^3 is 65610 x 7290
    group, module, dmax, nmax = argv
    job = ["cobar", "--group", group, "--module", module, "--dmax", dmax,
           "--nmax", nmax, "--format", "csv", "--no-cache"]
    config = None
    if max_chain_dim:
        config = tmp_path / "limits.json"
        config.write_text(json.dumps({"max_chain_dim": max_chain_dim}))
    proc = run_under_one_gib(job, config)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["n,dim"] + [f"{n},{h}" for n, h in enumerate(dims)]


def test_nmax_below_one_is_a_usage_error_before_the_level_is_built(capsys, monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("the level was built")

    monkeypatch.setattr(cli.SubCoalgebra, "canonical", unbuilt)
    for nmax in ("0", "-1"):
        assert run(capsys, "cobar", "--group", "Ga@p=2", "--dmax", "40", "--nmax", nmax,
                   "--no-cache") == (1, "", "error: --nmax must be >= 1\n")


def run_under_one_gib(argv, config=None):
    """main(argv) in a fresh interpreter whose address space is capped at 1 GiB,
    with the limits of the config file `config`, if one is given."""
    code = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from comodfilt.cli import main
        sys.exit(main({argv!r}))
    """)
    src = os.path.dirname(os.path.dirname(comodfilt.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    if config:
        env["COMODFILT_CONFIG"] = str(config)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def run_fresh(argv, timeout=60):
    """main(argv) in a fresh interpreter, whose stack holds no pytest frames."""
    code = f"import sys; from comodfilt.cli import main; sys.exit(main({argv!r}))"
    src = os.path.dirname(os.path.dirname(comodfilt.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("group, r", [("Ga@p=2", 40), ("Ga@p=3", 25)])
def test_deep_frobenius_twists_over_ga_validate_within_seconds(group, r):
    # t^(p^r) has p^r + 1 binomials, but only two nonzero ones mod p
    proc = run_fresh(["validate", "--group", group, "--module",
                      f"twist({r},regular(1))", "--format", "csv", "--no-cache"],
                     timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["target,dim,ok,failure", "module,2,true,"]


@pytest.mark.parametrize("group, r", [("U:2@p=2", 16), ("GL:2@p=2", 20),
                                      ("SL:2@p=2", 20), ("SL:3@p=2", 12)])
def test_deep_frobenius_twists_over_matrix_groups_validate_within_seconds(group, r):
    # Delta(x^(p^r)) is r Frobenius splits of Delta(x), not p^r factors; over
    # SL its legs are powers of one variable, which x11*...*xNN does not
    # divide for N >= 2, so they are normal forms without a degree-p^r reduction
    proc = run_fresh(["validate", "--group", group, "--module",
                      f"twist({r},natural)", "--format", "csv", "--no-cache"],
                     timeout=30)
    assert proc.returncode == 0, proc.stderr
    dim = group_from_spec(group).N
    assert proc.stdout.splitlines() == ["target,dim,ok,failure", f"module,{dim},true,"]


def test_a_deeply_nested_expression_ends_in_one_line():
    def nested(levels):
        return ["validate", "--group", "Ga@p=2", "--module",
                "dual(" * levels + "regular(1)" + ")" * levels, "--format", "csv",
                "--no-cache"]

    proc = run_fresh(nested(1000))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: expression nested too deeply")
    proc = run_fresh(nested(400))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "module,2,true,"


def test_a_thousand_step_quotient_chain_is_reduced_without_recursion(capsys):
    # x^1024 det^-1000 over GL(1) reduces through x^(1024-k) det^-(1000-k),
    # k = 1, ..., 1000, one normal-form table entry per step
    payload = run_json(capsys, "validate", "--group", "GL:1@p=2", "--module",
                       "tensor(twist(10,natural),detpow(-1000))", "--no-cache")
    assert payload["rows"] == [{"target": "module", "dim": 1, "ok": True, "failure": ""}]
    assert payload["verdicts"] == {"valid": True}


def test_no_job_imports_numpy_ma():
    # under numpy 2.x a plain np.unique(x) imports numpy.ma on its first call,
    # about 13 ms in a fresh interpreter: more than a small job's whole run
    jobs = [["filter", "--group", "GL:2@p=5", "--module", "tensor(natural,detpow(-1))",
             "--dmax", "3"],
            ["cobar", "--group", "U:3@p=2", "--module", "natural", "--dmax", "2",
             "--nmax", "2"],
            ["inject", "--group", "SL:2@p=2", "--module", "regular(3)", "--dmax", "3"],
            ["validate", "--group", "U:3@p=3", "--module", "tensor(natural,dual(natural))"]]
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from comodfilt.cli import main
        for argv in {jobs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ["--no-cache"]) == 0, argv
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(comodfilt.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("spec", ["GL:12@p=2", "SL:12@p=3"])
def test_dims_over_a_large_det_group_builds_no_determinant(spec):
    # det over GL(12) has 12! terms, about 479 million: building the group
    # must not expand it, so the job ends within the timeout
    src = os.path.dirname(os.path.dirname(comodfilt.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "comodfilt.cli", "dims", "--group", spec,
                           "--dmax", "3", "--format", "csv", "--no-cache"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "3,518665"
