import sys
import time

import pytest

from demyanov import (
    ClaimVerdict,
    builtin_counterexample,
    demyanov_convert,
    parse_family,
    serialize_family,
)
from demyanov.cli import (
    EX_DATAERR,
    EX_NOINPUT,
    EX_OK,
    EX_SOFTWARE,
    EX_USAGE,
    MAX_INSTANCES,
    MAX_POLYTOPES,
    MAX_VERTICES,
    cli_dispatch,
)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_builtin_emits_parseable_document(capsys):
    code, out, _ = run(capsys, "builtin")
    assert code == EX_OK
    assert parse_family(out) == builtin_counterexample()


def test_builtin_writes_file(tmp_path, capsys):
    target = tmp_path / "family.json"
    code, out, _ = run(capsys, "builtin", "--out", str(target))
    assert code == EX_OK
    assert out == ""
    assert parse_family(target.read_text()) == builtin_counterexample()


def test_convert_applies_converter_once(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(serialize_family(builtin_counterexample()))
    code, _, _ = run(capsys, "convert", "--in", str(src), "--out", str(dst))
    assert code == EX_OK
    assert parse_family(dst.read_text()) == demyanov_convert(builtin_counterexample())


def test_iterate_builtin_prints_cycle_summary(capsys):
    code, out, _ = run(capsys, "iterate", "--builtin", "--cap", "100")
    assert code == EX_OK
    assert out == "N=1 L=4\n"


def test_iterate_dump_dir_writes_trajectory(tmp_path, capsys):
    dump = tmp_path / "orbit"
    code, out, _ = run(
        capsys, "iterate", "--builtin", "--cap", "100", "--dump-dir", str(dump)
    )
    assert code == EX_OK
    files = sorted(p.name for p in dump.iterdir())
    assert files == [f"omega_{k}.json" for k in range(6)]
    assert parse_family((dump / "omega_0.json").read_text()) == builtin_counterexample()
    assert parse_family((dump / "omega_5.json").read_text()) == parse_family(
        (dump / "omega_1.json").read_text()
    )


def test_iterate_cap_exceeded_maps_to_internal_exit_code(capsys):
    code, _, err = run(capsys, "iterate", "--builtin", "--cap", "2")
    assert code == EX_SOFTWARE
    assert "no cycle" in err


def test_verify_claim_passes(capsys):
    code, out, _ = run(capsys, "verify-claim")
    assert code == EX_OK
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert out.rstrip().endswith("N=1 L=4")


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "family.svg"
    code, _, _ = run(capsys, "render", "--builtin", "--out", str(target))
    assert code == EX_OK
    first = target.read_text()
    assert first.startswith('<?xml version="1.0"')
    code, _, _ = run(capsys, "render", "--builtin", "--out", str(target))
    assert code == EX_OK
    assert target.read_text() == first


def test_search_is_deterministic(capsys):
    argv = (
        "search", "--instances", "10", "--cap", "1000", "--seed", "5",
        "--num-polytopes", "2", "--max-vertices", "3", "--coord-bound", "2",
    )
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == EX_OK
    assert out_a == out_b
    assert out_a.startswith("instances=10\n")
    assert "max_L=" in out_a


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == EX_USAGE
    assert err.startswith("error: the following arguments are required: command\n")
    assert "usage: demyanov" in err


def test_subcommand_usage_error_prints_its_own_usage(capsys):
    code, _, err = run(capsys, "convert")
    assert code == EX_USAGE
    assert err.startswith("error: one of the arguments --in --builtin is required\n")
    assert "usage: demyanov convert" in err


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_needs_digit_limit = pytest.mark.skipif(
    not _DIGIT_LIMIT, reason="interpreter has no limit on integer digits"
)
_LONG = "1" * (_DIGIT_LIMIT + 1)


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'{"version":"1","polytopes":[[["0.5","0"]]]}', id="float-literal"),
        pytest.param(
            f'{{"version":"1","polytopes":[[["{_LONG}","0"]]]}}'.encode(),
            id="long-numerator",
            marks=_needs_digit_limit,
        ),
        pytest.param(
            f'{{"version":"1","polytopes":[[["1/{_LONG}","0"]]]}}'.encode(),
            id="long-denominator",
            marks=_needs_digit_limit,
        ),
        pytest.param(
            f'{{"version":"1","polytopes":[[[{_LONG},"0"]]]}}'.encode(),
            id="long-json-number",
            marks=_needs_digit_limit,
        ),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep-nesting"),
        pytest.param(b'{"version":"1","polytopes":[[["\xff","0"]]]}', id="not-utf8"),
    ],
)
def test_malformed_document_maps_to_data_exit_code(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = run(capsys, "convert", "--in", str(bad))
    assert code == EX_DATAERR
    assert "error:" in err
    assert "Traceback" not in err


def test_verify_claim_failure_prints_verdict_and_exits_70(monkeypatch, capsys):
    verdict = ClaimVerdict((), (("holds", True), ("breaks", False)), 1, 2)
    monkeypatch.setattr("demyanov.cli.verify_claim", lambda: verdict)
    code, out, err = run(capsys, "verify-claim")
    assert code == EX_SOFTWARE
    assert out == "PASS holds\nFAIL breaks\n"
    assert "N=" not in out
    assert "claim violated: breaks" in err


@pytest.mark.parametrize("argv", [("--help",), ("search", "--help")])
def test_help_returns_0_with_usage_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EX_OK
    assert out.startswith("usage: demyanov")
    assert err == ""


@pytest.mark.parametrize(
    "argv, expected, message",
    [
        (("iterate", "--builtin", "--cap", "0"), EX_USAGE, "--cap"),
        (("search", "--instances", "0"), EX_USAGE, "--instances"),
        (("search", "--coord-bound", "-1"), EX_USAGE, "--coord-bound"),
        (
            ("search", "--num-polytopes", "50", "--max-vertices", "1", "--coord-bound", "0"),
            EX_DATAERR,
            "could not generate 50 distinct polytopes",
        ),
        (("iterate", "--builtin", "--cap", "abc"), EX_USAGE, "invalid integer: 'abc'"),
        pytest.param(
            ("search", "--seed", "abc"), EX_USAGE, "invalid integer: 'abc'", id="seed-abc"
        ),
        pytest.param(
            ("search", "--seed", "-1"), EX_USAGE, "must be at least 0, got -1", id="seed-negative"
        ),
        pytest.param(
            ("frobnicate",), EX_USAGE, "invalid choice: 'frobnicate'", id="unknown-subcommand"
        ),
        pytest.param(
            ("iterate", "--in", "in.json", "--builtin"),
            EX_USAGE,
            "argument --builtin: not allowed with argument --in",
            id="conflicting-input-flags",
        ),
        pytest.param(
            ("convert", "--in", "absent.json"),
            EX_NOINPUT,
            "No such file or directory",
            id="missing-input-file",
        ),
    ],
)
def test_out_of_range_arguments_map_to_documented_exit_codes(
    tmp_path, monkeypatch, capsys, argv, expected, message
):
    monkeypatch.chdir(tmp_path)  # where absent.json is absent
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert message in err
    assert "Traceback" not in err
    if expected == EX_USAGE:
        assert err.startswith("error: ")
        assert "usage: demyanov" in err


@pytest.mark.parametrize(
    "flag, maximum",
    [
        ("--instances", MAX_INSTANCES),
        ("--num-polytopes", MAX_POLYTOPES),
        ("--max-vertices", MAX_VERTICES),
    ],
)
def test_search_size_flags_have_documented_maxima(monkeypatch, capsys, flag, maximum):
    # Over the maximum is a usage error before any family is generated.
    def no_generation(*args):
        raise AssertionError("a family was generated")

    monkeypatch.setattr("demyanov.dynamics.random_family", no_generation)
    started = time.perf_counter()
    code, out, err = run(capsys, "search", flag, "123456789")
    assert time.perf_counter() - started < 1
    assert code == EX_USAGE
    assert f"must be at most {maximum}" in err
    assert "Traceback" not in err
    assert out == ""
    code, _, err = run(capsys, "search", flag, str(maximum + 1))
    assert code == EX_USAGE
    assert f"must be at most {maximum}" in err
