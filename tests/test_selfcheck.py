"""The `repro selfcheck` determinism driver: identical digests, exit 0."""

from repro import cli, sanitize
from repro.experiments import selfcheck


def test_selfcheck_digests_identical(capsys):
    assert selfcheck.main(["--seed", "3", "--scale", "0.02", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "deterministic" in out
    assert "MISMATCH" not in out


def test_selfcheck_restores_sanitizer_flag():
    previous = sanitize.ENABLED
    digests = selfcheck.run_selfcheck(seed=3, scale=0.02, runs=2)
    assert sanitize.ENABLED == previous
    assert len(set(digests)) == 1


def test_selfcheck_digest_depends_on_seed():
    a = selfcheck.trace_digest(seed=3, scale=0.02)
    b = selfcheck.trace_digest(seed=4, scale=0.02)
    assert a != b


def test_selfcheck_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "selfcheck.txt"
    rc = cli.main([
        "selfcheck", "--seed", "3", "--scale", "0.02", "--runs", "2",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    assert "deterministic" in out.read_text()
