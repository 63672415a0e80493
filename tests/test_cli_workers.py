"""`mc` refuses a worker count below 1 with exit 2, naming where it came from."""

import pytest

from multiway.cli import main
from multiway.dataio import write_json

MC = {
    "dgp": {"variant": "additive"},
    "dims": [4, 4],
    "replications": 2,
    "methods": ["wald-v1"],
    "estimator": "ratio",
}


@pytest.mark.parametrize(
    "flag, env, source",
    [
        ("-5", None, "--workers"),
        ("0", None, "--workers"),
        ("0", "3", "--workers"),
        (None, "0", "MULTIWAY_WORKERS"),
        (None, "-2", "MULTIWAY_WORKERS"),
    ],
)
def test_mc_refuses_nonpositive_worker_counts(flag, env, source, tmp_path, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("MULTIWAY_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MULTIWAY_WORKERS", env)
    config = tmp_path / "mc.json"
    write_json(config, MC)
    argv = ["mc", "--config", str(config), "--out", str(tmp_path / "r")]
    if flag is not None:
        argv += ["--workers", flag]
    assert main(argv) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith(f"error: {source}: ")
    assert not (tmp_path / "r.json").exists()


def test_mc_flag_overrides_a_nonpositive_environment_value(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTIWAY_WORKERS", "0")
    config = tmp_path / "mc.json"
    write_json(config, MC)
    argv = ["mc", "--config", str(config), "--workers", "1", "--out", str(tmp_path / "r")]
    assert main(argv) == 0
