import json
import os
import subprocess
import sys

import pytest

from adicop import cli


def run(argv):
    return cli.main(argv)


class TestOracle:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(v == "pass" for v in report["checks"].values())
        assert report["failures"] == {}

    def test_depth_limit_refused(self, capsys):
        assert run(["oracle", "--depth", "9"]) == 2


class TestScaling:
    def test_d_mode_pass(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run(["scaling", "--mode", "d", "--sigma", "111111",
                    "--scales", "2 3 4 5 6", "--eps", "0.25",
                    "--samples", "500", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# version = ")
        assert "# sigma = 111111" in text
        assert "scale,eps,bits,samples,seed" in text

    def test_verdict_json_on_stdout(self, capsys):
        code = run(["scaling", "--mode", "d", "--sigma", "000000",
                    "--scales", "2 3 4", "--eps", "0.25", "--samples", "200"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"]["0.25"]["pass"]

    def test_workers_byte_identical(self, tmp_path):
        outs = []
        for w in ("1", "4"):
            out = tmp_path / f"curve{w}.csv"
            assert run(["scaling", "--mode", "filtration", "--sigma",
                        "10101010", "--k", "1", "--scales", "4 5 6",
                        "--eps", "0.25", "--samples", "128",
                        "--workers", w, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_sigma_usage_error(self, capsys):
        assert run(["scaling", "--sigma", "10a1", "--scales", "2 3"]) == 2

    def test_z_mode_nondyadic_scale(self, capsys):
        assert run(["scaling", "--mode", "z", "--sigma", "1111",
                    "--scales", "3 5"]) == 2


BAD_EPS = ["0", "-1", "-0.25", "nan", "inf", "0.25 0", ""]


def _no_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample drawn before eps was validated")
    monkeypatch.setattr(cli, "_gather_w", refuse)
    monkeypatch.setattr(cli, "_gather_omega", refuse)


class TestBadEps:
    @pytest.mark.parametrize("mode", ["d", "z", "filtration"])
    @pytest.mark.parametrize("eps", BAD_EPS)
    def test_scaling_rejects(self, monkeypatch, capsys, mode, eps):
        _no_draws(monkeypatch)
        assert run(["scaling", "--mode", mode, "--sigma", "1111",
                    "--scales", "4 8", "--eps", eps]) == 2

    @pytest.mark.parametrize("mode", ["d", "z"])
    @pytest.mark.parametrize("eps", BAD_EPS + ["0.25 0.5"])
    def test_entropy_rejects(self, monkeypatch, capsys, mode, eps):
        _no_draws(monkeypatch)
        assert run(["entropy", "--mode", mode, "--sigma", "1111",
                    "--scale", "4", "--eps", eps]) == 2

    def test_scaling_eps_zero_exits_promptly(self):
        # a child process with a timeout turns a hang into a failure
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "adicop.cli", "scaling", "--eps", "0"],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2
        assert "eps" in proc.stderr


class TestClassify:
    def test_product_verdict_0(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["classify", "--spec", "product bernoulli 0.5",
                    "--n-accept", "50000", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == 0
        assert len(report["tv_ladder"]) == report["config"]["kmax"] + 1

    def test_workers_byte_identical(self, tmp_path):
        outs = []
        for w in ("1", "4"):
            out = tmp_path / f"c{w}.json"
            assert run(["classify", "--spec", "periodic k=2 period8",
                        "--n-accept", "20000", "--kmax", "3",
                        "--workers", w, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["verdict"] == 2

    def test_unknown_spec(self, capsys):
        assert run(["classify", "--spec", "mystery measure"]) == 2


class TestEntropyCmd:
    def test_single_estimate(self, capsys):
        assert run(["entropy", "--mode", "d", "--sigma", "1111",
                    "--scale", "3", "--eps", "0.25", "--samples", "300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bits"] > 0


class TestConfigPlumbing:
    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = d\nsigma = 1111\nscales = 2 3 4\n"
                       "eps = 0.25\nsamples = 300\nseed = 5\n")
        assert run(["scaling", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 5
        # command line wins over the file
        assert run(["scaling", "--config", str(cfg), "--seed", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 9

    def test_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV, "123")
        assert run(["entropy", "--mode", "d", "--sigma", "111",
                    "--scale", "3", "--eps", "0.5", "--samples", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 123

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux_capacitance = 11\n")
        assert run(["scaling", "--config", str(cfg)]) == 2
