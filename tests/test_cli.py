import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from adicop import cli, coding, dyadic, entropy, filtration, graph, measures
from adicop.measures import MSigmaSampler, OmegaSigmaSampler

ROOT = Path(__file__).resolve().parent.parent


def run(argv):
    return cli.main(argv)


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOracle:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(v == "pass" for v in report["checks"].values())
        assert report["failures"] == {}

    def test_depth_limit_refused(self, capsys):
        assert run(["oracle", "--depth", "9"]) == 2

    @pytest.mark.parametrize("depth", ["-1", "5"])
    def test_depth_rejected_before_any_check(self, monkeypatch, capsys,
                                             depth):
        _no_draws(monkeypatch)
        assert run(["oracle", "--depth", depth]) == 2
        assert "depth" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", range(5))
    def test_every_depth_passes(self, tmp_path, capsys, depth):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--depth", str(depth), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["checks"].values()) == {"pass"}

    @pytest.mark.parametrize("depth", range(cli.RANGES["depth"][1] + 1))
    def test_probe_label_values_are_distinct(self, depth):
        # numpy wraps uint8 silently: past depth 8 the probe would repeat
        # values and stop standing for every label
        for x in cli._probe_paths(depth):
            assert len(set(x.top.label.tolist())) == 1 << depth


def _relabel_kappa(monkeypatch, edit, g_min=0):
    """kappa followed, for g >= g_min, by `edit` on a copy of the top label."""
    kappa = graph.kappa

    def broken(g, x):
        y = kappa(g, x)
        if g < g_min:
            return y
        label = y.top.label.copy()
        edit(label)
        return graph.PathPrefix(graph.Vertex(y.depth, label), y.alpha)
    monkeypatch.setattr(graph, "kappa", broken)


def _flip_bit(label):
    label[-1] ^= 1


def _set_two(label):
    label[0] = 2   # not a bit: the path lies outside the coded table


def _diag_keeps_alpha_at_g1(monkeypatch):
    diag = coding.diag

    def broken(g, p):
        if g == 1:   # translate w but skip the tau(g) XOR of the digits
            return coding.CodedPoint(p.w[np.arange(p.w.size) ^ g], p.alpha)
        return diag(g, p)
    monkeypatch.setattr(coding, "diag", broken)


def _diag_keeps_alpha_from_g8(monkeypatch):
    diag = coding.diag

    def broken(g, p):
        if g >= 8:   # translate w but skip a ^ g
            return coding.CodedPoint.from_value(
                p.w[coding.xor_index(p.N, g)], p.a, p.M)
        return diag(g, p)
    monkeypatch.setattr(coding, "diag", broken)


def _psi_drops_fourth_digit(monkeypatch):
    psi = coding.psi

    def broken(x):
        p = psi(x)
        return coding.CodedPoint.from_value(p.w, p.a & ~8, p.M)
    monkeypatch.setattr(coding, "psi", broken)


class TestOraclePower:
    @pytest.mark.parametrize("breakage", [
        lambda mp: _relabel_kappa(mp, _flip_bit),
        lambda mp: _relabel_kappa(mp, _set_two),
        _diag_keeps_alpha_at_g1,
    ], ids=["kappa-flips-top-label-bit", "kappa-leaves-table",
            "diag-skips-tau-at-g1"])
    def test_broken_intertwining_fails(self, monkeypatch, capsys, tmp_path,
                                       breakage):
        breakage(monkeypatch)
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["checks"]["group-action-diagram"] == "fail"
        assert set(report["failures"]) == {"group-action-diagram"}
        assert "Traceback" not in capsys.readouterr().err

    # each fault shows only at depth 4: the checks run at the depth the
    # report names
    @pytest.mark.parametrize("breakage, failing", [
        (_diag_keeps_alpha_from_g8, {"group-action-diagram"}),
        (_psi_drops_fourth_digit, {"psi-bijection", "group-action-diagram"}),
        (lambda mp: _relabel_kappa(mp, _flip_bit, g_min=8),
         {"group-action-diagram"}),
    ], ids=["diag-skips-xor-from-g8", "psi-drops-fourth-digit",
            "kappa-flips-label-bit-from-g8"])
    def test_depth_4_only_fault_fails_depth_4(self, monkeypatch, capsys,
                                               tmp_path, breakage, failing):
        breakage(monkeypatch)
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--depth", "3"]) == 0
        assert run(["oracle", "--depth", "4", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        failed = {k for k, v in report["checks"].items() if v == "fail"}
        assert failed == set(report["failures"]) == failing


def _straight_child_swap(C):
    """child_swap that never crosses the children: the straight matching."""
    while C.shape[-1] > 1:
        a, b = C[..., 0::2, :], C[..., 1::2, :]
        C = a[..., 0::2] + b[..., 1::2]
    return C[..., 0, 0]


class TestOracleKantorovich:
    def test_straight_matching_fails(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--depth", "1", "--out", str(out)]) == 0
        monkeypatch.setattr(filtration, "child_swap", _straight_child_swap)
        assert run(["oracle", "--depth", "1", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["checks"]["kantorovich-bruteforce"] == "fail"
        assert set(report["failures"]) == {"kantorovich-bruteforce"}

    def test_float_leaves_give_the_array_values(self, monkeypatch):
        # the oracle's leaves are the seed-0 draws as floats; its L1 sums
        # them left to right, as numpy sums three floats, so both the
        # recursion and the brute force read the same bits as on arrays
        class ArrayL1(filtration.Semimetric):
            def dist(self, x, y):
                return float(np.abs(x - y).sum())

        seen, kantorovich = [], filtration.kantorovich

        def record(rho, t1, t2):
            seen.append((rho, t1, t2))
            return kantorovich(rho, t1, t2)
        monkeypatch.setattr(filtration, "kantorovich", record)
        assert cli._check_kantorovich_oracle(0) is None
        rng = np.random.default_rng(0)
        assert len(seen) == 9
        for (rho, t1, t2), n in zip(seen, [1] * 3 + [2] * 3 + [3] * 3):
            a1, a2 = ([rng.random(3) for _ in range(1 << n)] for _ in "12")
            assert np.array_equal(t1.leaves + t2.leaves, a1 + a2)
            assert {type(v) for x in t1.leaves + t2.leaves for v in x} == \
                {float}
            s1, s2 = (filtration.OrbitTree(n, a) for a in (a1, a2))
            assert filtration.leaf_costs(rho, t1, t2).tobytes() == \
                filtration.leaf_costs(ArrayL1(), s1, s2).tobytes()
            for fn in (kantorovich, filtration.kantorovich_bruteforce):
                assert fn(rho, t1, t2) == fn(ArrayL1(), s1, s2)


class TestOracleOrbitSizes:
    def test_inexact_size_fails(self, monkeypatch, tmp_path, capsys):
        # 16 at m = 3 keeps within the wreath bound 2 * 4 * 4, but the
        # exact maximal orbit has 32 trees
        exact = filtration.max_orbit_size
        monkeypatch.setattr(filtration, "max_orbit_size",
                            lambda m, q: 16 if m == 3 else exact(m, q))
        out = tmp_path / "oracle.json"
        assert run(["oracle", "--depth", "0", "--out", str(out)]) == 1
        assert set(json.loads(out.read_text())["failures"]) == {"orbit-sizes"}


class TestOracleCost:
    def test_group_diagram_rechecks_no_digits(self, monkeypatch):
        # kappa, psi and diag act on packed digit values: the 16 probe
        # paths x 16 g at depth 4 are checked with no digit check and no
        # tau(g) digits on the way
        calls = dict.fromkeys(("check_bits", "tau", "kappa", "diag"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for module in (graph, coding):
            monkeypatch.setattr(module, "check_bits",
                                counted("check_bits", dyadic.check_bits))
        tau = counted("tau", dyadic.tau)
        for module in (dyadic, coding):
            monkeypatch.setattr(module, "tau", tau, raising=False)
        monkeypatch.setattr(graph, "kappa", counted("kappa", graph.kappa))
        monkeypatch.setattr(coding, "diag", counted("diag", coding.diag))
        assert cli._check_group_diagram(4) is None
        assert calls == {"check_bits": 0, "tau": 0, "kappa": 256, "diag": 256}


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


BAD_EPS = ["0", "-1", "-0.25", "nan", "inf", "0.25 0", "", "0.25 0.25"]


def _refuse(*args, **kwargs):
    raise AssertionError("sample drawn before the input was validated")


def _no_draws(monkeypatch):
    # no generator exists and no base draws before validation ends, sampler
    # construction included
    monkeypatch.setattr(cli, "run_shards", _refuse)
    monkeypatch.setattr(cli.measures, "draw_sharded", _refuse)
    monkeypatch.setattr(cli.measures, "MSigmaSampler", _refuse)
    monkeypatch.setattr(cli.measures, "OmegaSigmaSampler", _refuse)
    monkeypatch.setattr(cli.measures, "project_theta", _refuse)
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    monkeypatch.setattr(cli.measures.ToeplitzBase, "draw", _refuse)


def test_samplers_build_without_drawing(monkeypatch):
    # so `classify` can read the kmax bound off the sampler it builds
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    M = cli.DEFAULTS["classify"]["M"]
    Ms = [cli.build_sampler(spec, M).M
          for spec in _script("classify_zoo").SPECS.values()]
    assert Ms == [M, M, measures.ToeplitzBase().R]
    for mode, scales in [("d", [2, 3]), ("z", [4, 8]), ("filtration", [3, 4])]:
        entropy.curve_sampler(mode, (1,) * 4, scales, (0.25,), 100, 1)


@pytest.mark.parametrize("sigma", [(2,), (1, -1)])
def test_library_refuses_a_sigma_of_non_bits(monkeypatch, sigma):
    # the library checks sigma itself, not only the CLI's parse_sigma
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    for build in (lambda: MSigmaSampler(sigma, 1),
                  lambda: OmegaSigmaSampler(sigma, 2, 2),
                  lambda: entropy.curve_sampler("d", sigma, [2, 3], (0.25,),
                                                50),
                  lambda: dyadic.coset_count(sigma, 3)):
        with pytest.raises(ValueError, match="not all bits"):
            build()


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


BAD_SCALES = [  # (command, flags, name the message must carry)
    ("scaling", ["--samples", "0"], "samples"),
    ("scaling", ["--samples", "-5"], "samples"),
    ("entropy", ["--samples", "0"], "samples"),
    ("scaling", ["--scales", "4"], "scales"),
    ("scaling", ["--scales", ""], "scales"),
    ("scaling", ["--scales", "-1 3"], "scale -1"),
    # a constant or falling list would read as a flat, passing curve
    ("scaling", ["--mode", "d", "--sigma", "1", "--scales", "2 2 2",
                 "--samples", "30"], "scales"),
    ("scaling", ["--mode", "d", "--sigma", "1", "--scales", "5 4 3",
                 "--samples", "30"], "scales"),
    ("scaling", ["--scales", "3 21"], "scale 21"),
    ("scaling", ["--mode", "filtration", "--scales", "3 21"], "scale 21"),
    ("scaling", ["--mode", "filtration", "--scales", "1 3"], "scale 1"),
    ("scaling", ["--mode", "filtration", "--k", "-1"], "k must"),
    ("scaling", ["--mode", "filtration", "--k", "7", "--scales", "8 9"],
     "k must"),
    ("scaling", ["--mode", "d", "--k", "99", "--scales", "2 3"], "k must"),
    ("scaling", ["--mode", "z", "--k", "-5", "--scales", "2 4"], "k must"),
    ("scaling", ["--mode", "z", "--scales", "4 2097152"], "scale 2097152"),
    ("scaling", ["--mode", "z", "--scales", "0 4"], "scale 0"),
    ("entropy", ["--scale", "-1"], "scale -1"),
    ("entropy", ["--scale", "21"], "scale 21"),
    ("entropy", ["--mode", "z", "--scale", "0"], "scale 0"),
    ("entropy", ["--mode", "z", "--scale", "-4"], "scale -4"),
    ("entropy", ["--mode", "z", "--scale", "2097152"], "scale 2097152"),
]


@pytest.mark.parametrize("command,flags,name", BAD_SCALES,
                         ids=[f"{c} {' '.join(f)}" for c, f, _ in BAD_SCALES])
def test_bad_scales_rejected_before_drawing(monkeypatch, capsys, command,
                                            flags, name):
    _no_draws(monkeypatch)
    assert run([command, *flags]) == 2
    assert name in capsys.readouterr().err


PRODUCT, APERIODIC = "product bernoulli 0.5", "aperiodic toeplitz alpha=0000"
BAD_CLASSIFY = [  # (specs, flags, name the message must carry)
    ((PRODUCT, APERIODIC), ["--n-accept", "0"], "n-accept"),
    ((PRODUCT, APERIODIC), ["--n-accept", "-3"], "n-accept"),
    # kmax lies below the digit resolution: --M for product and periodic
    # specs, the 24 Toeplitz digits for the aperiodic one
    ((PRODUCT,), ["--kmax", "9", "--M", "8"], "kmax"),
    ((PRODUCT,), ["--kmax", "8", "--M", "8"], "kmax"),
    ((APERIODIC,), ["--kmax", "24"], "kmax"),
    ((APERIODIC,), ["--kmax", "30", "--M", "40"], "kmax"),
    ((PRODUCT, APERIODIC), ["--kmax", "-1"], "kmax"),
    # M lies in [1, 62] for every spec, the aperiodic one included
    ((PRODUCT, APERIODIC), ["--M", "0"], "M must"),
    ((PRODUCT, APERIODIC), ["--M", "-3"], "M must"),
    ((PRODUCT, APERIODIC), ["--M", "63"], "M must"),
    ((PRODUCT, APERIODIC), ["--tol", "-1"], "tol"),
    ((PRODUCT, APERIODIC), ["--tol", "nan"], "tol"),
    ((PRODUCT, APERIODIC), ["--tol", "inf"], "tol"),
    ((PRODUCT, APERIODIC), ["--cyl-len", "0"], "cyl-len"),
    ((PRODUCT, APERIODIC), ["--cyl-len", "21"], "cyl-len"),
    ((PRODUCT, APERIODIC), ["--cyl-len", "40"], "cyl-len"),
]
REPEATED_KEY = {"periodic k=2 period8 k=3": "k",
                "periodic period8 period=16": "period",
                "aperiodic toeplitz alpha=1 alpha=0": "alpha"}
CLASSIFY_CASES = [(spec, flags, name) for specs, flags, name in BAD_CLASSIFY
                  for spec in specs]


class TestBadClassify:
    @pytest.mark.parametrize(
        "spec,flags,name", CLASSIFY_CASES,
        ids=[f"{' '.join(flags)}-{spec}" for spec, flags, _ in CLASSIFY_CASES])
    def test_rejected_before_drawing(self, monkeypatch, capsys, spec, flags,
                                     name):
        _no_draws(monkeypatch)
        assert run(["classify", "--spec", spec, *flags]) == 2
        assert name in capsys.readouterr().err

    def test_aperiodic_kmax_bounded_by_its_resolution(self, capsys):
        # the aperiodic sampler resolves 24 digits whatever --M says
        assert run(["classify", "--spec", APERIODIC, "--kmax", "9",
                    "--n-accept", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["tv_ladder"]) == 10
        assert report["config"]["M"] == 8

    @pytest.mark.parametrize("spec,flags", [
        ("product bernoulli abc", []), ("product bernoulli 2", []),
        ("periodic k=x", []), ("periodic k=-1", []),
        ("periodic period0", []), ("periodic k=3", ["--M", "2", "--kmax", "0"]),
        ("aperiodic toeplitz alpha=0x1", []), ("aperiodic", []),
        ("product", []),
        # would build a word of 2**40 symbols before the range checks
        ("periodic k=40", []), ("periodic k=40", ["--M", "62"]),
        ("periodic period2097152", []),
        ("aperiodic toeplitz alpha=2", []),
        # unknown keys and stray tokens, named in the error
        ("periodic k=2 perod=8", []), ("aperiodic toeplitz alhpa=1", []),
        ("periodic k=2 period8 fast", []),
        # a key given twice, in either spelling, is named in the error
        *((spec, []) for spec in REPEATED_KEY)])
    def test_malformed_spec(self, monkeypatch, capsys, spec, flags):
        _no_draws(monkeypatch)
        assert run(["classify", "--spec", spec, *flags]) == 2
        err = capsys.readouterr().err
        assert "spec" in err
        for tok in ("perod=8", "alhpa=1", "fast"):
            assert (f"unknown token {tok!r}" in err) == (tok in spec.split())
        repeated = REPEATED_KEY.get(spec)
        assert ("repeated key" in err) == (repeated is not None)
        if repeated:
            assert f"repeated key {repeated!r}" in err

    def test_edges_accepted(self, capsys):
        assert run(["classify", "--kmax", "7", "--M", "8", "--tol", "0",
                    "--cyl-len", "1", "--n-accept", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["tv_ladder"]) == 8
        assert run(["classify", "--M", "62", "--cyl-len", "20",
                    "--n-accept", "4", "--kmax", "0"]) == 0


class TestClassify:
    def test_product_verdict_0(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["classify", "--spec", "product bernoulli 0.5",
                    "--n-accept", "50000", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == 0
        assert len(report["tv_ladder"]) == report["config"]["kmax"] + 1

    def test_periodic_type_far_above_the_window(self, capsys):
        # a type-40 draw shifts each row's base state instead of rendering
        # 2**40 columns per row
        assert run(["classify", "--spec", "periodic k=40 period=8",
                    "--M", "62", "--kmax", "2", "--n-accept", "200"]) == 0
        assert len(json.loads(capsys.readouterr().out)["tv_ladder"]) == 3

    @pytest.mark.parametrize("spec,k,period", [
        ("periodic k=0", 0, 1), ("periodic k=2 period=24", 2, 24),
        ("periodic k=3 period=12", 3, 12), ("periodic k=5 period8", 5, 8)])
    def test_periodic_base(self, spec, k, period):
        # the word repeated to the period, and the shifts a multiple of
        # gcd(2**k, period) apart, as built one Python step per position
        base = cli.build_sampler(spec, 8).base
        step = math.gcd(1 << k, period)
        word = [cli.PERIOD8_WORD[i % 8] for i in range(period)]
        shifts = sorted(range(0, period, step))
        assert base.word.tolist() == word
        assert base.shifts.tolist() == shifts
        assert base.invariant_period == math.gcd(
            *(b - a for a, b in zip(shifts, shifts[1:])), period)

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reproduces_committed_results(self, tmp_path, capsys, seed):
        # the specs and seeds of scripts/classify_zoo.py, version line aside
        zoo = _script("classify_zoo")
        version = re.compile(r'\s*"version": .*\n')
        for name, measure in zoo.SPECS.items():
            out = tmp_path / f"{name}.json"
            assert run(["classify", "--spec", measure, "--seed", str(seed),
                        "--out", str(out)]) == 0
            want = ROOT / "results" / f"classify_{name}_seed{seed}.json"
            assert (version.sub("", out.read_text())
                    == version.sub("", want.read_text()))

    def exact_tables(self, name, L, kmax, M):
        """theta_0 .. theta_{kmax + 1} of a `classify_zoo` spec from its
        finite law: the product's window is L fair bits whatever the digits;
        the periodic type-2 law is uniform over j < 4, the shifts 0 and 4
        of PERIOD8_WORD and the upper digits, with alpha = j + 4 * upper
        and the window at -L .. -1 read from S^(j + shift)."""
        tables = []
        for k in range(kmax + 2):
            counts = np.ones(1 << L) if name == "product" else np.zeros(1 << L)
            atoms = [] if name == "product" else itertools.product(
                range(4), (0, 4), range(1 << (M - 2)))
            for j, shift, upper in atoms:
                if (j + 4 * upper) % (1 << k) == 0:
                    counts[sum(cli.PERIOD8_WORD[(j + shift + pos) % 8] << i
                               for i, pos in enumerate(range(-L, 0)))] += 1
            tables.append(measures.CylinderTable(counts, L))
        return tables

    @pytest.mark.parametrize("name,exact", [
        ("product", [0.0] * 5), ("periodic2", [0.5, 0.5, 0.0, 0.0, 0.0])])
    def test_committed_ladders_near_the_exact_ladder(self, name, exact):
        # the exact ladder at the classify defaults gives the committed
        # verdict, and every committed ladder lies within 4x the TV noise
        # floor sqrt(2**L / (pi n)) between two tables of n rows, 0.057.
        # The aperiodic ladder needs all 2**24 odometer values and is not
        # checked here.
        d = cli.DEFAULTS["classify"]
        L, kmax, n = d["cyl_len"], d["kmax"], d["n_accept"]
        report = measures.theta_verdict(
            self.exact_tables(name, L, kmax, d["M"]), d["tol"], n)
        assert report["tv_ladder"] == exact
        bound = 4 * math.sqrt((1 << L) / (math.pi * n))
        for seed in range(3):
            committed = json.loads(
                (ROOT / "results" / f"classify_{name}_seed{seed}.json")
                .read_text())
            assert committed["verdict"] == report["verdict"]
            assert np.all(np.abs(np.subtract(committed["tv_ladder"], exact))
                          <= bound)


def _library_curve(mode, sigma, scales, n_samples):
    """The library wrapper of a mode on the sampler the CLI builds, at the
    CLI's default k, eps 0.25 and seed 0."""
    if mode == "d":
        return entropy.scaling_curve_d(MSigmaSampler(sigma, max(scales)),
                                       scales, (0.25,), n_samples, 0)
    if mode == "z":
        M = max(scales).bit_length() - 1
        return entropy.scaling_curve_z(OmegaSigmaSampler(sigma, M, M),
                                       scales, (0.25,), n_samples, 0)
    return filtration.filtration_scaling(
        sigma, cli.DEFAULTS["scaling"]["k"], scales, 0.25, n_samples, 0)


SRC_LINES_MAX = 2061  # src/ below the seed's 2128 lines; lower it as src/ shrinks


def test_src_line_count():
    lines = sum(len(p.read_text().splitlines())
                for p in (ROOT / "src" / "adicop").glob("*.py"))
    assert lines <= SRC_LINES_MAX


def test_src_names_every_byte_order():
    # int.to_bytes and int.from_bytes default to "big" only from Python
    # 3.11; src/ supports 3.10, where a call without the byte order raises
    import ast
    bare = [f"{p.name}:{node.lineno}"
            for p in (ROOT / "src" / "adicop").glob("*.py")
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("to_bytes", "from_bytes")
            and len(node.args) < 2
            and "byteorder" not in {k.arg for k in node.keywords}]
    assert bare == []


@pytest.mark.parametrize("regime", ["ones", "alternating", "zeros"])
@pytest.mark.parametrize("mode", ["d", "z", "filtration"])
def test_reproduces_committed_scaling(tmp_path, capsys, mode, regime):
    # one run of scripts/scaling_sweep.py at seed 0, version line aside,
    # from the CLI and from the library wrapper
    sweep = _script("scaling_sweep")
    sigma = sweep.REGIMES[regime]
    if mode == "filtration":
        sigma += sigma[0]
    run_cfg = dict(sweep.RUNS)[mode]
    out = tmp_path / "curve.csv"
    argv = ["scaling", "--mode", mode, "--sigma", sigma, "--eps", "0.25",
            "--seed", "0", "--out", str(out)]
    for key, val in run_cfg.items():
        argv += [f"--{key}", val]
    assert run(argv) == 0
    want = ROOT / "results" / f"scaling_{mode}_{regime}.csv"
    version = re.compile(r"# version = .*\n")
    assert version.sub("", out.read_text()) == version.sub("", want.read_text())

    lib = tmp_path / "library.csv"
    _library_curve(mode, cli.parse_sigma(sigma),
                   cli.parse_list(run_cfg["scales"], int),
                   int(run_cfg["samples"])).to_csv(lib)
    assert _csv_rows(lib) == _csv_rows(want)


USAGE_ERRORS = {  # name: argv, given a directory for a config file
    "no subcommand": lambda tmp: [],
    "unknown flag": lambda tmp: ["scaling", "--bogus", "1"],
    "bad choice": lambda tmp: ["scaling", "--mode", "q"],
    "bad int flag": lambda tmp: ["scaling", "--samples", "many"],
    "bad int in config": lambda tmp: ["scaling", "--config",
                                      _config(tmp, "samples = many\n")],
    "abbreviated config key": lambda tmp: ["scaling", "--config",
                                           _config(tmp, "sam = 300\n")],
}


def _config(tmp, text):
    path = tmp / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_one_usage_error_path(monkeypatch, capsys, tmp_path, name):
    _no_draws(monkeypatch)
    assert run(USAGE_ERRORS[name](tmp_path)) == 2  # returned, no SystemExit
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


CONFIG_KEYS = {  # command: the keys its output echoes under "config"
    "oracle": ["command", "depth", "seed"],
    "scaling": ["command", "eps", "k", "mode", "samples", "scales", "seed",
                "sigma"],
    "classify": ["M", "command", "cyl_len", "kmax", "n_accept", "seed",
                 "spec", "tol"],
    "entropy": ["command", "eps", "mode", "samples", "scale", "seed",
                "sigma"],
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _options(command):
    return vars(cli.build_parser().parse_args([command]))


class TestOptionTable:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_defaults_are_flags_typed_as_the_default(self, command):
        parser = cli.build_parser()
        table = {**cli.DEFAULTS["common"], **cli.DEFAULTS[command]}
        assert {k: _options(command)[k] for k in table} == table
        for key, val in table.items():
            got = getattr(parser.parse_args([command, _flag(key), str(val)]),
                          key)
            assert got == val and type(got) is type(val)

    def test_flag_types_refuse_other_numbers(self, monkeypatch, capsys):
        assert cli.build_parser().parse_args(
            ["classify", "--tol", "0.5"]).tol == 0.5
        _no_draws(monkeypatch)
        for argv in (["scaling", "--samples", "2.5"],
                     ["classify", "--kmax", "1.5"]):
            assert run(argv) == 2
            assert argv[1] in capsys.readouterr().err

    def test_every_range_is_a_flag(self):
        flags = set().union(*map(_options, cli.COMMANDS))
        assert set(cli.RANGES) <= flags

    @pytest.mark.parametrize("argv", [
        ["oracle", "--depth", "0"],
        ["scaling", "--sigma", "11", "--scales", "1 2", "--samples", "50"],
        ["classify", "--n-accept", "4", "--kmax", "0"],
        ["entropy", "--sigma", "11", "--scale", "2", "--samples", "50"]],
        ids=list(CONFIG_KEYS))
    def test_echoed_config_keys(self, capsys, argv):
        assert run(argv) in (0, 1)
        report = json.loads(capsys.readouterr().out)
        assert sorted(report["config"]) == CONFIG_KEYS[argv[0]]
        assert report["version"] == cli.version_string()

    @pytest.mark.parametrize("key", cli.RANGES)
    def test_range_edges(self, monkeypatch, capsys, key):
        # the edges reach the command; one step past either edge exits 2
        # before it, naming the flag and its bound
        command = next(c for c in cli.COMMANDS if key in _options(c))
        ran = []
        monkeypatch.setattr(cli, "COMMANDS", {
            name: lambda args, cfg: ran.append(args) or 0
            for name in cli.COMMANDS})
        lo, hi = cli.RANGES[key]
        edges = [v for v in (lo, hi) if v is not None]
        for val in edges:
            assert run([command, _flag(key), str(val)]) == 0
        assert [getattr(args, key) for args in ran] == edges
        past = [(lo - 1, lo)] + ([] if hi is None else [(hi + 1, hi)])
        for val, bound in past:
            assert run([command, _flag(key), str(val)]) == 2
            err = capsys.readouterr().err
            assert f"error: {_flag(key)[2:]} must" in err and str(bound) in err
        assert len(ran) == len(edges)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["scaling", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


class TestExitCodes:
    def test_internal_error_is_3_without_traceback(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise KeyError("boom")
        monkeypatch.setattr(cli, "scaling_curve", crash)
        assert run(["entropy", "--scale", "3", "--samples", "50"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "boom" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_config_value_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = many\n")
        assert run(["scaling", "--config", str(cfg)]) == 2
        assert "samples" in capsys.readouterr().err

    def test_config_not_utf8_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = \xff\xfe\n")
        assert run(["oracle", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err
        assert err.count("\n") == 1 and "internal error" not in err

    def test_bad_seed_is_usage(self, monkeypatch, capsys):
        _no_draws(monkeypatch)
        assert run(["entropy", "--seed", "-1"]) == 2
        monkeypatch.setenv(cli.SEED_ENV, "x")
        assert run(["entropy"]) == 2
        assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "scaling", "classify",
                                     "entropy"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_refused_before_any_work(monkeypatch, capsys,
                                                   command, workers):
    # such values used to run serially; no thread pool is started here
    _no_draws(monkeypatch)
    monkeypatch.setattr(cli, "COMMANDS", {
        name: lambda *a: pytest.fail("work started") for name in cli.COMMANDS})
    assert run([command, "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers" in err


def _csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("mode,scale,scales", [("d", "5", "4 5"),
                                               ("z", "8", "4 8")])
def test_entropy_is_one_row_of_scaling(tmp_path, capsys, mode, scale, scales):
    common = ["--mode", mode, "--sigma", "1011", "--eps", "0.25",
              "--samples", "300", "--seed", "7"]
    out = tmp_path / "curve.csv"
    assert run(["scaling", *common, "--scales", scales,
                "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    assert run(["entropy", *common, "--scale", scale]) == 0
    bits = json.loads(capsys.readouterr().out)["bits"]
    row = next(r for r in _csv_rows(out) if r[0] == scale)
    assert row[1:] == ["0.25", f"{bits:.6f}", "300", "7"]


def test_version_string_runs_git_once(monkeypatch):
    calls = []
    real = subprocess.run

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    cli.version_string.cache_clear()
    monkeypatch.setattr(cli.subprocess, "run", counting)
    first = cli.version_string()
    assert all(cli.version_string() == first for _ in range(3))
    assert len(calls) == 1
    cli.version_string.cache_clear()


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


class TestBenchScript:
    def test_cached_bytecode(self, tmp_path):
        bench = _script("bench")
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("")
        assert not bench.cached_bytecode(tmp_path)
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"")
        assert bench.cached_bytecode(tmp_path)

    @pytest.mark.parametrize("flags,warned", [
        ((False, False), False), ((True, True), False),
        ((True, False), True), ((False, True), True)])
    def test_warns_when_checkouts_differ(self, capsys, flags, warned):
        bench = _script("bench")
        bench.warn_bytecode({name: {"cached_bytecode": f} for name, f
                             in zip(("parent", "change"), flags)})
        assert ("cached bytecode" in capsys.readouterr().err) == warned

    def test_paired_ratios(self, monkeypatch, tmp_path, capsys):
        # change / parent per seed: wall_s reads 0.5, 1.0 and 2.0 times
        # the parent's over seeds 3, 1 and 2, cpu_s always 0.9 times
        bench = _script("bench")
        ratio = {1: 1.0, 2: 2.0, 3: 0.5}

        def fake_bench(path, workload, seed, trace):
            scale = ratio[seed] if path == "c" else 1.0
            return {"load1": 0.1, "details": {}, "result": {
                "correct": True, "metrics": {
                "wall_s": {"value": 0.2 * scale},
                "cpu_s": {"value": 0.3 * (0.9 if path == "c" else 1.0)}}}}

        monkeypatch.setattr(bench, "bench", fake_bench)
        monkeypatch.setattr(bench, "git", lambda *args: "rev")
        monkeypatch.setattr(bench, "cached_bytecode", lambda path: False)
        monkeypatch.setattr(bench, "ROOT", tmp_path)
        monkeypatch.setattr(sys, "argv", [
            "bench.py", "--tag", "t", "--workloads", "growth-d", "growth-z",
            "--seeds", "3", "1", "2", "--checkout", "parent=p",
            "--checkout", "change=c"])
        bench.main()
        paired = json.loads((tmp_path / "BENCH_t.json").read_text())["paired"]
        assert set(paired) == {"growth-d", "growth-z"}
        wall, cpu = paired["growth-d"]["wall_s"], paired["growth-z"]["cpu_s"]
        assert wall == {"median": 1.0, "q1": 0.75, "q3": 1.5, "pairs": 3,
                        "lower": 1}
        assert cpu["median"] == pytest.approx(0.9) and cpu["lower"] == 3
        out = capsys.readouterr().out
        assert "growth-d wall_s: change/parent median 1.000 [0.750, 1.500]" \
            ", lower in 1 of 3" in out

    def test_no_ratio_to_a_zero(self, capsys):
        # a traced count may read 0: seeds where the first checkout reads 0
        # give no ratio but are counted, and a count that the second
        # checkout reads nonzero there is kept and flagged
        bench = _script("bench")
        value = {("p", 1): 0, ("c", 1): 3, ("p", 2): 4, ("c", 2): 2}
        fired = {("p", 1): 0, ("c", 1): 5, ("p", 2): 0, ("c", 2): 0}
        runs = [{"checkout": name, "workload": "growth-d", "seed": seed,
                 "result": {"metrics": {"balls": {"value": v},
                                        "saturated": {"value": 0},
                                        "fired": {"value": fired[name, seed]}}}}
                for (name, seed), v in value.items()]
        paired = bench.paired(runs, "p", "c", ["growth-d"])["growth-d"]
        assert paired["balls"] == {"median": 0.5, "q1": 0.5, "q3": 0.5,
                                   "pairs": 1, "lower": 1, "zero_first": 1,
                                   "rose_from_zero": 1}
        assert paired["saturated"] == {"median": None, "q1": None, "q3": None,
                                       "pairs": 0, "lower": 0, "zero_first": 2,
                                       "rose_from_zero": 0}
        assert paired["fired"]["median"] is None
        assert paired["fired"]["rose_from_zero"] == 1
        out = capsys.readouterr().out
        assert "growth-d fired: p reads 0 and c nonzero in 1 of 2 seeds" in out
        assert "growth-d saturated" not in out

    def test_no_pairs_with_one_checkout(self, monkeypatch, tmp_path, capsys):
        bench = _script("bench")
        monkeypatch.setattr(bench, "bench", lambda *args: {
            "load1": 0.1, "details": {},
            "result": {"correct": True, "metrics": {"wall_s": {"value": 0.2}}}})
        monkeypatch.setattr(bench, "git", lambda *args: "rev")
        monkeypatch.setattr(bench, "cached_bytecode", lambda path: False)
        monkeypatch.setattr(bench, "ROOT", tmp_path)
        monkeypatch.setattr(sys, "argv", [
            "bench.py", "--tag", "t", "--workloads", "growth-d",
            "--seeds", "0"])
        bench.main()
        assert "paired" not in json.loads(
            (tmp_path / "BENCH_t.json").read_text())

    @pytest.mark.parametrize("trace", [0, 1])
    def test_passes_the_trace_flag(self, monkeypatch, tmp_path, trace):
        # each run gets the flag, and the file records it; traced runs of
        # two workloads report different layers, each with its own medians
        bench = _script("bench")
        argvs = []

        def fake_run(cmd, **kwargs):
            argvs.append(cmd)
            layer = f"{cmd[cmd.index('--workload') + 1]}.s"
            return subprocess.CompletedProcess(cmd, 0, stdout=(
                '{}\n{"correct": true, "metrics": {"%s": {"value": 1}}}'
                % layer))

        monkeypatch.setattr(bench.subprocess, "run", fake_run)
        monkeypatch.setattr(bench, "git", lambda *args: "rev")
        monkeypatch.setattr(bench, "cached_bytecode", lambda path: False)
        monkeypatch.setattr(bench, "ROOT", tmp_path)
        # the file records the variable as set, or None when unset
        if trace:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        else:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setattr(sys, "argv", [
            "bench.py", "--tag", "t", "--workloads", "growth-d", "growth-z",
            "--seeds", "5", "--trace", str(trace)])
        bench.main()
        assert argvs == [[sys.executable, "perfbench/run.py", "--workload",
                          w, "--seed", "5", "--seconds", str(bench.SECONDS),
                          "--trace", str(trace)]
                         for w in ("growth-d", "growth-z")]
        record = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert record["trace"] == trace
        assert record["OPENBLAS_NUM_THREADS"] == ("1" if trace else None)
        assert record["medians"] == {w: {"this": {f"{w}.s": 1}}
                                     for w in ("growth-d", "growth-z")}

    @pytest.mark.parametrize("differs,timed", [
        (None, False), ("src", False), ("tests", True), ("perfbench", True)])
    def test_times_tier1_when_tests_differ(self, monkeypatch, tmp_path,
                                           differs, timed):
        # the Tier-1 suite runs once per checkout, after the benchmark runs,
        # only when the checkouts' tests/ or perfbench/ trees differ
        bench = _script("bench")
        calls = []

        def fake_git(path, *args):
            return f"{path}-tree" if args[-1] == f"HEAD:{differs}" else "rev"

        def fake_tier1(path):
            calls.append(("tier1", path))
            return {"wall_s": 30.0, "summary": "1 passed"}

        def fake_bench(path, workload, seed, trace):
            calls.append(("bench", path))
            return {"load1": 0.1, "details": {}, "result": {
                "correct": True, "metrics": {"wall_s": {"value": 0.2}}}}

        monkeypatch.setattr(bench, "bench", fake_bench)
        monkeypatch.setattr(bench, "tier1", fake_tier1)
        monkeypatch.setattr(bench, "git", fake_git)
        monkeypatch.setattr(bench, "cached_bytecode", lambda path: False)
        monkeypatch.setattr(bench, "ROOT", tmp_path)
        monkeypatch.setattr(sys, "argv", [
            "bench.py", "--tag", "t", "--workloads", "growth-d",
            "--seeds", "1", "2", "--checkout", "parent=p",
            "--checkout", "change=c"])
        bench.main()
        record = json.loads((tmp_path / "BENCH_t.json").read_text())
        runs = [("bench", "p"), ("bench", "c"), ("bench", "c"), ("bench", "p")]
        assert calls == runs + ([("tier1", "p"), ("tier1", "c")] if timed
                                else [])
        assert ("tier1" in record) == timed
        if timed:
            assert record["tier1"]["change"] == {"wall_s": 30.0,
                                                 "summary": "1 passed"}
        assert {record["checkouts"][name][f"{d}_tree"]
                for name in ("parent", "change")
                for d in ("src", "tests", "perfbench")} == (
            {"rev", "p-tree", "c-tree"} if differs else {"rev"})

    def test_tier1_runs_the_checkouts_suite(self, tmp_path):
        bench = _script("bench")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "probe_mod.py").write_text("VALUE = 3\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_probe.py").write_text(
            "import probe_mod\n\n\ndef test_probe():\n"
            "    assert probe_mod.VALUE == 3\n")
        record = bench.tier1(tmp_path)
        assert record["returncode"] == 0 and record["wall_s"] > 0
        assert record["summary"].startswith("1 passed")
        assert set(record) == {"load1", "wall_s", "returncode", "summary"}

    def test_records_the_load_before_each_run(self):
        bench = _script("bench")
        calls = []

        def getloadavg():
            calls.append("load")
            return (2.5, 1.0, 0.5)

        def fake_run(cmd, **kwargs):
            calls.append("run")
            assert kwargs["cwd"] == "parent"
            return subprocess.CompletedProcess(
                cmd, 0, stdout='{"details": 1}\n{"correct": true}\n')

        with mock.patch.object(bench.os, "getloadavg", getloadavg), \
                mock.patch.object(bench.subprocess, "run", fake_run):
            record = bench.bench("parent", "growth-d", 3, 0)
        assert calls == ["load", "run"]
        assert record == {"load1": 2.5, "details": {"details": 1},
                          "result": {"correct": True}}
