import itertools
import json

import numpy as np
import pytest

from deniable_fit import Dataset, generate_decoy, DistributionSpec, linear_regression_model
from deniable_fit import DeniableFitError, InvalidArguments
from deniable_fit import cli
from deniable_fit.cli import main, parse_distribution, write_model_file
from deniable_fit.deniability import DiscreteUniform, ContinuousUniform, Exponential


def reference_parse_distribution(text: str) -> DistributionSpec:
    """The --dist grammar as an explicit ladder over the entry's words.

    This is the parser the regular expression in ``cli`` replaced, except
    that a repeat count that is not an integer raises InvalidArguments.
    """
    attributes = []
    for raw_entry in text.split(","):
        entry = raw_entry.replace("×", "x").strip()
        if not entry:
            continue
        count = "1"
        parts = entry.split()
        if len(parts) == 3 and parts[1] == "x":
            entry, count = parts[0], parts[2]
        elif len(parts) == 2 and parts[1].startswith("x"):
            entry, count = parts[0], parts[1][1:]
        elif len(parts) == 1:
            entry = parts[0]
            if "x" in entry.split(":")[-1]:
                entry, _, count = entry.rpartition("x")
        else:
            raise InvalidArguments(f"cannot parse distribution entry {raw_entry!r}")
        fields = entry.split(":")
        kind = fields[0].lower()
        try:
            count = int(count)
            if kind == "du" and len(fields) == 3:
                dist = DiscreteUniform(int(fields[1]), int(fields[2]))
            elif kind == "cu" and len(fields) == 3:
                dist = ContinuousUniform(float(fields[1]), float(fields[2]))
            elif kind == "exp" and len(fields) == 2:
                dist = Exponential(float(fields[1]))
            else:
                raise InvalidArguments(f"cannot parse distribution entry {raw_entry!r}")
        except ValueError:
            raise InvalidArguments(f"cannot parse distribution entry {raw_entry!r}") from None
        if count < 1:
            raise InvalidArguments(f"repeat count must be positive in {raw_entry!r}")
        attributes.extend([dist] * count)
    if not attributes:
        raise InvalidArguments(f"no attributes in distribution spec {text!r}")
    return DistributionSpec(tuple(attributes))


def _outcome(parse, text):
    """The attributes parsed from ``text``, or the type of the package error raised."""
    try:
        return parse(text).attributes
    except DeniableFitError as exc:
        return type(exc)


TOKENS = ["du", "cu", "exp", "nu", "DU", "Exp", ""]
ARGS = ["", ":1", ":1:8", ":1:8:9", ":-3:3", ":8:1", ":0:1.5", ":2.5", ":a:b", ":0", ":nan",
        ":0:inf", ":1:", ":", "::", ":1e1_0", ":1x:8"]
REPEATS = ["", " x {}", " x{}", "x{}", " × {}", "×{}", " ×{}", "  x\t{}", "\u00a0x\u00a0{}",
           " X {}", " x {} 2", " y {}", " xx{}", "x {}", " x x{}", "x{}:1", "x{}x"]
COUNTS = ["3", "1", "0", "-2", "+2", "2.5", "ten", "", "1_0", "x", "٣"]
ENTRIES = [tok + arg + rep.format(n)
           for tok, arg, rep, n in itertools.product(TOKENS, ARGS, REPEATS, COUNTS)]


@pytest.fixture
def workspace(tmp_path, rng):
    """A model file plus a craftable decoy CSV."""
    model_path = tmp_path / "model.json"
    decoy_path = tmp_path / "decoy.csv"
    p_star = rng.uniform(-6.0, 6.0, size=6)
    write_model_file(model_path, 5, p_star)
    decoy = generate_decoy(
        DistributionSpec.uniform_ints(1, 8, 5),
        DistributionSpec.uniform_ints(1, 8, 1),
        10,
        seed=77,
    )
    decoy.to_csv(decoy_path)
    return tmp_path, model_path, decoy_path, p_star


class TestCraftAndVerify:
    def test_happy_path(self, workspace, capsys):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        assert main(["craft", str(model_path), str(decoy_path), str(cert_path),
                     "--seed", "5"]) == 0
        assert cert_path.exists()
        payload = json.loads(cert_path.read_text())
        assert payload["schema"] == "denial-cert/3"
        assert payload["seed"] == 5

        assert main(["verify", str(cert_path), str(model_path)]) == 0
        capsys.readouterr()

    def test_verify_reports_and_passes(self, workspace, capsys):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        main(["craft", str(model_path), str(decoy_path), str(cert_path), "--seed", "5"])
        capsys.readouterr()
        assert main(["verify", str(cert_path), str(model_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["max_abs_diff"] <= 5e-3

    def test_craft_deterministic_outputs(self, workspace):
        tmp, model_path, decoy_path, _ = workspace
        a, b = tmp / "a.json", tmp / "b.json"
        assert main(["craft", str(model_path), str(decoy_path), str(a), "--seed", "9"]) == 0
        assert main(["craft", str(model_path), str(decoy_path), str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_fallback(self, workspace, monkeypatch):
        tmp, model_path, decoy_path, _ = workspace
        explicit, via_env = tmp / "explicit.json", tmp / "env.json"
        main(["craft", str(model_path), str(decoy_path), str(explicit), "--seed", "31"])
        monkeypatch.setenv("DENIABLE_FIT_SEED", "31")
        main(["craft", str(model_path), str(decoy_path), str(via_env)])
        assert explicit.read_bytes() == via_env.read_bytes()

    def test_tampered_certificate_exits_1(self, workspace, capsys):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        main(["craft", str(model_path), str(decoy_path), str(cert_path), "--seed", "5"])
        payload = json.loads(cert_path.read_text())
        payload["residual"][0][0] += 1e-3
        cert_path.write_text(json.dumps(payload))
        assert main(["verify", str(cert_path), str(model_path)]) == 1
        assert "CertificateTampered" in capsys.readouterr().err

    def test_perfect_fit_decoy_exits_2(self, workspace, capsys, rng):
        tmp, model_path, _, p_star = workspace
        model = linear_regression_model(5)
        X = rng.uniform(1.0, 8.0, size=(10, 5))
        exact = Dataset(X, model.predict_all(X, p_star))
        exact_path = tmp / "exact.csv"
        exact.to_csv(exact_path)
        cert_path = tmp / "cert.json"
        assert main(["craft", str(model_path), str(exact_path), str(cert_path)]) == 2
        assert "ZeroResidual" in capsys.readouterr().err
        assert not cert_path.exists()

    def test_missing_file_exits_1(self, workspace, capsys):
        tmp, model_path, _, _ = workspace
        assert main(["craft", str(model_path), str(tmp / "nope.csv"), str(tmp / "c.json")]) == 1
        capsys.readouterr()

    def test_malformed_csv_exits_1(self, workspace, capsys):
        tmp, model_path, _, _ = workspace
        bad = tmp / "bad.csv"
        bad.write_text("u,v\n1,2\n")
        assert main(["craft", str(model_path), str(bad), str(tmp / "c.json")]) == 1
        capsys.readouterr()

    def test_model_mismatch_exits_1(self, workspace, capsys, rng):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        main(["craft", str(model_path), str(decoy_path), str(cert_path), "--seed", "5"])
        other_model = tmp / "other.json"
        write_model_file(other_model, 2, rng.normal(size=3))
        assert main(["verify", str(cert_path), str(other_model)]) == 1
        capsys.readouterr()

    def test_nan_tolerance_exits_1(self, workspace, capsys):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        main(["craft", str(model_path), str(decoy_path), str(cert_path), "--seed", "5"])
        assert main(["verify", str(cert_path), str(model_path), "--tolerance", "nan"]) == 1
        assert "InvalidArguments" in capsys.readouterr().err

    def test_nan_zero_tol_exits_1(self, workspace, capsys):
        # craft has no --zero-tol option; like any unknown option it is a usage error.
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        assert main(["craft", str(model_path), str(decoy_path), str(cert_path),
                     "--zero-tol", "nan"]) == 1
        assert "unrecognized arguments: --zero-tol nan" in capsys.readouterr().err
        assert not cert_path.exists()

    def test_usage_errors_exit_1_and_help_exits_0(self, workspace, capsys):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        assert main(["craft", str(model_path), str(decoy_path), str(cert_path),
                     "--zero-tol", "1e-9"]) == 1
        assert main(["verify", str(cert_path), str(model_path), "--tolerance", "abc"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --zero-tol 1e-9" in err
        assert "invalid float value: 'abc'" in err
        assert not cert_path.exists()
        assert main(["craft", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--mae" in out
        assert "--zero-tol" not in out

    def test_repeated_calls_in_one_process(self, workspace, capsys, monkeypatch):
        # main parses with the parser built at import; a call must not leak into the next.
        monkeypatch.setattr(cli, "build_parser", None)
        tmp, model_path, decoy_path, _ = workspace
        mae, plain, again = tmp / "mae.json", tmp / "plain.json", tmp / "again.json"
        assert main(["craft", str(model_path), str(decoy_path), str(mae), "--mae"]) == 0
        assert main(["craft", str(model_path), str(decoy_path), str(plain)]) == 0
        assert json.loads(mae.read_text())["norms"][0]["variant"] == "one_norm"
        assert json.loads(plain.read_text())["norms"][0]["variant"] == "euclidean"
        assert main(["craft", "--help"]) == 0
        assert main(["craft", str(model_path), str(decoy_path), str(again)]) == 0
        assert again.read_bytes() == plain.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_model_parameter_exits_1(self, workspace, capsys, value):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        main(["craft", str(model_path), str(decoy_path), str(cert_path), "--seed", "5"])
        payload = json.loads(model_path.read_text())
        payload["params"][2] = float(value)  # json writes NaN / Infinity
        bad_path = tmp / "bad_model.json"
        bad_path.write_text(json.dumps(payload))
        assert main(["verify", str(cert_path), str(bad_path)]) == 1
        assert main(["craft", str(bad_path), str(decoy_path), str(tmp / "c2.json")]) == 1
        assert capsys.readouterr().err.count("NaN or infinite") == 2

    def test_mae_variant(self, workspace):
        tmp, model_path, decoy_path, _ = workspace
        cert_path = tmp / "cert.json"
        assert main(["craft", str(model_path), str(decoy_path), str(cert_path),
                     "--seed", "5", "--mae"]) == 0
        payload = json.loads(cert_path.read_text())
        assert payload["norms"][0]["variant"] == "one_norm"
        assert main(["verify", str(cert_path), str(model_path)]) == 0


class TestBound:
    def test_explicit_entropy(self, capsys):
        assert main(["bound", "--k-bits", "512", "--entropy-bits", "33", "--n", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deniable"] is False
        assert report["threshold"] == pytest.approx(512 / 33)

    def test_distribution_spec(self, capsys):
        assert main(["bound", "--k-bits", "512", "--dist", "du:1:8 x 10", "--n", "18"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entropy_per_record_bits"] == pytest.approx(30.0)
        assert report["deniable"] is True
        assert "quantization_resolution" not in report

    def test_continuous_reports_quantization(self, capsys):
        assert main(["bound", "--k-bits", "512", "--dist", "cu:0:1 x 3", "--n", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quantization_resolution"] == pytest.approx(2.0 ** -20)
        assert report["entropy_per_record_bits"] == pytest.approx(60.0)

    def test_requires_exactly_one_entropy_source(self, capsys):
        assert main(["bound", "--k-bits", "512", "--n", "10"]) == 1
        assert main(["bound", "--k-bits", "512", "--n", "10",
                     "--entropy-bits", "3", "--dist", "du:1:8"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--n", "5", "--dist", "cu:0:nan"],
        ["--n", "1", "--dist", "cu:0:inf"],
        ["--n", "5", "--dist", "exp:nan"],
        ["--n", "5", "--dist", "cu:0:1", "--resolution", "nan"],
        ["--n", "5", "--dist", "cu:0:1", "--resolution", "inf"],
        ["--n", "5", "--entropy-bits", "nan"],
        ["--n", "5", "--entropy-bits", "inf"],
    ])
    def test_non_finite_input_exits_1(self, capsys, argv):
        assert main(["bound", "--k-bits", "10"] + argv) == 1
        assert "InvalidArguments" in capsys.readouterr().err

    def test_nan_k_bits_exits_1(self, capsys):
        assert main(["bound", "--k-bits", "nan", "--n", "5", "--dist", "du:1:8"]) == 1
        assert "InvalidArguments" in capsys.readouterr().err

    def test_overflowing_threshold_exits_1(self, capsys):
        assert main(["bound", "--k-bits", "1e308", "--n", "5", "--entropy-bits", "1e-308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "InvalidArguments" in captured.err

    def test_parse_distribution_forms(self):
        spec = parse_distribution("du:1:8 x 10")
        assert spec.attributes == tuple(DiscreteUniform(1, 8) for _ in range(10))
        spec = parse_distribution("du:1:8 × 2, cu:0:1, exp:5")
        assert spec.attributes == (
            DiscreteUniform(1, 8), DiscreteUniform(1, 8),
            ContinuousUniform(0.0, 1.0), Exponential(5.0),
        )
        spec = parse_distribution("du:-3:3x2")
        assert spec.attributes == (DiscreteUniform(-3, 3), DiscreteUniform(-3, 3))

    def test_parse_distribution_rejects_garbage(self):
        for bad in ("", "nu:1:2", "du:1", "du:1:8 y 3", "exp:abc",
                    "du:1:8 x ten", "du:1:8x", "du:1:8 x 2.5"):
            with pytest.raises(InvalidArguments):
                parse_distribution(bad)

    def test_parse_distribution_matches_the_reference_grammar(self):
        # Every entry alone, then entries joined with stray commas and blanks.
        few = ["du:1:8", "cu:0:1 x 2", "exp:5x3", "du:1:8 x 0", "nu:1:2", "du:8:1", " "]
        texts = ENTRIES + ["", ",", " , ", ",,"] + [
            form.format(a, b)
            for a, b in itertools.product(few, repeat=2)
            for form in ("{},{}", "{},,{}", ",{}, {},", "{} ,\t{}")
        ]
        mismatches = [
            (text, got, want)
            for text in texts
            if (got := _outcome(parse_distribution, text))
            != (want := _outcome(reference_parse_distribution, text))
        ]
        assert mismatches == []
        accepted = sum(isinstance(_outcome(parse_distribution, t), tuple) for t in texts)
        assert 0 < accepted < len(texts)


class TestExperiment:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["experiment", "--d", "3", "--n", "8", "--trials", "3",
                     "--seed", "21", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "pass rate: 3/3" in text
        lines = [l for l in text.splitlines() if l.strip() and l.split()[0].isdigit()]
        assert [int(l.split()[0]) for l in lines] == [0, 1, 2]
        payload = json.loads(out.read_text())
        assert payload["schema"] == "denial-experiment/1"
        assert len(payload["trials"]) == 3
        assert payload["pass_rate"] == 1.0

    def test_same_seed_writes_identical_out_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["experiment", "--d", "3", "--n", "8", "--trials", "3",
                         "--seed", "4", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_fewer_than_one_trial_exits_1(self, trials, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["experiment", "--trials", trials, "--out", str(out)]) == 1
        assert "InvalidArguments" in capsys.readouterr().err
        assert not out.exists()


class TestAdversary:
    def test_deterministic_output(self, capsys):
        assert main(["adversary", "--d", "3", "--n", "8", "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["adversary", "--d", "3", "--n", "8", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        p_star = np.asarray(payload["p_star"])
        assert len(payload["datasets"]) == 2
        for ds in payload["datasets"]:
            refit = np.asarray(ds["refit_params"])
            assert np.max(np.abs(refit - p_star)) <= 1e-3
        assert payload["datasets"][0]["inputs"] != payload["datasets"][1]["inputs"]
