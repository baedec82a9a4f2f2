import json

import numpy as np
import pytest

from qscond.cli import main


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def identity_qs(tmp_path):
    params = {
        "n": 5,
        "p": [0, 0, 0, 0],
        "a": [0, 0, 0],
        "q": [0, 0, 0, 0],
        "d": [1, 1, 1, 1, 1],
        "g": [0, 0, 0, 0],
        "b": [0, 0, 0],
        "h": [0, 0, 0, 0],
    }
    return write(tmp_path, "identity.json", json.dumps(params))


class TestMaterialize:
    def test_identity_csv(self, identity_qs, capsys):
        assert main(["materialize", identity_qs]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        np.testing.assert_array_equal(
            np.array([[float(c) for c in line.split(",")] for line in lines]), np.eye(5)
        )

    def test_json_output(self, identity_qs, capsys):
        assert main(["materialize", identity_qs, "--json"]) == 0
        np.testing.assert_array_equal(json.loads(capsys.readouterr().out), np.eye(5))

    def test_malformed_json(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", '{"n": 3, "p": [1, 2]')
        assert main(["materialize", bad]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_bad_field(self, tmp_path, capsys):
        bad = write(
            tmp_path,
            "bad.json",
            json.dumps({"n": 3, "p": [1], "a": [1], "q": [1, 1], "d": [1, 1, 1],
                        "g": [1, 1], "b": [1], "h": [1, 1]}),
        )
        assert main(["materialize", bad]) == 2
        assert "'p'" in capsys.readouterr().err

    def test_directory_path(self, tmp_path, capsys):
        assert main(["materialize", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gv_autodetect(self, tmp_path, capsys):
        gv = {"n": 3, "l": [0], "v": [0, 0], "d": [1, 1, 1], "w": [0, 0], "u": [0]}
        path = write(tmp_path, "gv.json", json.dumps(gv))
        assert main(["materialize", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3


class TestCond:
    def test_eff_identity_ones(self, identity_qs, tmp_path, capsys):
        rhs = write(tmp_path, "B.csv", "\n".join(["1.0,1.0"] * 5))
        assert main(["cond", identity_qs, rhs, "--which", "eff", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k_eff"] == pytest.approx(2.0)

    def test_all_json(self, identity_qs, tmp_path, capsys):
        rhs = write(tmp_path, "B.csv", "\n".join(["1.0,1.0"] * 5))
        assert main(["cond", identity_qs, rhs, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("k_unstructured", "k_eff", "k_qs", "ratio"):
            assert key in out

    def test_sparse_rhs_file(self, identity_qs, tmp_path, capsys):
        rhs = write(
            tmp_path,
            "B.json",
            json.dumps({"n": 5, "m": 2, "terms": [{"i": 1, "j": 1, "omega": 1.0}]}),
        )
        assert main(["cond", identity_qs, rhs, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "k_unstructured_sparse" in out

    def test_negative_weight_rejected(self, identity_qs, tmp_path, capsys):
        rhs = write(tmp_path, "B.csv", "\n".join(["1.0,1.0"] * 5))
        wfile = write(tmp_path, "w.json", json.dumps({"e": {"d": [-1, 1, 1, 1, 1]}}))
        assert main(["cond", identity_qs, rhs, "--weights", wfile]) == 2
        assert "weights must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("rhs_doc, message", [
        ({"n": "3", "m": 1, "terms": [{"i": 1, "j": 1, "omega": 1.0}]}, "'n' must be an integer >= 1"),
        ({"n": 5, "m": 1, "terms": 5}, "'terms' must be a list"),
        ({"n": 4, "m": 1, "terms": [{"i": 1, "j": 1, "omega": 1.0}]}, "4 rows, the matrix has order 5"),
        ({"n": 5, "m": 1, "terms": [{"i": 1, "j": 1, "omega": "nan"}]}, "non-finite omega"),
    ], ids=["n-not-integer", "terms-not-list", "n-not-order", "omega-nan"])
    def test_malformed_sparse_rhs(self, identity_qs, tmp_path, capsys, rhs_doc, message):
        rhs = write(tmp_path, "B.json", json.dumps(rhs_doc))
        assert main(["cond", identity_qs, rhs]) == 2
        assert message in capsys.readouterr().err

    def test_rhs_weight_matrix_shape_checked(self, identity_qs, tmp_path, capsys):
        """An explicit F for a sparse RHS must have the shape of B."""
        rhs = write(tmp_path, "B.json", json.dumps(
            {"n": 5, "m": 3, "terms": [{"i": 1, "j": 1, "omega": 1.0}, {"i": 4, "j": 3, "omega": 2.0}]}))
        e = {f: [1.0] * k for f, k in zip("paqdgbh", (4, 3, 4, 5, 4, 3, 4))}
        for F in (np.zeros((5, 1)), np.zeros((5, 2))):
            wfile = write(tmp_path, "w.json", json.dumps({"e": e, "f": [1.0, 2.0], "F": F.tolist()}))
            assert main(["cond", identity_qs, rhs, "--weights", wfile]) == 2
            assert "dense RHS weight matrix missing or mismatched" in capsys.readouterr().err

    def test_directory_paths(self, identity_qs, tmp_path, capsys):
        rhs = write(tmp_path, "B.csv", "\n".join(["1.0,1.0"] * 5))
        for argv in ([str(tmp_path), rhs], [identity_qs, str(tmp_path)], [str(tmp_path), str(tmp_path)]):
            assert main(["cond", *argv]) == 2
            assert "error:" in capsys.readouterr().err

    def test_weight_families_not_an_object(self, identity_qs, tmp_path, capsys):
        rhs = write(tmp_path, "B.csv", "\n".join(["1.0,1.0"] * 5))
        wfile = write(tmp_path, "w.json", json.dumps({"e": [1, 2]}))
        assert main(["cond", identity_qs, rhs, "--weights", wfile]) == 2
        assert "field 'e' must be an object" in capsys.readouterr().err

    def test_gv_weights_file(self, tmp_path, capsys):
        """GV-family weights equal to the natural ones give the natural output."""
        rng = np.random.default_rng(3)
        gv = {"n": 6, **{f: rng.standard_normal(k).tolist() for f, k in
                         (("l", 4), ("v", 5), ("d", 6), ("w", 5), ("u", 4))}}
        B = rng.standard_normal((6, 2))
        sparse = {"n": 6, "m": 2, "terms": [{"i": 2, "j": 1, "omega": -1.5},
                                            {"i": 5, "j": 2, "omega": 0.5}]}
        gv_path = write(tmp_path, "gv.json", json.dumps(gv))
        e = {f: np.abs(gv[f]).tolist() for f in "lvdwu"}
        for k, (rhs_doc, rhs_weights) in enumerate((
            (B.tolist(), {"F": np.abs(B).tolist()}),
            (sparse, {"f": [1.5, 0.5]}),
        )):
            rhs = write(tmp_path, f"rhs{k}.json", json.dumps(rhs_doc))
            wfile = write(tmp_path, f"w{k}.json", json.dumps({"e": e, **rhs_weights}))
            outputs = []
            for extra in ([], ["--weights", wfile]):
                assert main(["cond", gv_path, rhs, "--json", *extra]) == 0
                outputs.append(json.loads(capsys.readouterr().out))
            assert outputs[0] == outputs[1]
            assert "k_gv" in outputs[0] and "k_qs" in outputs[0]

    def test_dense_matrix_input(self, tmp_path, capsys):
        A = write(tmp_path, "A.csv", "2.0,1.0\n1.0,2.0")
        rhs = write(tmp_path, "B.csv", "1.0\n1.0")
        assert main(["cond", A, rhs, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 2 and out["k_qs"] > 0


class TestVerify:
    def test_default_passes(self, capsys):
        assert main(["verify", "--trials", "4", "--n", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max relative deviation" in out
        assert "0 violations" in out

    def test_zero_trials(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2
        assert "no trials" in capsys.readouterr().err

    def test_n_too_large(self, capsys):
        assert main(["verify", "--n", "5"]) == 2

    def test_zero_rhs_columns(self, capsys):
        assert main(["verify", "--m", "0"]) == 2
        assert "--m >= 1" in capsys.readouterr().err


class TestReproduce:
    def test_example1_csv(self, capsys):
        assert main(["reproduce", "--example", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,m,rho,seed,k_unstructured,k_eff,k_qs,k_gv,ratio"
        assert len(lines) == 3

    def test_example3_file_output(self, tmp_path):
        out = str(tmp_path / "table.csv")
        rc = main([
            "reproduce", "--example", "3", "--n", "12", "--m", "3",
            "--rho", "0.4", "--trials", "3", "--seed", "5", "--out", out,
        ])
        assert rc == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 4

    def test_example2_markdown(self, capsys):
        rc = main([
            "reproduce", "--example", "2", "--n", "10", "--m", "2",
            "--trials", "2", "--seed", "3", "--markdown",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("| n | m |")
        assert "| K_gv | K_qs |" in out
        assert out.count("\n") >= 3

    def test_determinism(self, capsys):
        main(["reproduce", "--example", "2", "--n", "8", "--trials", "2", "--seed", "7"])
        first = capsys.readouterr().out
        main(["reproduce", "--example", "2", "--n", "8", "--trials", "2", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_usage_error(self, capsys):
        assert main(["reproduce"]) == 2
