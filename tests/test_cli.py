import cmath
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import berezin_lab
from berezin_lab import haar_random_unitary, save_matrix
from berezin_lab import cli
from berezin_lab.cli import main, parse_theta
from berezin_lab.errors import InvariantViolation
from berezin_lab.spectral import standardized_matrix


class TestThetaParsing:
    def test_polar_form(self):
        assert abs(parse_theta("angle:1.0") - cmath.exp(1j)) < 1e-15

    def test_cartesian_normalized(self):
        z = parse_theta("0,1")
        assert abs(z - 1j) < 1e-15
        assert abs(abs(z) - 1.0) < 1e-16

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError):
            parse_theta("1,1")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_theta("nope")


class TestSpectrumCommand:
    def test_fourier_prime(self, capsys):
        assert main(["spectrum", "--family", "fourier", "--n", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["multiplicity_of_one"] == 9

    def test_symmetric_family(self, capsys):
        rc = main(["spectrum", "--family", "example2", "--n", "4", "--theta", "angle:1.0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["multiplicity_of_one"] == 7

    def test_haar_family(self, capsys):
        rc = main(["spectrum", "--family", "haar", "--n", "3", "--seed", "42"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["multiplicity_of_one"] == 5

    def test_zero_entry_matrix_file(self, tmp_path):
        path = tmp_path / "id3.json"
        save_matrix(path, np.eye(3, dtype=complex))
        assert main(["spectrum", "--matrix-file", str(path)]) == 5

    def test_not_unitary_file(self, tmp_path):
        path = tmp_path / "bad.json"
        save_matrix(path, np.ones((2, 2), dtype=complex))
        assert main(["spectrum", "--matrix-file", str(path)]) == 4

    def test_missing_file(self):
        assert main(["spectrum", "--matrix-file", "/no/such/file.json"]) == 3

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["spectrum", "--matrix-file", str(path)]) == 3

    @pytest.mark.parametrize("content", [
        "[1, 2, 3]",
        '{"n": 1, "entries": [["a", "b"]]}',
        '{"n": 1e400, "entries": [[1, 0]]}',
        '{"n": 2, "entries": [[1, 0], [0, 0], [0, 0]]}',
        '{"n": -1, "entries": [[1, 0]]}',
        '{"n": 1.5, "entries": [[1, 0]]}',
        '{"entries": [[1, 0]]}',
        "[" * 100_000,
        b"\xff\xfe\x00garbage",
    ])
    def test_malformed_file_content(self, tmp_path, capsys, content):
        path = tmp_path / "junk.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert main(["spectrum", "--matrix-file", str(path)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_directory_as_matrix_file(self, tmp_path):
        assert main(["spectrum", "--matrix-file", str(tmp_path)]) == 3

    def test_csv_format(self, capsys):
        assert main(["spectrum", "--family", "fourier", "--n", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "re,im,modulus,cluster_id"
        assert len(lines) == 5  # header + n^2 eigenvalues

    def test_json_output_deterministic(self, capsys):
        args = ["spectrum", "--family", "haar", "--n", "3", "--seed", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(["spectrum", "--family", "fourier", "--n", "3", "--output", str(path)])
        assert json.loads(path.read_text())["multiplicity_of_one"] == 5


class TestTheoremCheckCommand:
    def test_symmetric_family(self, capsys):
        rc = main(["theorem-check", "--family", "example2", "--n", "3", "--theta", "0,1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel_dim"] == 5 and out["rank"] == 4
        assert out["theorem_holds"] and out["is_submersion"]

    def test_fourier_composite(self, capsys):
        rc = main(["theorem-check", "--family", "fourier", "--n", "6"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel_dim"] == 15 and not out["is_submersion"]

    def test_haar(self, capsys):
        rc = main(["theorem-check", "--family", "haar", "--n", "3", "--seed", "42"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["kernel_dim"] == 5


class TestSweepCommand:
    def test_n2_submersive(self, capsys):
        rc = main(["sweep", "--n", "2", "--samples", "100", "--seed", "7"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["submersive_fraction"] == 1.0
        assert out["theorem_violations"] == 0

    def test_per_sample_stream(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        rc = main([
            "sweep", "--n", "3", "--samples", "5", "--seed", "1",
            "--per-sample", str(csv_path),
        ])
        assert rc == 0
        capsys.readouterr()
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("sample,")

    def test_near_threshold_seed_agrees(self, capsys):
        # sample 21 has a Jacobian singular value of 5.2e-8, just above the
        # 4e-8 threshold at n = 4; both pipelines must count kernel 7
        rc = main(["sweep", "--n", "4", "--samples", "25", "--seed", "1511599422"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["kernel_dim_histogram"] == {"7": 25}

    def test_zero_samples_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "2", "--samples", "0"])
        assert exc.value.code == 1


class TestVerifyAllCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["verify-all", "--n", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_degenerate_theta_reported(self, capsys):
        rc = main(["verify-all", "--n", "3", "--theta", "angle:0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: theta must stay away from +-1\n"

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_unparseable_theta_is_usage_error(self, n, capsys):
        # theta is parsed before any check runs, also at n < 3 where no
        # check reads it
        rc = main(["verify-all", "--n", n, "--theta", "garbage"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    def test_consistency_row_guards_standardized_matrix(self, monkeypatch, capsys):
        def perturbed(op):
            s = standardized_matrix(op)
            s[0, 1] += 1e-6
            return s

        monkeypatch.setattr(cli, "standardized_matrix", perturbed)
        rc = main(["verify-all", "--n", "3", "--format", "json"])
        rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        assert rc == 2
        assert rows["berezin-consistency"]["status"] == "FAIL"

    def test_impossible_tolerance_fails(self, capsys):
        rc = main(["verify-all", "--n", "3", "--tol-override", "1e-30"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["verify-all", "--n", "2", "--format", "json", "--seed", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "pass" for r in rows)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "not-a-number"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--format", "csv"],
    ["sweep", "--theta", "0,1"],
    ["sweep", "--tol", "1e-8"],
    ["theorem-check", "--format", "csv"],
    ["verify-all", "--tol", "1e-8"],
    ["verify-all", "--format", "csv"],
    ["sweep", "--samp", "3"],
], ids=" ".join)
def test_flag_not_taken_is_usage_error(argv, capsys):
    # verify-all --tol would resolve to --tol-override if prefixes were accepted
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_cli_import_loads_no_scipy():
    code = ("import berezin_lab.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(berezin_lab.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "fourier", "--n", "3", "--theta", "garbage"],
    ["spectrum", "--family", "fourier", "--n", "3", "--seed", "4"],
    ["spectrum", "--family", "example2", "--n", "3", "--seed", "4"],
    ["spectrum", "--family", "haar", "--n", "3", "--theta", "0,1"],
    ["spectrum", "--matrix-file", "{f3}", "--n", "7"],
    ["spectrum", "--matrix-file", "{f3}", "--n", "3"],
    ["spectrum", "--matrix-file", "{f3}", "--family", "haar"],
    ["spectrum", "--matrix-file", "{f3}", "--seed", "1"],
    ["spectrum", "--matrix-file", "{f3}", "--theta", "0,1"],
    ["spectrum", "--n", "3"],
    ["spectrum", "--family", "haar", "--n", "3", "--seed", "2", "--tol", "1e-6"],
    ["theorem-check", "--family", "haar", "--n", "3", "--tol", "1e-6"],
    ["theorem-check", "--family", "fourier", "--n", "3", "--theta", "0,1"],
], ids=" ".join)
def test_value_the_input_does_not_read_is_usage_error(argv, tmp_path, capsys):
    f3 = tmp_path / "f3.json"
    save_matrix(f3, np.fft.fft(np.eye(3)) / np.sqrt(3))
    assert main([a.format(f3=f3) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--matrix-file", "{f3}", "--tol", "1e-6", "--format", "text"],
    ["spectrum", "--family", "example2", "--n", "3", "--theta", "angle:1.0"],
    ["theorem-check", "--matrix-file", "{f3}", "--tol", "1e-6"],
], ids=" ".join)
def test_values_the_input_reads_are_taken(argv, tmp_path):
    f3 = tmp_path / "f3.json"
    save_matrix(f3, np.fft.fft(np.eye(3)) / np.sqrt(3))
    assert main([a.format(f3=f3) for a in argv]) == 0


@pytest.mark.parametrize("argv", [
    ["verify-all", "--n", "2", f"--tol-override={value}"] for value in
    ("nan", "inf", "-inf", "0", "-1e-3", "garbage")
] + [["spectrum", "--family", "fourier", f"--tol={value}"] for value in ("nan", "inf", "-1")],
    ids=" ".join)
def test_tolerance_must_be_positive_and_finite(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "positive finite" in capsys.readouterr().err


def test_invariant_violation_exits_2(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantViolation("isotypic bases do not fill the symbol space")

    monkeypatch.setattr(cli, "spectrum", broken)
    assert main(["spectrum", "--family", "fourier", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "isotypic bases" in err and "Traceback" not in err


def test_csv_cluster_ids_match_clusters(capsys):
    assert main(["spectrum", "--family", "fourier", "--n", "4"]) == 0
    clusters = json.loads(capsys.readouterr().out)["clusters"]
    assert main(["spectrum", "--family", "fourier", "--n", "4", "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    for re_, im, _, cid in rows:
        rep = clusters[int(cid)]
        assert abs(complex(float(re_), float(im)) - complex(rep["re"], rep["im"])) <= 1e-8
    counts = np.bincount([int(r[3]) for r in rows], minlength=len(clusters))
    assert counts.tolist() == [c["multiplicity"] for c in clusters]
