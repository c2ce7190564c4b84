import cmath
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import berezin_lab
from berezin_lab import haar_random_unitary, save_matrix
from berezin_lab import cli, spectral, submersion, symmetry
from berezin_lab.cli import main, parse_theta
from berezin_lab.matrices import haar_unitary_stack
from berezin_lab.spectral import standardized_matrix
from berezin_lab.symbols import WeightedSpace, c_symbol_to_operator, d_symbol_to_operator
from test_spectral import fourier_product, perturbed
from test_submersion import replace_sample

# a nan or infinite theta is a usage error, not a non-unitary matrix
NON_FINITE_THETAS = ["nan,0", "angle:nan", "angle:inf", "1,nan"]


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

    @pytest.mark.parametrize("x", [-1.0, 1.0, -1.4, 1.4, 3.1, -2.5, 1e20])
    def test_polar_form_is_exp_bit_for_bit(self, x):
        assert parse_theta(f"angle:{x!r}") == cmath.exp(1j * x)

    @pytest.mark.parametrize("text", ["angle:inf", "angle:-inf", "angle:nan"])
    def test_non_finite_angle_rejected(self, text):
        with pytest.raises(ValueError, match="theta angle must be finite"):
            parse_theta(text)


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

    def test_text_format_prints_no_negative_zero(self, capsys):
        rc = main(["spectrum", "--family", "example2", "--n", "2", "--theta", "angle:1",
                   "--format", "text"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "n = 2\n"
            "multiplicity of 1 = 3\n"
            "  +1.000000000000+0.000000000000i  x3\n"
            "  -1.000000000000+0.000000000000i  x1\n"
        )

    @pytest.mark.parametrize("theta", NON_FINITE_THETAS)
    def test_non_finite_theta_is_usage_error(self, theta, capsys):
        rc = main(["spectrum", "--family", "example2", "--n", "3", "--theta", theta])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

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

    @pytest.mark.parametrize("seed", ["1704520880", "672160505", "244737784"])
    def test_haar_n16_small_entry(self, seed, capsys):
        # entries of modulus 0.01, 0.002 and 0.003 scaled the Jacobian's
        # smallest non-kernel singular value from 9.3e-7, 1.2e-6 and 8.4e-7
        # down to 5.9e-8, 7.8e-8 and 7.9e-8, under the 1.6e-7 threshold, so
        # kernel 32 was reported against a Berezin count of 31
        rc = main(["theorem-check", "--family", "haar", "--n", "16", "--seed", seed])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["kernel_dim"] == out["berezin_multiplicity_of_one"] == 31


def eighth_singular_values(m):
    """The 8th smallest singular value of the Jacobian of each unitary of
    a (samples, 4, 4) stack, from its SVD."""
    return np.linalg.svd(submersion._jacobians(m), compute_uv=False)[:, -8]


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

    def test_per_sample_rows_written_chunk_by_chunk(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "samples.csv"
        on_disk = []  # rows in the file each time a chunk is drawn
        draw = submersion.haar_unitary_stack

        def recorded(n, count, rng):
            lines = csv_path.read_text().splitlines()
            on_disk.append(sum(not line.startswith("sample,") for line in lines))
            return draw(n, count, rng)

        monkeypatch.setattr(submersion, "_CHUNK_BYTES", 3 * submersion.SAMPLE_BYTES_PER_N4 * 3**4)  # 3 samples
        monkeypatch.setattr(submersion, "haar_unitary_stack", recorded)
        rc = main(["sweep", "--n", "3", "--samples", "8", "--seed", "4",
                   "--per-sample", str(csv_path)])
        capsys.readouterr()
        assert rc == 0
        assert on_disk == [0, 3, 6]
        rows = csv_path.read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(8))

    def test_near_threshold_matrix_agrees(self):
        # the Jacobian's 8th singular value is 2.6e-7 (5.2e-8 when it was
        # ranked unscaled), above the threshold CLUSTER_TOL = 1e-8; both
        # pipelines must count kernel 7
        u = haar_random_unitary(4, [1511599422, 21])
        report = submersion.jacobian_report(u)
        assert (report.kernel_dim, report.berezin_multiplicity_of_one) == (7, 7)
        assert eighth_singular_values(u.matrix[np.newaxis])[0] == pytest.approx(2.56e-7, rel=0.01)

    def test_near_threshold_seed_agrees(self, capsys):
        # sample 1 of this seed's stream has an 8th Jacobian singular value
        # of 5.6e-8, the nearest above CLUSTER_TOL = 1e-8 in the streams of
        # seeds 0 to 99,999; both pipelines must count kernel 7
        m, _ = haar_unitary_stack(4, 25, np.random.default_rng(67372))
        assert eighth_singular_values(m)[1] == pytest.approx(5.59e-8, rel=0.01)
        rc = main(["sweep", "--n", "4", "--samples", "25", "--seed", "67372"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["kernel_dim_histogram"] == {"7": 25}

    def test_zero_samples_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "2", "--samples", "0"])
        assert exc.value.code == 1

    def test_failed_sweep_keeps_per_sample_file(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        assert main(["sweep", "--n", "3", "--samples", "4", "--per-sample", str(csv_path)]) == 0
        earlier = csv_path.read_text()
        assert len(earlier.splitlines()) == 5
        assert main(["sweep", "--n", "1", "--per-sample", str(csv_path)]) == 1
        assert "sweep needs n >= 2" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "3", "--samples", "0", "--per-sample", str(csv_path)])
        assert exc.value.code == 1
        capsys.readouterr()
        argv = ["sweep", "--n", "3", "--samples", "2", "--seed", "-1", "--per-sample", str(csv_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert csv_path.read_text() == earlier

    @pytest.mark.parametrize("n, samples, skipped", [(4, 6, 4), (4, 1, 0), (20, 2, 1)])
    def test_skipped_sample_row(self, n, samples, skipped, tmp_path, monkeypatch, capsys):
        # QR of a triangular matrix is diagonal: entries exactly zero.  At
        # (4, 1) and from n = 19 up the skipped sample fills its chunk,
        # which leaves nothing to rank
        replace_sample(monkeypatch, skipped, np.triu)
        csv_path = tmp_path / "samples.csv"
        rc = main(["sweep", "--n", str(n), "--samples", str(samples), "--seed", "3",
                   "--per-sample", str(csv_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["skipped"], sum(out["kernel_dim_histogram"].values())) == (1, samples - 1)
        assert csv_path.read_text().splitlines()[1 + skipped] == f"{skipped},1,,,,,,,"


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

    @pytest.mark.parametrize(
        "n, theta",
        [pytest.param(n, "garbage", id=n) for n in ("2", "3")]
        + [pytest.param("3", theta, id=theta) for theta in NON_FINITE_THETAS],
    )
    def test_unparseable_theta_is_usage_error(self, n, theta, capsys):
        # theta is parsed before any check runs, also at n < 3 where no
        # check reads it
        rc = main(["verify-all", "--n", n, "--theta", theta])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize("n", ["3", "12"])
    def test_text_columns_line_up_with_the_header(self, n, capsys):
        assert main(["verify-all", "--n", n, "--format", "text"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        for title in ("n", "max deviation", "limit", "status"):
            column = header.index(f"  {title}") + 2
            assert all(row[column - 2:column] == "  " and row[column] != " " for row in rows)

    def test_consistency_row_guards_standardized_matrix(self, monkeypatch, capsys):
        def perturbed(m):
            s = standardized_matrix(m)
            s[0, 1] += 1e-6
            return s

        monkeypatch.setattr(cli, "standardized_matrix", perturbed)
        rc = main(["verify-all", "--n", "3", "--format", "json"])
        rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        assert rc == 2
        assert rows["berezin-consistency"]["status"] == "FAIL"

    def test_runs_one_kernel_count(self, monkeypatch, capsys):
        # the spectrum table's one eigh is the one kernel count; no check
        # computes a multiplicity that verify-all does not report
        eighs, counts = [], []
        eigh, multiplicity = np.linalg.eigh, spectral._multiplicity
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        monkeypatch.setattr(spectral, "_multiplicity",
                            lambda m: counts.append(m.shape) or multiplicity(m))
        assert main(["verify-all", "--n", "3"]) == 0
        assert eighs == [(9, 9)]
        assert counts == []

    def test_builds_each_family_matrix_once(self, monkeypatch, capsys):
        # the Fourier matrix serves three checks and the symmetric family's
        # two, each built and validated once
        built = []
        validate = symmetry.validate_unitary
        monkeypatch.setattr(symmetry, "validate_unitary",
                            lambda m, *args, **kwargs: built.append(m.shape)
                            or validate(m, *args, **kwargs))
        assert main(["verify-all", "--n", "4"]) == 0
        assert built == [(4, 4), (4, 4)]

    def test_tol_override_keeps_the_spectrum_table_limit(self, monkeypatch, capsys):
        # the spectrum table is a yes/no row, and its limit stays 0.5
        monkeypatch.setattr(cli, "verify_symmetric_family_spectrum", lambda *args: False)
        rc = main(["verify-all", "--n", "4", "--tol-override", "2", "--format", "json"])
        rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        assert rc == 2
        table = rows.pop("spectrum-table")
        assert (table["limit"], table["status"]) == (0.5, "FAIL")
        assert all((r["limit"], r["status"]) == (2.0, "pass") for r in rows.values())

    def test_impossible_tolerance_fails(self, capsys):
        rc = main(["verify-all", "--n", "3", "--tol-override", "1e-30"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_fourier_rows_are_at_rounding_level(self, capsys):
        # every root comes from one table of n, exactly n-periodic; one
        # exponential per entry read 3.4e-14, 1.3e-13 and 1.1e-13 here
        assert main(["verify-all", "--n", "24", "--seed", "3", "--format", "json"]) == 0
        rows = {r["check"]: r["deviation"] for r in json.loads(capsys.readouterr().out)}
        fourier_rows = ("weyl", "fourier-eigenfunctions", "fourier-shifts")
        assert max(rows[name] for name in fourier_rows) <= 2e-14

    def test_json_format(self, capsys):
        assert main(["verify-all", "--n", "2", "--format", "json", "--seed", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "pass" for r in rows)

    @pytest.mark.parametrize("n, seed", [(1, 0), (3, 1), (5, 4), (12, 7)])
    def test_isometry_rows_match_the_trial_loop(self, n, seed):
        # the stacked rows draw what the loop drew; conjugation is the same
        # arithmetic, while the HS product is summed in another order, so
        # the isometry row may move by rounding (its deviations are ~3e-15)
        rows = {name: dev for name, dev, _ in cli._verify_checks(n, 1j, None, seed)}
        isometry, conjugation = _isometry_rows_by_loop(n, seed)
        assert abs(rows["isometry"] - isometry) <= 1e-13
        assert rows["conjugation"] == conjugation


def _isometry_rows_by_loop(n, seed):
    """verify-all's isometry and conjugation deviations, one trial at a time."""
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(n, rng.integers(2**63))
    space = WeightedSpace.from_unitary(u)
    dev = cdev = 0.0
    for _ in range(10):
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cf, cg = c_symbol_to_operator(u, f), c_symbol_to_operator(u, g)
        df, dg = d_symbol_to_operator(u, f), d_symbol_to_operator(u, g)
        hs_c = np.trace(cf @ cg.conj().T)
        hs_d = np.trace(df @ dg.conj().T)
        dev = max(dev, abs(hs_c - space.inner(f, g)), abs(hs_d - space.inner(f, g)))
        cdev = max(cdev, np.max(np.abs(cf.conj().T - d_symbol_to_operator(u, np.conj(f)))))
    return float(dev), float(cdev)


class TestRecordFormats:
    """The keys and columns each command prints, in order."""

    def test_theorem_check_json_keys(self, capsys):
        assert main(["theorem-check", "--family", "haar", "--n", "3"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "n", "rank", "kernel_dim", "berezin_multiplicity_of_one", "theorem_holds",
            "is_submersion", "certified", "berezin_certified", "singular_values"]

    def test_sweep_json_keys(self, capsys):
        assert main(["sweep", "--n", "3", "--samples", "2"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "n", "samples", "skipped", "submersive_fraction", "theorem_violations",
            "kernel_dim_histogram", "min_kernel_dim", "max_kernel_dim", "seed", "numpy_version"]

    def test_per_sample_csv_header(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        assert main(["sweep", "--n", "3", "--samples", "2", "--per-sample", str(csv_path)]) == 0
        assert csv_path.read_text().splitlines()[0] == (
            "sample,skipped,rank,kernel_dim,berezin_multiplicity_of_one,"
            "theorem_holds,is_submersion,certified,berezin_certified")

    def test_verify_all_json_row_keys(self, capsys):
        assert main(["verify-all", "--n", "3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(list(r) == ["check", "n", "deviation", "limit", "status"] for r in rows)


class TestSizeCap:
    """An n whose stacks pass MAX_STACK_BYTES is a usage error, refused
    before anything is built; the cap is lowered here so that n = 5 is
    past it and n = 4 is not, for every command."""

    @pytest.fixture(autouse=True)
    def cap_at_n4(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STACK_BYTES", 64 * 4**4)

    @pytest.mark.parametrize("argv, charge", [
        pytest.param(argv, charge, id=" ".join(argv)) for argv, charge in [
            (["spectrum", "--family", "haar"], 33 * 5**4),
            (["spectrum", "--family", "fourier"], 33 * 5**4),
            (["theorem-check", "--family", "example2"], 33 * 5**4),
            (["sweep", "--samples", "2"], 33 * 5**4),
            (["verify-all"], 64 * 5**4),
        ]])
    def test_past_cap_refused(self, argv, charge, capsys):
        assert main([*argv, "--n", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: n = 5 needs stacks of {charge} bytes, "
                                f"more than the cap of 16384\n")
        assert main([*argv, "--n", "4"]) == 0

    def test_matrix_file_past_cap_refused(self, tmp_path, capsys):
        for n in (4, 5):
            save_matrix(tmp_path / f"haar{n}.json", haar_random_unitary(n, seed=n).matrix)
        assert main(["theorem-check", "--matrix-file", str(tmp_path / "haar5.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "more than the cap" in captured.err
        assert main(["theorem-check", "--matrix-file", str(tmp_path / "haar4.json")]) == 0

    def test_refused_sweep_keeps_per_sample_file(self, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("earlier rows\n")
        assert main(["sweep", "--n", "5", "--per-sample", str(csv_path)]) == 1
        assert csv_path.read_text() == "earlier rows\n"


def _size_cap_comment() -> str:
    """The comment block above STACK_BYTES_PER_N4 in cli.py."""
    lines = pathlib.Path(cli.__file__).read_text().splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("STACK_BYTES_PER_N4"))
    start = end
    while lines[start - 1].startswith("#"):
        start -= 1
    return " ".join(line.lstrip("# ") for line in lines[start:end])


def test_docs_state_the_size_charges_and_caps():
    """The README and cli.py's size-cap comment quote each command's charge
    per n^4 and the largest n it allows, as the constants give them."""
    assert cli.STACK_BYTES_PER_N4["sweep"] == cli.STACK_BYTES_PER_N4["theorem-check"]
    charges = [cli.STACK_BYTES_PER_N4[c] for c in ("spectrum", "theorem-check", "verify-all")]
    largest = [max(n for n in range(1, 1000) if charge * n**4 <= cli.MAX_STACK_BYTES)
               for charge in charges]
    stated = [f"{charge} n^4" for charge in charges] + ["n above {}, {} and {}".format(*largest)]
    readme = (pathlib.Path(berezin_lab.__file__).parents[2] / "README.md").read_text()
    for text in (" ".join(readme.split()), " ".join(_size_cap_comment().split())):
        assert [s for s in stated if s not in text] == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "haar"],
    ["spectrum", "--family", "fourier", "--format", "csv"],
    ["spectrum", "--family", "example2", "--theta", "angle:-1", "--format", "text"],
    ["theorem-check", "--family", "haar"],
    ["theorem-check", "--family", "example2", "--theta", "angle:-1"],
    # both certificates fail at F16: the Jacobian SVD, then the eigenvalues
    # of S, the path that sets the charge
    ["theorem-check", "--family", "fourier"],
    # one sample per chunk, as every sweep has past n = 18
    ["sweep", "--samples", "1"],
    ["verify-all"],
], ids=" ".join)
def test_peak_within_size_charge(argv, capsys):
    """Each command's traced peak at n = 16 stays within what the size cap
    charges it."""
    argv = [*argv, "--n", "16"]
    main(argv)  # first-call allocations
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= cli.STACK_BYTES_PER_N4[argv[0]] * 16**4


# theta nearer +-1 than the rank threshold 1e-8 puts an eigenvalue of the
# symmetric family within it of 1: unguarded, these count kernels of up to
# 129 (true 31) at n = 16 and of 8 or 9 (true 7) at n = 4
@pytest.mark.parametrize("argv", [
    ["theorem-check", "--family", "example2", "--n", "16", "--theta", "angle:1e-8"],
    ["spectrum", "--family", "example2", "--n", "16", "--theta", "angle:1e-8"],
    ["verify-all", "--n", "16", "--theta", "angle:1e-8"],
    ["theorem-check", "--family", "example2", "--n", "16",
     "--theta", "angle:3.141592643589793"],
    ["spectrum", "--family", "example2", "--n", "16", "--theta", "angle:3.141592643589793"],
    ["verify-all", "--n", "16", "--theta", "angle:3.141592643589793"],
    ["theorem-check", "--family", "example2", "--n", "4", "--theta", "angle:1e-8"],
    ["spectrum", "--family", "example2", "--n", "4", "--theta", "angle:1e-8"],
    ["verify-all", "--n", "4", "--theta", "angle:1e-8"],
], ids=" ".join)
def test_theta_within_the_rank_threshold_of_pm1_is_rejected(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theta must stay away from +-1\n"


@pytest.mark.parametrize("n, angle", [(16, 3.3e-7), (16, np.pi - 3.3e-7), (4, 8.2e-8),
                                      (16, 2.2e-8), (16, np.pi - 2.2e-8), (4, 2.2e-8)])
def test_theta_just_past_the_guard_is_counted_right(n, angle, capsys):
    theta = ["--theta", f"angle:{angle!r}"]
    assert main(["theorem-check", "--family", "example2", "--n", str(n), *theta]) == 0
    assert json.loads(capsys.readouterr().out)["kernel_dim"] == 2 * n - 1
    assert main(["spectrum", "--family", "example2", "--n", str(n), *theta]) == 0
    assert json.loads(capsys.readouterr().out)["multiplicity_of_one"] == 2 * n - 1


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


@pytest.mark.parametrize("command", ["spectrum", "theorem-check"])
@pytest.mark.parametrize("m, dev", [
    (np.full((2, 2), 1e308), "inf"),
    # the Gram product's inf - inf gives a NaN deviation, which must fail too
    (np.array([[-1e308j, -1e308j], [-1e308j, 1e308]]), "nan"),
], ids=["inf", "nan"])
def test_overflowing_matrix_file_is_not_unitary(command, m, dev, tmp_path, capsys):
    path = tmp_path / "huge.json"
    save_matrix(path, m)
    assert main([command, "--matrix-file", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix is not unitary (max deviation {dev})\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "haar", "--n", "3", "--seed", "-1"],
    ["theorem-check", "--family", "haar", "--n", "3", "--seed", "-1"],
    ["sweep", "--n", "3", "--samples", "2", "--seed", "-1"],
    ["verify-all", "--n", "3", "--seed", "-1"],
], ids=" ".join)
def test_negative_seed_is_usage_error(argv, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("family", ["fourier", "example2"])
def test_negative_seed_unread_by_the_source_is_named_unread(family, capsys):
    assert main(["spectrum", "--family", family, "--n", "3", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == f"error: {family} input does not take --seed\n"


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


def test_spectrum_check_exits_2_with_the_summary(monkeypatch, capsys):
    # a summary that fails its own check is still printed, for inspection
    summary = spectral.spectrum(berezin_lab.fourier_matrix(3))
    summary.eigenvalues[0] *= 1 + 1e-7
    monkeypatch.setattr(cli, "spectrum", lambda u: summary)
    assert main(["spectrum", "--family", "fourier", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == cli._json(summary.to_dict()) + "\n"
    assert captured.err == "invariant violation: eigenvalue off the unit circle beyond 1e-8\n"


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_spectrum_check_exits_2_with_the_summary_in_its_format(fmt, monkeypatch, capsys):
    # the failing report is printed in the format asked for, as a passing
    # one would be
    summary = spectral.spectrum(berezin_lab.fourier_matrix(3))
    summary.eigenvalues[0] *= 1 + 1e-7
    monkeypatch.setattr(cli, "spectrum", lambda u: summary)
    assert main(["spectrum", "--family", "fourier", "--n", "3", "--format", fmt]) == 2
    failing = capsys.readouterr()
    assert failing.err == "invariant violation: eigenvalue off the unit circle beyond 1e-8\n"
    monkeypatch.setattr(summary, "check", lambda: None)
    assert main(["spectrum", "--family", "fourier", "--n", "3", "--format", fmt]) == 0
    assert failing.out == capsys.readouterr().out
    assert failing.out.startswith("re,im,modulus,cluster_id\n" if fmt == "csv" else "n = 3\n")


def test_f4_cayley_point_counts_its_exact_kernel(tmp_path, capsys):
    """u = F4 (I + eps A)^-1 (I - eps A) at eps = 1.2e-5, A the skew part of
    a seeded Gaussian-integer matrix: its exact kernel is 7, and its eighth
    |1 - lambda| is 2.1e-8, between the rank threshold 1e-8 and the old
    threshold 1e-8 n.  Under the old one, spectrum exited 2 (a cluster at 1
    of 7 against a count of 8) and theorem-check counted 8 on both sides."""
    rng = np.random.default_rng(5)
    b = rng.integers(-2, 3, (4, 4)) + 1j * rng.integers(-2, 3, (4, 4))
    a, eye = 1.2e-5 * (b - b.conj().T) / 2, np.eye(4)
    path = str(tmp_path / "f4_cayley.json")
    save_matrix(path, berezin_lab.fourier_matrix(4).matrix @ np.linalg.solve(eye + a, eye - a))
    assert main(["spectrum", "--matrix-file", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["multiplicity_of_one"] == out["kernel_method_dim"] == 7
    assert main(["theorem-check", "--matrix-file", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["kernel_dim"], out["berezin_multiplicity_of_one"]) == (7, 7)
    assert sorted(out["singular_values"])[7] == pytest.approx(2.07e-8, rel=1e-2)


@pytest.mark.parametrize("orders, eps, kernel", [
    ((8,), 3e-5, 18), ((2, 2, 2), 2e-8, 18), ((6,), 3e-9, 13),
], ids=["F8 eps=3e-05", "F2^3 eps=2e-08", "F6 eps=3e-09"])
def test_perturbed_fourier_file_counts_its_cluster_at_one(orders, eps, kernel, tmp_path, capsys):
    """exp(eps X) F for a Fourier product F, as near-degenerate as
    tests/test_spectral.py's perturbed: greedy clustering at the rank
    threshold once put one more value in the cluster at 1 than the count
    took, and spectrum exited 2 where theorem-check passed."""
    path = str(tmp_path / "perturbed.json")
    save_matrix(path, perturbed(fourier_product(*orders), eps).matrix)
    assert main(["theorem-check", "--matrix-file", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["kernel_dim"], out["berezin_multiplicity_of_one"]) == (kernel, kernel)
    assert main(["spectrum", "--matrix-file", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["multiplicity_of_one"] == out["kernel_method_dim"] == kernel
    assert main(["spectrum", "--matrix-file", path, "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    at_one = [abs(complex(float(re_), float(im)) - 1) < spectral.CLUSTER_TOL
              for re_, im, _, _ in rows]
    ids = [cid for (*_, cid), one in zip(rows, at_one) if one]
    assert len(ids) == kernel and len(set(ids)) == 1
    assert [cid for *_, cid in rows].count(ids[0]) == kernel


@pytest.mark.parametrize("n, seed, eps", [(4, 0, 2.1e-9), (4, 29, 1e-9), (16, 18, 8e-10)])
def test_matrix_file_with_a_unitarity_defect_counts_2n_minus_1(n, seed, eps, tmp_path, capsys):
    """A Haar sample plus eps times a Gaussian, about 5e-9 from unitary:
    the default --tol 1e-8 accepts it, and both commands count the generic
    2n - 1 on its polar factor.  Ranked as written, the defect moved a
    right-phase singular value or an eigenvalue of S at 1 past the rank
    threshold: theorem-check exited 2 at n = 4, spectrum at n = 16."""
    g = np.random.default_rng(seed).standard_normal((n, n, 2)) @ [1, 1j]
    m = haar_random_unitary(n, seed).matrix + eps * g
    assert 4e-9 < np.max(np.abs(m @ m.conj().T - np.eye(n))) < 6e-9
    path = str(tmp_path / "near_unitary.json")
    save_matrix(path, m)
    assert main(["theorem-check", "--matrix-file", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["kernel_dim"], out["berezin_multiplicity_of_one"]) == (2 * n - 1, 2 * n - 1)
    assert main(["spectrum", "--matrix-file", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["multiplicity_of_one"] == out["kernel_method_dim"] == 2 * n - 1


@pytest.mark.parametrize("solver, argv", [
    # F4 has a kernel of 8, past both Cholesky certificates: its SVD and
    # the eigh of its S run
    ("svd", ["theorem-check", "--family", "fourier", "--n", "4"]),
    ("eigh", ["theorem-check", "--family", "fourier", "--n", "4"]),
    ("eigh", ["spectrum", "--family", "haar", "--n", "4"]),
])
def test_solver_failure_exits_2(solver, argv, monkeypatch, capsys):
    # a LinAlgError is a ValueError, but a solver that does not converge is
    # no usage error
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fails)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {solver} did not converge\n"


def test_failed_factorizations_fall_back(monkeypatch, capsys):
    # a Cholesky factorization that always fails leaves both counts to
    # their fallbacks, the SVD and the eigenvalues of S: same verdict
    monkeypatch.setattr(spectral, "_cholesky", lambda *args: False)
    assert main(["theorem-check", "--family", "haar", "--n", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["kernel_dim"], out["berezin_multiplicity_of_one"], out["theorem_holds"]) == (
        31, 31, True)
    assert (out["certified"], out["berezin_certified"]) == (False, False)
    assert len(out["singular_values"]) == 256


@pytest.fixture
def solver_calls(monkeypatch):
    """The shapes of the matrices theorem-check hands to the package's one
    factorization, spectral._cholesky, and to svd, eigh and qr, and the
    shapes of the stacks whose dense Jacobians it builds."""
    calls = {"_cholesky": [], "svd": [], "eigh": [], "qr": [], "_jacobians": []}
    for module, name in [(spectral, "_cholesky"), (np.linalg, "svd"), (np.linalg, "eigh"),
                         (np.linalg, "qr"), (submersion, "_jacobians")]:
        def counted(a, *args, _run=getattr(module, name), _shapes=calls[name], **kwargs):
            _shapes.append(a.shape)
            return _run(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_certified_sample_builds_no_dense_jacobian(solver_calls, capsys):
    # one factorization of the Jacobian's block Gram matrix (p = n^2 - n)
    # and one of the Berezin side's, and nothing else; the QRs are the Haar
    # draw's and the Jacobian side's basis of the n - 1 right phases, and
    # the Berezin side runs none
    assert main(["theorem-check", "--family", "haar", "--n", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] and out["berezin_certified"]
    assert solver_calls == {"_cholesky": [(1, 240, 240), (1, 256, 256)], "svd": [], "eigh": [],
                            "qr": [(1, 16, 16), (1, 240, 15)], "_jacobians": []}


def test_failed_certificate_builds_the_dense_jacobian_once(solver_calls, capsys):
    # F4 has kernel 8: both certificates fail, and the dense Jacobian is
    # built once, for its SVD
    assert main(["theorem-check", "--family", "fourier", "--n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert not out["certified"] and out["kernel_dim"] == 8
    assert solver_calls == {"_cholesky": [(1, 12, 12), (1, 16, 16)], "svd": [(1, 16, 16)],
                            "eigh": [(16, 16)], "qr": [(1, 12, 3)], "_jacobians": [(1, 4, 4)]}


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
