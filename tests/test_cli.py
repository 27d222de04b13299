import functools

import numpy as np
import pytest

import owlball.cli as cli_mod
from owlball import SsnParams
from owlball import bench as bench_mod
from owlball.cli import main
from owlball.io import read_vector, write_vector


class TestVectorIO:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "v.csv"
        v = np.array([1.5, -2.25, 0.0, 1e-17])
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_f64_round_trip(self, tmp_path):
        path = tmp_path / "v.f64"
        v = np.array([np.pi, -1.0 / 3.0, 5e300])
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_single_value_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        write_vector(path, np.array([42.0]))
        got = read_vector(path)
        assert got.shape == (1,)
        assert got[0] == 42.0

    def test_f64_size_not_multiple_of_8_rejected(self, tmp_path):
        path = tmp_path / "v.f64"
        path.write_bytes(bytes(11))
        with pytest.raises(ValueError, match="multiple of 8"):
            read_vector(path)

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_vector(tmp_path / "v.json", np.array([1.0]))
        with pytest.raises(ValueError):
            read_vector(tmp_path / "v.json")


class TestProjectCommand:
    def run_project(self, tmp_path, b, lam, tau, eps=None, ext="f64"):
        bp = tmp_path / f"b.{ext}"
        lp = tmp_path / f"lam.{ext}"
        xp = tmp_path / f"x.{ext}"
        write_vector(bp, np.asarray(b, dtype=np.float64))
        write_vector(lp, np.asarray(lam, dtype=np.float64))
        argv = ["project", "--input", str(bp), "--lambda", str(lp),
                "--tau", str(tau), "--out", str(xp)]
        if eps is not None:
            argv += ["--eps", str(eps)]
        code = main(argv)
        return code, (read_vector(xp) if xp.exists() else None)

    def test_round_trip_f64(self, tmp_path):
        code, x = self.run_project(tmp_path, [3.0, 1.0], [1.0, 1.0], 2.0)
        assert code == 0
        assert np.allclose(x, [2.0, 0.0], atol=1e-12)

    def test_round_trip_csv(self, tmp_path):
        code, x = self.run_project(tmp_path, [-3.0, 1.0], [1.0, 1.0], 2.0,
                                   ext="csv")
        assert code == 0
        assert np.allclose(x, [-2.0, 0.0], atol=1e-12)

    def test_trivial_input_passes_through(self, tmp_path):
        code, x = self.run_project(tmp_path, [1.0, 0.0], [1.0, 1.0], 2.0)
        assert code == 0
        assert np.array_equal(x, [1.0, 0.0])

    def test_nonconvergence_names_the_stop(self, tmp_path, monkeypatch, capsys):
        # One Newton step from 0 cannot reach the root of this
        # non-affine phi', so the solve stops at the iteration cap.
        monkeypatch.setattr(cli_mod, "SsnParams",
                            functools.partial(SsnParams, max_iter=1))
        rng = np.random.default_rng(3)
        b = rng.standard_normal(200)
        lam = np.sort(np.abs(rng.standard_normal(200)))[::-1] + 0.01
        tau = 0.1 * float(np.dot(np.sort(np.abs(b))[::-1], lam))
        code, x = self.run_project(tmp_path, b, lam, tau)
        assert code == 2 and x is not None
        assert "stopped on 'cap'" in capsys.readouterr().err

    def test_invalid_tau_exits_one(self, tmp_path):
        code, _ = self.run_project(tmp_path, [3.0, 1.0], [1.0, 1.0], -2.0)
        assert code == 1

    def test_invalid_weights_exit_one(self, tmp_path):
        code, _ = self.run_project(tmp_path, [3.0, 1.0], [1.0, 2.0], 2.0)
        assert code == 1

    def test_truncated_f64_exits_one(self, tmp_path, capsys):
        # 11 bytes: one float64 plus 3 stray bytes, which must not be
        # read as a one-entry vector.
        (tmp_path / "b.f64").write_bytes(np.array([3.0]).tobytes() + b"abc")
        write_vector(tmp_path / "lam.f64", np.array([1.0]))
        code = main(["project", "--input", str(tmp_path / "b.f64"),
                     "--lambda", str(tmp_path / "lam.f64"),
                     "--tau", "1.0", "--out", str(tmp_path / "x.f64")])
        assert code == 1
        assert "multiple of 8" in capsys.readouterr().err
        assert not (tmp_path / "x.f64").exists()

    def test_nan_entry_exits_one(self, tmp_path):
        code, x = self.run_project(tmp_path, [3.0, np.nan], [1.0, 1.0], 2.0)
        assert code == 1
        assert x is None

    def test_missing_file_exits_one(self, tmp_path):
        code = main(["project", "--input", str(tmp_path / "absent.f64"),
                     "--lambda", str(tmp_path / "absent.f64"),
                     "--tau", "1.0", "--out", str(tmp_path / "x.f64")])
        assert code == 1


class TestBenchCommand:
    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["bench", "--n", "50,100", "--sigma", "1.0",
                     "--beta", "0.5", "--reps", "1", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "beta,n,sigma,solver,rep,time_s,iters_or_evals,eta,objective"
        assert len(lines) == 1 + 2 * 2  # 2 cells x 2 solvers x 1 rep

    def test_markdown_to_stdout(self, capsys):
        code = main(["bench", "--n", "60", "--sigma", "1.0", "--beta", "0.3",
                     "--reps", "1", "--format", "md"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| beta | n | sigma | solver |")

    def test_solver_subset(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["bench", "--n", "50", "--sigma", "1.0", "--beta", "0.5",
                     "--reps", "1", "--solvers", "ssn", "--out", str(out)])
        assert code == 0
        body = out.read_text().strip().split("\n")[1:]
        assert all(",ssn," in line for line in body)

    def test_nonconvergence_exits_two(self, tmp_path, monkeypatch):
        # A Newton solver capped at one iteration stops short of the
        # root, which the harness reports as exit code 2.
        monkeypatch.setattr(bench_mod, "SsnParams",
                            functools.partial(SsnParams, max_iter=1))
        out = tmp_path / "t.csv"
        code = main(["bench", "--n", "500", "--sigma", "1.0",
                     "--beta", "0.3,0.7", "--reps", "3",
                     "--solvers", "ssn", "--out", str(out)])
        assert code == 2
        assert out.exists()  # results are still written

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--format", "xml"])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_bad_grid_value_exits_one(self, tmp_path):
        code = main(["bench", "--n", "50", "--sigma", "1.0", "--beta", "1.5",
                     "--reps", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 1
