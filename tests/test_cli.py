"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import json
import math
import time

import numpy as np
import pytest

from metricmi import (
    BiasFit,
    KernelConfig,
    KsgConfig,
    MetricSpec,
    distance_matrix,
    load_dataset,
    subsample_curve,
    subsample_draws,
)
from metricmi import estimators
from metricmi.cli import main


def run_cli(argv):
    return main(argv)


class TestGenToy:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli(["gen-toy", "--ns", "10", "--nd", "3", "--nt", "10",
                        "--seed", "1", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 100
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(["gen-toy", "--ns", "3", "--nd", "2", "--nt", "5",
                     "--seed", "7", "-o", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code = run_cli(["gen-toy", "--ns", "1", "--nd", "3", "--nt", "10",
                        "-o", str(tmp_path / "d.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDistances:
    def test_matrix_csv(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0,0.0\n0,1.0\n1,3.0\n1,6.0\n")
        out = tmp_path / "dm.csv"
        assert run_cli(["distances", "--input", str(data), "--metric", "euclidean",
                        "-o", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()]
        m = np.array(rows)
        assert m.shape == (4, 4)
        assert np.array_equal(m, m.T)
        assert m[0, 2] == 3.0

    def test_spike_metric(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0 1 0.1\n0 1 0.2\n1 1 0.5\n1 0\n")
        out = tmp_path / "dm.csv"
        code = run_cli(["distances", "--input", str(data), "--format", "spike-text",
                        "--metric", "victor-purpura", "--q", "1.0", "-o", str(out)])
        assert code == 0
        m = np.array([[float(v) for v in r.split(",")] for r in out.read_text().splitlines()])
        assert m[0, 1] == pytest.approx(0.1, abs=1e-12)
        assert m[0, 3] == 1.0

    def test_spike_without_metric_is_usage_error(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0 1 0.1\n1 0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["distances", "--input", str(data), "--format", "spike-text",
                     "-o", str(tmp_path / "dm.csv")])
        assert exc.value.code == 2


class TestEstimate:
    def _gen(self, tmp_path, sigma2="1e-12", seed="1"):
        data = tmp_path / "d.csv"
        run_cli(["gen-toy", "--ns", "10", "--nd", "3", "--nt", "10",
                 "--sigma2", sigma2, "--seed", seed, "-o", str(data)])
        return data

    def test_defaults_recover_stimulus_entropy_exactly(self, tmp_path, capsys):
        data = self._gen(tmp_path)
        assert run_cli(["estimate", "--input", str(data)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["estimator"] == "kernel"
        assert out["config"]["n_h"] == 10
        assert out["bits"] == math.log2(10)

    def test_kernel_bits_within_bounds(self, tmp_path, capsys):
        data = self._gen(tmp_path, sigma2="0.25")
        assert run_cli(["estimate", "--input", str(data), "--format", "csv-vectors",
                        "--metric", "euclidean", "--kernel", "--nh", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert math.log2(10 / 10) <= out["bits"] <= math.log2(10)

    def test_ksg_and_histogram(self, tmp_path, capsys):
        data = self._gen(tmp_path, sigma2="0.1")
        assert run_cli(["estimate", "--input", str(data), "--ksg", "--nk", "3"]) == 0
        ksg = json.loads(capsys.readouterr().out)
        assert ksg["estimator"] == "ksg" and math.isfinite(ksg["bits"])
        assert run_cli(["estimate", "--input", str(data), "--histogram",
                        "--bin-width", "5.0"]) == 0
        hist = json.loads(capsys.readouterr().out)
        assert hist["estimator"] == "histogram"
        assert 0.0 <= hist["bits"] <= math.log2(10) + 1e-12

    def test_bias_correct_payload(self, tmp_path, capsys):
        data = self._gen(tmp_path, sigma2="0.05")
        assert run_cli(["estimate", "--input", str(data), "--bias-correct",
                        "--lambdas", "0.2,0.4,0.6,0.8,1.0", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("curve", "intercept_bits", "A_bits", "B_bits", "residual"):
            assert key in out
        assert len(out["curve"]) == 5
        assert out["curve"][-1][0] == 10

    def test_default_curve_is_the_library_default(self, tmp_path, capsys):
        # at n_t = 10 the default grid drops lam = 0.1, in the CLI as in the library
        data = self._gen(tmp_path, sigma2="0.05")
        assert run_cli(["estimate", "--input", str(data), "--bias-correct"]) == 0
        out = json.loads(capsys.readouterr().out)
        ds = load_dataset(str(data), "csv-vectors")
        dm = distance_matrix(ds, MetricSpec.euclidean())
        curve = subsample_curve(ds, dm, KernelConfig(n_h=10), subsample_draws(ds, seed=0))
        assert [n for n, _ in out["curve"]] == list(range(2, 11))
        assert out["curve"] == [[n, bits] for n, bits in curve]

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_non_finite_bits_exit_one(self, tmp_path, capsys):
        # every point at 0: the n_h = 2 nearest of a stimulus-1 point are both
        # lower-index stimulus-0 points, so c = 0 and the estimate is -inf
        data = tmp_path / "d.csv"
        data.write_text("0,0\n0,0\n1,0\n1,0\n")
        out = tmp_path / "e.json"
        for output in ([], ["-o", str(out)]):
            assert run_cli(["estimate", "--input", str(data), "--nh", "2", *output]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: non-finite bits")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["curve", "intercept_bits", "A_bits", "B_bits", "residual"])
    def test_non_finite_bias_fit_exits_one(self, tmp_path, capsys, monkeypatch, key):
        fields = {"intercept_bits": 1.0, "A_bits": 0.5, "B_bits": 0.25, "residual": 0.0}
        curve = [(n, 1.0) for n in (4, 7, 10)]
        if key == "curve":
            curve[1] = (7, math.nan)
        else:
            fields[key] = -math.inf if key == "A_bits" else math.nan
        monkeypatch.setattr("metricmi.cli.bias_corrected_mi",
                            lambda *args, **kwargs: (BiasFit(**fields), curve, 1.0))
        data = self._gen(tmp_path)
        out = tmp_path / "e.json"
        assert run_cli(["estimate", "--input", str(data), "--bias-correct",
                        "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: non-finite {key} (")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--ksg", "--nk", "2"]], ids=["kernel", "ksg"])
    def test_bias_correct_sorts_the_matrix_once(self, tmp_path, matrix_sorts, flags):
        data = self._gen(tmp_path, sigma2="0.05")
        assert run_cli(["estimate", "--input", str(data), *flags, "--bias-correct",
                        "--lambdas", "0.4,0.6,0.8,1.0", "-o", str(tmp_path / "e.json")]) == 0
        # one prefix of every row, the few rows counts leave short, and at
        # most one full sort: no row sorted more than three times over
        assert [s for s in matrix_sorts if s[1] == 100] in ([], [(100, 100)])
        assert sum(rows for rows, _ in matrix_sorts) <= 300

    def test_fraction_bias_correct_sorts_every_row_once(self, tmp_path, matrix_sorts):
        # h * n_r = 91.5: the estimate's own prefix, ceil(2 * h * n_r) = 183
        # columns, already holds what every subsample asks for
        data = tmp_path / "d.csv"
        run_cli(["gen-toy", "--ns", "10", "--nd", "3", "--nt", "61", "--sigma2", "0.3",
                 "--seed", "1", "-o", str(data)])
        assert run_cli(["estimate", "--input", str(data), "--kernel", "--h-frac", "0.15",
                        "--bias-correct", "-o", str(tmp_path / "e.json")]) == 0
        assert sum(rows for rows, _ in matrix_sorts) == 610
        assert {width for _, width in matrix_sorts} == {183}

    @pytest.mark.parametrize("lambdas", [[], ["--lambdas", "0.4,0.6,0.8"]],
                             ids=["default-grid", "no-full-fraction"])
    @pytest.mark.parametrize("flags", [
        [], ["--nh", "25"], ["--h-frac", "0.15"], ["--ksg", "--nk", "3"],
        ["--histogram", "--bin-width", "0.5"],
    ], ids=["kernel", "nh", "h-frac", "ksg", "histogram"])
    def test_bias_correct_raw_value_is_the_plain_estimate(self, tmp_path, capsys, flags,
                                                          lambdas):
        # the raw value comes from the curve's own call: its point at n_t, or
        # a subset of all points that the curve and the fit leave out
        data = tmp_path / "d.csv"
        run_cli(["gen-toy", "--ns", "5", "--nd", "3", "--nt", "21", "--sigma2", "0.3",
                 "--seed", "2", "-o", str(data)])
        capsys.readouterr()
        assert run_cli(["estimate", "--input", str(data), *flags]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert run_cli(["estimate", "--input", str(data), *flags, "--bias-correct",
                        *lambdas]) == 0
        corrected = json.loads(capsys.readouterr().out)
        assert repr(corrected["bits"]) == repr(plain["bits"])
        assert json.dumps(corrected["config"]) == json.dumps(plain["config"])
        sizes = [n for n, _ in corrected["curve"]]
        if lambdas:
            assert sizes == [8, 12, 16]
        else:
            assert sizes[-1] == 21

    @pytest.mark.parametrize("lambdas", [[], ["--lambdas", "0.4,0.6,0.8"]],
                             ids=["default-grid", "no-full-fraction"])
    def test_ksg_bias_correct_builds_one_neighbor_table(self, tmp_path, monkeypatch, lambdas):
        # the raw value and every subsample come from one subset_bits call
        calls = {"tables": 0, "subset_bits": 0}
        real_init, real_bits = estimators.NeighborTable.__init__, KsgConfig.subset_bits

        def init(self, *args):
            calls["tables"] += 1
            real_init(self, *args)

        def subset_bits(self, *args):
            calls["subset_bits"] += 1
            return real_bits(self, *args)

        monkeypatch.setattr(estimators.NeighborTable, "__init__", init)
        monkeypatch.setattr(KsgConfig, "subset_bits", subset_bits)
        data = self._gen(tmp_path, sigma2="0.1")
        assert run_cli(["estimate", "--input", str(data), "--ksg", "--nk", "3",
                        "--bias-correct", *lambdas, "-o", str(tmp_path / "e.json")]) == 0
        assert calls == {"tables": 1, "subset_bits": 1}

    def test_ksg_default_grid_sorts_the_matrix_once(self, tmp_path, matrix_sorts):
        # the smallest subsample comes first and reads the widest prefix, here
        # the whole order; every later subset and all points read within it
        data = tmp_path / "d.csv"
        run_cli(["gen-toy", "--ns", "10", "--nd", "3", "--nt", "60", "--seed", "3",
                 "-o", str(data)])
        assert run_cli(["estimate", "--input", str(data), "--ksg", "--nk", "3",
                        "--bias-correct", "-o", str(tmp_path / "e.json")]) == 0
        assert list(matrix_sorts) == [(600, 600)]

    @pytest.mark.parametrize("lambdas", [[], ["--lambdas", "0.4,0.6,0.8"]],
                             ids=["default-grid", "no-full-fraction"])
    def test_kernel_count_sorts_one_prefix_of_every_row(self, tmp_path, matrix_sorts,
                                                        lambdas):
        # every subset first reads 2 * n_h = 50 columns, the width of all
        # points, whichever subset comes first: one prefix of every row, then
        # only the few rows a count leaves short, and no full sort
        data = tmp_path / "d.csv"
        run_cli(["gen-toy", "--ns", "10", "--nd", "3", "--nt", "60", "--seed", "3",
                 "-o", str(data)])
        assert run_cli(["estimate", "--input", str(data), "--nh", "25", "--bias-correct",
                        *lambdas, "-o", str(tmp_path / "e.json")]) == 0
        assert sum(rows for rows, width in matrix_sorts if width == 50) == 600
        short = [rows for rows, width in matrix_sorts if width != 50]
        assert all(rows < 600 // 8 for rows in short) and sum(short) < 600 // 8
        assert all(width < 600 for _, width in matrix_sorts)

    @pytest.mark.parametrize("flags, fewest", [
        (["--ksg", "--nk", "3"], 4), (["--nh", "5"], 4), (["--h-frac", "0.02"], 5),
    ], ids=["ksg", "nh", "h-frac"])
    def test_default_grid_keeps_the_fractions_the_estimator_evaluates(
        self, tmp_path, capsys, flags, fewest
    ):
        # at n_t = 20, lam = 0.1 leaves 2 trials: too few for n_k = 3, and a
        # bandwidth of 5 * 2 // 20 = 0 points; h = 0.02 needs 5 of each of
        # the 10 stimuli, and lam = 0.3 is the first to leave that many
        data = tmp_path / "d.csv"
        run_cli(["gen-toy", "--ns", "10", "--nd", "3", "--nt", "20", "--sigma2", "0.3",
                 "--seed", "4", "-o", str(data)])
        capsys.readouterr()
        assert run_cli(["estimate", "--input", str(data), *flags, "--bias-correct"]) == 0
        sizes = [n for n, _ in json.loads(capsys.readouterr().out)["curve"]]
        assert sizes == [n for n in range(2, 21, 2) if n >= fewest]
        # fractions given explicitly are not dropped: the first too small one fails
        assert run_cli(["estimate", "--input", str(data), *flags, "--bias-correct",
                        "--lambdas", "0.1,0.5,1.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fraction 0.1 leaves 2 trials per stimulus; ")
        assert err.endswith(f" needs at least {fewest}\n")

    def test_ksg_on_too_few_trials_fails_on_all_points(self, tmp_path, capsys):
        # no fraction helps when all points are too few: the estimator says so
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{s},{x}\n" for s in (0, 1) for x in (0.5, 1.5, 2.5)))
        assert run_cli(["estimate", "--input", str(data), "--ksg", "--nk", "3",
                        "--bias-correct"]) == 1
        assert capsys.readouterr().err == (
            "error: n_k = 3 needs at least 4 trials per stimulus, dataset has n_t = 3\n")

    def test_kernel_wider_than_the_data_fails_on_all_points(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{s},{x}\n" for s in (0, 1, 2) for x in range(12)))
        assert run_cli(["estimate", "--input", str(data), "--kernel", "--nh", "37",
                        "--bias-correct"]) == 1
        assert capsys.readouterr().err == "error: n_h = 37 exceeds the 36 data points\n"

    def test_output_file_and_determinism(self, tmp_path):
        data = self._gen(tmp_path, sigma2="0.3")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(["estimate", "--input", str(data), "--bias-correct",
                     "--seed", "5", "-o", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = run_cli(["estimate", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unbalanced_input_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,1.0\n0,2.0\n1,3.0\n")
        assert run_cli(["estimate", "--input", str(data)]) == 1
        assert "stimulus" in capsys.readouterr().err

    def test_histogram_cell_overflow_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,1e30\n0,2e30\n1,5\n1,6\n")
        assert run_cli(["estimate", "--input", str(data), "--histogram",
                        "--bin-width", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "int64" in captured.err

    @pytest.mark.parametrize("command", ["estimate", "distances"])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch, command):
        def no_memory(dataset, metric):
            raise MemoryError()

        monkeypatch.setattr("metricmi.cli.distance_matrix", no_memory)
        data = self._gen(tmp_path)
        assert run_cli([command, "--input", str(data), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert "n_r = 100" in err and f"{8 * 100 * 100} bytes" in err
        # kernel and KSG also hold an int64 neighbor order, up to as large as the matrix
        if command == "estimate":
            assert f"neighbor order up to another {8 * 100 * 100}, besides working arrays" in err
        else:
            assert "neighbor order" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("estimator", ["kernel_mi", "ksg_mi", "bias_corrected_mi"])
    def test_out_of_memory_in_estimator_names_both_arrays(
        self, tmp_path, capsys, monkeypatch, estimator
    ):
        # the neighbor order is allocated after the matrix, inside the estimator
        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(f"metricmi.cli.{estimator}", no_memory)
        data = self._gen(tmp_path)
        flags = ["--ksg", "--nk", "2"] if estimator == "ksg_mi" else []
        if estimator == "bias_corrected_mi":
            flags = ["--bias-correct"]
        assert run_cli(["estimate", "--input", str(data), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert f"{8 * 100 * 100} bytes" in err
        assert f"neighbor order up to another {8 * 100 * 100}, besides working arrays" in err

    def test_ksg_without_nk_is_usage_error(self, tmp_path):
        data = self._gen(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["estimate", "--input", str(data), "--ksg"])
        assert exc.value.code == 2

    def test_conflicting_bandwidths_usage_error(self, tmp_path):
        data = self._gen(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["estimate", "--input", str(data), "--nh", "5", "--h-frac", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "--kernel", "--nk", "3"], "--nk"),
        (["estimate", "--ksg", "--nk", "2", "--nh", "3"], "--nh"),
        (["estimate", "--ksg", "--nk", "2", "--h-frac", "0.5"], "--h-frac"),
        (["estimate", "--kernel", "--bin-width", "1"], "--bin-width"),
        (["estimate", "--origin", "0.5"], "--origin"),
        (["estimate", "--histogram", "--bin-width", "1", "--nh", "3"], "--nh"),
        (["estimate", "--histogram", "--bin-width", "1", "--metric", "van-rossum",
          "--tau", "1"], "--metric"),
        (["estimate", "--histogram", "--bin-width", "1", "--q", "1"], "--q"),
        (["estimate", "--metric", "euclidean", "--q", "1"], "--q"),
        (["estimate", "--metric", "victor-purpura", "--q", "1", "--tau", "1"], "--tau"),
        (["distances", "--metric", "van-rossum", "--tau", "1", "--q", "1"], "--q"),
        (["distances", "--tau", "1"], "--tau"),
        (["estimate", "--lambdas", "0.5,1.0"], "--lambdas"),
        (["estimate", "--repeats", "3"], "--repeats"),
        (["estimate", "--ksg", "--nk", "2", "--seed", "1"], "--seed"),
    ])
    def test_flag_nothing_reads_is_usage_error(self, tmp_path, capsys, argv, flag):
        data = self._gen(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--input", str(data), "-o", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"error: {flag} applies only to " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--histogram"], "--histogram requires --bin-width"),
        (["estimate", "--ksg"], "--ksg requires --nk"),
        (["estimate", "--nh", "5", "--h-frac", "0.5"], "give at most one of --nh and --h-frac"),
        (["estimate", "--metric", "victor-purpura"], "--metric victor-purpura requires --q"),
        (["estimate", "--metric", "van-rossum"], "--metric van-rossum requires --tau"),
        (["distances", "--metric", "victor-purpura"], "--metric victor-purpura requires --q"),
        (["distances", "--metric", "van-rossum"], "--metric van-rossum requires --tau"),
    ], ids=["histogram", "ksg", "nh-and-h-frac", "estimate-vp", "estimate-vr",
            "distances-vp", "distances-vr"])
    def test_usage_error_before_input_is_read(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--input", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["estimate", "--bogus"])
        assert exc.value.code == 2


class TestDrawMemory:
    """A --repeats whose subsample indices cannot fit fails at once: no draw, matrix or probe."""

    HUGE = 10**20

    def _fails_at_once(self, argv, capsys, monkeypatch, need):
        def never(*args, **kwargs):
            raise AssertionError("started before the memory check")

        for name in ("data._choice_batch", "cli.distance_matrix", "toybench._candidate_block"):
            monkeypatch.setattr(f"metricmi.{name}", never)
        capsys.readouterr()
        start = time.perf_counter()
        assert run_cli([*argv, "--repeats", str(self.HUGE)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory: repeats = {self.HUGE}: ")
        assert f" need {need} bytes, more than the " in err and "distance matrix" not in err
        monkeypatch.undo()
        assert run_cli([*argv, "--repeats", "3"]) == 0

    def test_estimate(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        run_cli(["gen-toy", "--ns", "3", "--nd", "2", "--nt", "10", "-o", str(data)])
        argv = ["estimate", "--input", str(data), "--bias-correct", "--lambdas", "0.3,0.5,1"]
        self._fails_at_once(argv, capsys, monkeypatch, 8 * 3 * (self.HUGE * 8 + 10))

    def test_benchmark(self, tmp_path, capsys, monkeypatch):
        # sizes 2..9 of 10 trials, and all 10; a dataset's kernel and histogram curves
        argv = ["benchmark", "--ns", "3", "--nd", "2", "--nt", "10", "--datasets", "1",
                "--no-prune", "--mc-samples", "100", "--threads", "1", "-o", str(tmp_path)]
        self._fails_at_once(argv, capsys, monkeypatch, 2 * 8 * 3 * (self.HUGE * 44 + 10))


class TestBenchmark:
    def _run(self, tmp_path, name, threads):
        out = tmp_path / name
        code = run_cli(["benchmark", "--ns", "3", "--nd", "2", "--nt", "12",
                        "--datasets", "10", "--seed", "4", "--mc-samples", "2000",
                        "--threads", str(threads), "-o", str(out)])
        assert code == 0
        return out

    def test_outputs_and_thread_independence(self, tmp_path, capsys):
        first = self._run(tmp_path, "run1", threads=1)
        second = self._run(tmp_path, "run2", threads=2)
        capsys.readouterr()
        records = (first / "records.csv").read_text().splitlines()
        assert records[0] == "seed,sigma2,true_bits,kernel_bits,hist_bits,hist_width"
        assert len(records) == 11  # header + one row per dataset
        summary = json.loads((first / "summary.json").read_text())
        assert summary["accepted"] == 10
        assert len((first / "scatter.dat").read_text().splitlines()) == 10
        for name in ("records.csv", "summary.json", "scatter.dat"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_summary_printed(self, tmp_path, capsys):
        self._run(tmp_path, "run3", threads=2)
        out = capsys.readouterr().out
        assert json.loads(out)["accepted"] == 10
