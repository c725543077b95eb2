import numpy as np
import pytest

from monarch import io
from monarch.cli import main
from monarch.core import monarch_to_dense, random_monarch
from monarch.errors import BadSize, DimensionMismatch, NonFiniteValue, ParseError
from oracles import sylvester_hadamard


def run(*argv):
    return main(list(argv))


class TestFileFormats:
    def test_round_trip_100_instances_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        count = 0
        for seed in range(25):
            rows, cols = rng.integers(1, 12, size=2)
            a = rng.standard_normal((rows, cols))
            path = tmp_path / f"r{seed}.dmat"
            io.write_dmat(path, a)
            assert np.array_equal(io.read_dmat(path), a)
            count += 1
            c = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            path = tmp_path / f"c{seed}.dmat"
            io.write_dmat(path, c)
            assert np.array_equal(io.read_dmat(path), c)
            count += 1
        for seed in range(25):
            for field in ("real", "complex"):
                m = random_monarch(16, 4, seed=seed, field=field)
                path = tmp_path / f"m{seed}{field}.mon"
                io.write_mon(path, m)
                back = io.read_mon(path)
                assert np.array_equal(back.ltilde.blocks, m.ltilde.blocks)
                assert np.array_equal(back.r.blocks, m.r.blocks)
                count += 1
        assert count == 100

    def test_seventeen_digit_values(self, tmp_path):
        a = np.array([[1.0 / 3.0, np.pi], [-0.0, 1e-300]])
        path = tmp_path / "v.dmat"
        io.write_dmat(path, a)
        back = io.read_dmat(path)
        assert np.array_equal(back, a)
        assert np.signbit(back[1, 0])  # negative zero survives

    def test_malformed_inputs(self, tmp_path):
        bad = tmp_path / "bad.dmat"
        bad.write_text("dmat 2 2 real\n1 2 3\n")
        with pytest.raises(ParseError):
            io.read_dmat(bad)
        bad.write_text("dmat 2 two real\n1 2 3 4\n")
        with pytest.raises(ParseError):
            io.read_dmat(bad)
        bad.write_text("monarch 16 5 real\n")
        with pytest.raises(ParseError):
            io.read_mon(bad)
        bad.write_text("dmat 2 2 real\n1 2 3 nan\n")
        with pytest.raises(ParseError):
            io.read_dmat(bad)
        bad.write_text("")
        with pytest.raises(ParseError):
            io.read_any(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writers_refuse_non_finite_values(self, tmp_path, bad):
        a = np.ones((3, 3))
        a[1, 2] = bad
        path = tmp_path / "a.dmat"
        with pytest.raises(NonFiniteValue):
            io.write_dmat(path, a + 1j * np.ones((3, 3)))
        with pytest.raises(NonFiniteValue):
            io.write_dmat(path, a)
        m = random_monarch(16, 4, seed=0)
        m.r.blocks[3, 0, 1] = bad
        mon = tmp_path / "m.mon"
        with pytest.raises(NonFiniteValue):
            io.write_mon(mon, m)
        assert not path.exists() and not mon.exists()

    def test_write_dmat_refuses_non_matrix(self, tmp_path):
        # a bad shape is the caller's error, not a malformed file
        path = tmp_path / "a.dmat"
        for a in (np.ones(4), np.ones((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(DimensionMismatch, match="2-D"):
                io.write_dmat(path, a)
        assert not path.exists()

    def test_read_any_opens_each_file_once(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open, raising=False)
        dmat, mon = tmp_path / "a.dmat", tmp_path / "m.mon"
        io.write_dmat(dmat, np.eye(4))
        io.write_mon(mon, random_monarch(16, 4, seed=0))
        opened.clear()
        assert io.read_any(dmat)[0] == "dmat"
        assert opened == [dmat]
        assert io.read_any(mon)[0] == "monarch"
        assert opened == [dmat, mon]


class TestGen:
    def test_hadamard_matches_sylvester(self, tmp_path):
        out = tmp_path / "h4.dmat"
        assert run("gen", "--kind", "hadamard", "--n", "4", "--out", str(out)) == 0
        assert np.array_equal(io.read_dmat(out), sylvester_hadamard(4))

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.mon", tmp_path / "b.mon"
        for path in (a, b):
            assert run("gen", "--kind", "monarch", "--n", "16", "--b", "4", "--seed", "7",
                       "--out", str(path)) == 0
        assert a.read_text() == b.read_text()

    def test_dft_requires_power_of_two(self, tmp_path):
        code = run("gen", "--kind", "dft", "--n", "6", "--out", str(tmp_path / "x.dmat"))
        assert code == 2

    def test_zero_size_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "z.dmat"
        assert run("gen", "--kind", "dense-random", "--n", "0", "--out", str(out)) == 2
        assert "sizes must be positive" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(BadSize):
            io.write_dmat(out, np.zeros((3, 0)))
        assert not out.exists()

    def test_dft_matrix_contents(self, tmp_path):
        out = tmp_path / "dft8.dmat"
        assert run("gen", "--kind", "dft", "--n", "8", "--out", str(out)) == 0
        got = io.read_dmat(out)
        j, k = np.indices((8, 8))
        want = np.exp(-2j * np.pi * j * k / 8)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestProjectCommand:
    def test_member_report(self, tmp_path, capsys):
        src = tmp_path / "m.mon"
        run("gen", "--kind", "monarch", "--n", "16", "--b", "4", "--seed", "1", "--out", str(src))
        out = tmp_path / "p.mon"
        report = tmp_path / "p.txt"
        assert run("project", "--in", str(src), "--b", "4", "--out", str(out),
                   "--report", str(report)) == 0
        text = report.read_text()
        rel = float(text.splitlines()[2].split()[1])
        assert rel <= 1e-11
        assert "note:" in text  # gauge warning present

    def test_idempotent_residual(self, tmp_path, capsys):
        src = tmp_path / "a.dmat"
        run("gen", "--kind", "dense-random", "--n", "16", "--seed", "3", "--out", str(src))
        first = tmp_path / "p1.mon"
        assert run("project", "--in", str(src), "--b", "4", "--out", str(first)) == 0
        out1 = capsys.readouterr().out
        second = tmp_path / "p2.mon"
        assert run("project", "--in", str(first), "--b", "4", "--out", str(second)) == 0
        # re-projecting the projected dense leaves the factors unchanged
        d1 = monarch_to_dense(io.read_mon(first))
        d2 = monarch_to_dense(io.read_mon(second))
        assert np.linalg.norm(d1 - d2) <= 1e-11 * np.linalg.norm(d1)

    def test_missing_file(self, tmp_path):
        assert run("project", "--in", str(tmp_path / "nope.dmat"), "--b", "4",
                   "--out", str(tmp_path / "o.mon")) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected_by_reader(self, tmp_path, capsys, bad):
        # the file reader refuses non-finite values (exit 3) before any solver runs
        src = tmp_path / "bad.dmat"
        values = ["1.0"] * 16
        values[6] = bad
        src.write_text("dmat 4 4 real\n" + " ".join(values) + "\n")
        out = tmp_path / "o.mon"
        assert run("project", "--in", str(src), "--b", "2", "--out", str(out)) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_overflow_exits_2(self, tmp_path, capsys):
        # finite factors whose dense product overflows reach the solver as inf
        m = random_monarch(16, 4, seed=2)
        m.ltilde.blocks[:] *= 1e200
        m.r.blocks[:] *= 1e200
        src = tmp_path / "big.mon"
        io.write_mon(src, m)
        out = tmp_path / "o.mon"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("project", "--in", str(src), "--b", "4", "--out", str(out))
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestFactorizeCommand:
    def test_constructed_instance(self, tmp_path, capsys):
        src = tmp_path / "mm.dmat"
        run("gen", "--kind", "mmstar", "--n", "16", "--b", "4", "--seed", "2", "--out", str(src))
        prefix = str(tmp_path / "f")
        assert run("factorize", "--in", str(src), "--b", "4", "--out-prefix", prefix) == 0
        text = (tmp_path / "f.report.txt").read_text()
        err = float(text.splitlines()[0].split()[1])
        assert err <= 1e-8
        # reconstruct from the three dense factor files
        from monarch.indexing import BlockPermutation
        from oracles import permutation_matrix

        l1 = io.read_dmat(prefix + ".l1.dmat")
        r = io.read_dmat(prefix + ".r.dmat")
        l2 = io.read_dmat(prefix + ".l2.dmat")
        pm = permutation_matrix(BlockPermutation(4, 16))
        recon = pm.T @ l1 @ pm @ r @ pm.T @ l2 @ pm
        orig = io.read_dmat(src)
        assert np.linalg.norm(recon.real - orig) <= 1e-8 * np.linalg.norm(orig)

    def test_identity_exits_4_naming_assumption(self, tmp_path, capsys):
        src = tmp_path / "eye.dmat"
        io.write_dmat(src, np.eye(16))
        code = run("factorize", "--in", str(src), "--b", "4", "--out-prefix", str(tmp_path / "z"))
        assert code == 4
        assert "assumption 1" in capsys.readouterr().err

    def test_dense_overflow_exits_2(self, tmp_path, capsys):
        # finite factors whose dense product overflows reach the solver as inf
        m = random_monarch(16, 4, seed=2)
        m.ltilde.blocks[:] *= 1e200
        m.r.blocks[:] *= 1e200
        src = tmp_path / "big.mon"
        io.write_mon(src, m)
        prefix = tmp_path / "f"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("factorize", "--in", str(src), "--b", "4", "--out-prefix", str(prefix))
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "f.report.txt").exists()

    def test_malformed_header(self, tmp_path):
        src = tmp_path / "bad.dmat"
        src.write_text("dmat x y real\n")
        assert run("factorize", "--in", str(src), "--b", "4",
                   "--out-prefix", str(tmp_path / "z")) == 3


class TestMatvecCommand:
    def test_monarch_and_dense_agree(self, tmp_path):
        # a real x of 1 or 3 columns against a real or complex matrix
        for field in ("real", "complex"):
            mon = tmp_path / "m.mon"
            run("gen", "--kind", "monarch", "--n", "16", "--b", "4", "--seed", "4", "--field", field,
                "--out", str(mon))
            dense_path = tmp_path / "m.dmat"
            io.write_dmat(dense_path, monarch_to_dense(io.read_mon(mon)))
            for cols in (1, 3):
                x = np.random.default_rng(5).standard_normal((16, cols))
                xpath = tmp_path / "x.dmat"
                io.write_dmat(xpath, x)
                y1, y2 = tmp_path / "y1.dmat", tmp_path / "y2.dmat"
                assert run("matvec", "--in", str(mon), "--x", str(xpath), "--out", str(y1)) == 0
                assert run("matvec", "--in", str(dense_path), "--x", str(xpath), "--out", str(y2)) == 0
                a, b = io.read_dmat(y1), io.read_dmat(y2)
                assert a.shape == b.shape == (16, cols)
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)

    def test_overflowing_product_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # a finite .mon whose product overflows: the writer refuses the
        # non-finite result instead of leaving a file the reader rejects
        m = random_monarch(16, 4, seed=0)
        m.ltilde.blocks[:] *= 1e200
        m.r.blocks[:] *= 1e200
        mon, xpath, out = tmp_path / "big.mon", tmp_path / "x.dmat", tmp_path / "y.dmat"
        io.write_mon(mon, m)
        io.write_dmat(xpath, np.ones((16, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("matvec", "--in", str(mon), "--x", str(xpath), "--out", str(out))
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_length_vector(self, tmp_path):
        mon = tmp_path / "m.mon"
        run("gen", "--kind", "monarch", "--n", "16", "--b", "4", "--out", str(mon))
        dense_path = tmp_path / "m.dmat"
        io.write_dmat(dense_path, monarch_to_dense(io.read_mon(mon)))
        xpath, out = tmp_path / "x.dmat", tmp_path / "y.dmat"
        for src in (mon, dense_path):
            for cols in (1, 3):
                io.write_dmat(xpath, np.ones((8, cols)))
                assert run("matvec", "--in", str(src), "--x", str(xpath), "--out", str(out)) == 2
                assert not out.exists()


class TestBenchCommand:
    def test_flop_columns_deterministic(self, capsys):
        assert run("bench", "--sizes", "64,256", "--reps", "1") == 0
        rows1 = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert run("bench", "--sizes", "64,256", "--reps", "5") == 0
        rows5 = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        for r1, r5 in zip(rows1, rows5):
            assert r1[5:] == r5[5:]  # flop columns identical, timings may differ
        assert rows1[1][6] == str(256 * 16 + 256 * 256 // 16)

    def test_invalid_sizes(self):
        assert run("bench", "--sizes", "0") == 2
        assert run("bench", "--sizes", "100,7", "--b-policy", "sqrt") == 2


class TestVerifyCommand:
    def test_bd_member(self, tmp_path):
        from monarch.structured import BlockDiagMatrix

        dense = BlockDiagMatrix(np.random.default_rng(6).standard_normal((4, 2, 2))).to_dense()
        path = tmp_path / "bd.dmat"
        io.write_dmat(path, dense)
        assert run("verify", "--in", str(path), "--class", "bd", "--b", "2") == 0

    def test_wrong_blocking_reports_violation(self, tmp_path, capsys):
        from monarch.structured import BlockDiagMatrix

        rng = np.random.default_rng(7)
        dense = BlockDiagMatrix(rng.uniform(0.5, 1.0, (2, 4, 4))).to_dense()
        path = tmp_path / "bd.dmat"
        io.write_dmat(path, dense)
        assert run("verify", "--in", str(path), "--class", "bd", "--b", "2") == 1
        out = capsys.readouterr().out
        assert "fail at entry" in out

    @pytest.mark.parametrize("cls", ["bd", "db"])
    def test_first_violation_is_row_major(self, tmp_path, capsys, cls):
        from monarch.structured import BlockDiagMatrix, DiagBlockMatrix

        rng = np.random.default_rng(9)
        if cls == "bd":
            dense = BlockDiagMatrix(rng.uniform(0.5, 1.0, (4, 2, 2))).to_dense()
            dense[5, 1] = dense[3, 6] = 1.0
            outside = lambda i, j: i // 2 != j // 2
        else:
            dense = DiagBlockMatrix(b_row=2, b_col=2, entries=rng.uniform(0.5, 1.0, (4, 4, 2))).to_dense()
            dense[6, 3] = dense[4, 7] = 1.0
            outside = lambda i, j: i % 2 != j % 2
        want = next((i, j) for i in range(8) for j in range(8) if dense[i, j] != 0 and outside(i, j))
        path = tmp_path / "a.dmat"
        io.write_dmat(path, dense)
        assert run("verify", "--in", str(path), "--class", cls, "--b", "2") == 1
        assert capsys.readouterr().out.strip() == f"{cls} membership: fail at entry {want}"

    def test_db_member(self, tmp_path):
        from monarch.structured import DiagBlockMatrix

        rng = np.random.default_rng(8)
        dense = DiagBlockMatrix(b_row=2, b_col=2, entries=rng.standard_normal((4, 4, 2))).to_dense()
        path = tmp_path / "db.dmat"
        io.write_dmat(path, dense)
        assert run("verify", "--in", str(path), "--class", "db", "--b", "2") == 0

    def test_monarch_slices_on_projected_output(self, tmp_path):
        src = tmp_path / "a.dmat"
        run("gen", "--kind", "dense-random", "--n", "16", "--seed", "9", "--out", str(src))
        proj = tmp_path / "p.mon"
        run("project", "--in", str(src), "--b", "4", "--out", str(proj))
        assert run("verify", "--in", str(proj), "--class", "monarch-slices") == 0

    def test_random_dense_fails_slices(self, tmp_path):
        src = tmp_path / "a.dmat"
        run("gen", "--kind", "dense-random", "--n", "16", "--seed", "10", "--out", str(src))
        assert run("verify", "--in", str(src), "--class", "monarch-slices", "--b", "4") == 1


class TestZeroBlockSize:
    """b = 0 fails the blocking rule before any n % b is formed: exit 2 with
    the BadBlocking message, not a ZeroDivisionError traceback."""

    MESSAGE = "need b | n and 1 < b < n, got b=0"

    @pytest.fixture
    def dense(self, tmp_path):
        path = tmp_path / "d.dmat"
        io.write_dmat(path, np.random.default_rng(0).standard_normal((16, 16)))
        return path

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "g.mon"
        assert run("gen", "--kind", "monarch", "--n", "64", "--b", "0", "--out", str(out)) == 2
        assert self.MESSAGE in capsys.readouterr().err
        assert not out.exists()

    def test_project(self, tmp_path, dense, capsys):
        assert run("project", "--in", str(dense), "--b", "0", "--out", str(tmp_path / "p.mon")) == 2
        assert self.MESSAGE in capsys.readouterr().err

    def test_factorize(self, tmp_path, dense, capsys):
        assert run("factorize", "--in", str(dense), "--b", "0", "--out-prefix", str(tmp_path / "f")) == 2
        assert self.MESSAGE in capsys.readouterr().err

    def test_bench(self, capsys):
        assert run("bench", "--sizes", "64", "--b-policy", "fixed:0", "--reps", "1") == 2
        assert self.MESSAGE in capsys.readouterr().err


class TestPipeline:
    def test_gen_project_verify(self, tmp_path):
        mon = tmp_path / "m.mon"
        assert run("gen", "--kind", "monarch", "--n", "16", "--b", "4", "--seed", "11",
                   "--out", str(mon)) == 0
        proj = tmp_path / "p.mon"
        assert run("project", "--in", str(mon), "--b", "4", "--out", str(proj)) == 0
        assert run("verify", "--in", str(proj), "--class", "monarch-slices") == 0
        # dense forms agree even though factor files may differ by gauge
        d1 = monarch_to_dense(io.read_mon(mon))
        d2 = monarch_to_dense(io.read_mon(proj))
        assert np.linalg.norm(d1 - d2) <= 1e-11 * np.linalg.norm(d1)

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "nonsense", "--n", "4", "--out", "x")
        assert exc.value.code == 2
