import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qflab.cli as cli
from qflab.cli import build_parser, emit, execute_plan, main, parse_invocation


def run_cli(argv):
    return execute_plan(parse_invocation(argv))


def test_parse_examples_from_usage():
    plan = parse_invocation(["repr", "congruence-sum", "--form", "1,0,1",
                             "--ell", "2", "--x", "1e5"])
    assert (plan.group, plan.action) == ("repr", "congruence-sum")
    assert plan.params["ell"] == 2 and plan.params["x"] == 1e5

    plan = parse_invocation(["fourier", "search", "--A", "28", "--terms", "3"])
    assert (plan.group, plan.action) == ("fourier", "search")
    assert plan.params["A"] == 28.0

    plan = parse_invocation(["forms", "reduce", "--form", "2,-2,3"])
    records = execute_plan(plan)
    assert (records[0]["a"], records[0]["b"], records[0]["c"]) == (2, 2, 3)


def test_usage_errors_exit_2():
    for argv in (
        ["repr", "rf", "--form", "1,0,1", "--n", "5", "--bogus", "7"],
        ["repr", "rf", "--form", "1,0,1"],
        ["forms", "reduce", "--form", "1,0"],
        ["nonsense"],
        ["repr", "error-scaling", "--form", "1,0,1", "--grid", "bad:grid"],
        # NaN and the infinities have no JSON spelling
        ["fourier", "eval", "--coeffs", "68,5,1", "--x", "nan"],
        ["fourier", "eval", "--coeffs", "68,5,1", "--x", "-inf"],
        ["fourier", "eval", "--coeffs", "68,nan,1", "--x", "0.25"],
        ["fourier", "report", "--coeffs", "inf,1", "--A", "2"],
        ["sieve", "pif", "--form", "1,0,1", "--x", "nan"],
        ["sieve", "bound", "--form", "1,0,1", "--x", "1e4", "--y", "1e3", "--z", "inf"],
        ["sieve", "bound", "--form", "1,0,1", "--x", "1e4", "--y", "nan", "--z", "5"],
        ["repr", "poisson-check", "--form", "1,1,1", "--ell", "3", "--t", "inf"],
        ["repr", "error-scaling", "--form", "1,0,1", "--ell", "3", "--grid", "1e3:nan:3"],
        ["repr", "error-scaling", "--form", "1,0,1", "--grid=-1e308:1e308:3"],
        ["fourier", "search", "--A", "nan"],
        ["fourier", "tables", "--a-grid", "1:inf:2"],
        ["fourier", "report", "--coeffs", "1,0", "--A", "2", "--lam", "nan"],
        ["sieve", "bt-constants", "--form", "1,0,1", "--x", "1e18", "--y", "1e8", "--eps", "inf"],
        # an int option refuses a float's text, a choice an unknown word
        ["repr", "error-scaling", "--form", "1,0,1", "--ell", "2.5"],
        ["fourier", "tables", "--terms", "2.0"],
        ["fourier", "tables", "--budget", "1e3"],
        ["sieve", "bt-constants", "--form", "1,0,1", "--x", "1e18", "--y", "1e8",
         "--variant", "nope"],
        # every option comes from the command line; --config is refused
        ["repr", "rf", "--form", "1,0,1", "--n", "5", "--config", "c.json"],
        # the congruence sums are normalized by x^(1/3) and sqrt(x)
        ["repr", "congruence-sum", "--form", "1,0,1", "--x", "0"],
        ["repr", "congruence-sum", "--form", "1,0,1", "--x", "-8"],
        ["repr", "error-scaling", "--form", "1,0,1", "--grid", "0:1e3:3"],
    ):
        with pytest.raises(SystemExit) as exc:
            parse_invocation(argv)
        assert exc.value.code == 2


def test_json_refuses_non_finite_floats(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fourier", "eval", "--coeffs", "68,5,1", "--x", "nan"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "qflab fourier eval: error: argument --x: 'nan' is not finite"]
    for records in ([{"x": 1.0}, {"x": float("nan")}], {"x": np.array([1.0, -np.inf])}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit(records, "json", io.StringIO())


def test_rf_and_pif_values():
    assert run_cli(["repr", "rf", "--form", "1,0,1", "--n", "5"])[0]["rf"] == 8
    assert run_cli(["sieve", "pif", "--form", "1,0,1", "--x", "20"])[0]["pi_f"] == 4


def test_fourier_report_with_a_huge_coefficient(capsys):
    rows = []
    for coeffs in ("1e300,1", "1,0"):
        assert main(["fourier", "report", "--coeffs", coeffs, "--A", "2"]) == 0
        rows.append(json.loads(capsys.readouterr().out))
    assert abs(rows[0]["j_plus"] - rows[1]["j_plus"]) <= 1e-12


def test_search_and_tables_refuse_budget_below_one(monkeypatch, capsys):
    from qflab import fourier

    def refuse(*args, **kwargs):
        raise AssertionError("the search evaluated")

    monkeypatch.setattr(fourier, "_hat_tails", refuse)
    for argv in (["fourier", "search", "--A", "5", "--budget", "0"],
                 ["fourier", "search", "--A", "5", "--budget", "-5"],
                 ["fourier", "tables", "--a-grid", "1:5:2", "--budget", "0"]):
        with pytest.raises(ValueError, match="need budget >= 1"):
            main(argv)
    assert capsys.readouterr().out == ""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "qflab.cli", "fourier", "search", "--A", "5",
                           "--budget", "0"], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode != 0 and "need budget >= 1" in proc.stderr
    assert proc.stdout == ""


def test_poisson_record():
    rec = run_cli(["repr", "poisson-check", "--form", "1,1,1",
                   "--ell", "3", "--t", "0.7"])[0]
    assert rec["relative_gap"] < 1e-10


def test_json_round_trip(tmp_path):
    records = run_cli(["repr", "congruence-sum", "--form", "2,1,3",
                       "--ell", "3", "--x", "12345"])
    buf = io.StringIO()
    emit(records, "json", buf)
    parsed = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert parsed[0]["exact"] == records[0]["exact"]
    assert parsed[0]["main"] == records[0]["main"]  # repr round-trips


def test_csv_round_trip():
    records = run_cli(["fourier", "report", "--coeffs", "68,5,1",
                       "--lam", "0.98644", "--A", "28"])
    buf = io.StringIO()
    emit(records, "csv", buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert float(rows[0]["j_plus"]) == pytest.approx(records[0]["j_plus"], rel=1e-5)


class WriteLog(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("chunk", [4096, 3])
def test_emit_streams_iterables_in_chunks(monkeypatch, chunk):
    # a row list is written in one pass whatever the chunk size; the same
    # rows as a column table are written in chunks of _EMIT_CHUNK rows
    monkeypatch.setattr(cli, "_EMIT_CHUNK", chunk)
    rows = [{"n": i, "x": i / 7, "odd": i % 2 == 1} for i in range(10)]
    want_json = "".join(json.dumps(r) + "\n" for r in rows)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(list(rows[0]))
    for r in rows:
        writer.writerow([format(v, ".6g") if isinstance(v, float) else v for v in r.values()])
    for fmt, want in (("json", want_json), ("csv", ref.getvalue())):
        out = io.StringIO()
        emit(rows, fmt, out)
        assert out.getvalue() == want
        empty = WriteLog()
        emit([], fmt, empty)
        assert empty.getvalue() == "" and empty.writes == 0
        out = WriteLog()
        emit(_columns(rows), fmt, out)
        assert out.getvalue() == want
        assert out.writes == -(-len(rows) // chunk)


def _rows(columns):
    return [dict(zip(columns, row)) for row in zip(*(col.tolist() for col in columns.values()))]


def _columns(rows):
    """The column table of the row dicts: numpy arrays of their bools, ints
    or floats."""
    return {k: np.array([r[k] for r in rows]) for k in rows[0]}


@pytest.mark.parametrize("chunk", [4096, 3])
def test_column_table_matches_row_emit(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_EMIT_CHUNK", chunk)
    table = {"p_n": np.array([2, 3, 5, 7, 11, 13, 2**63 - 1, -4]),
             "gap": np.array([1, 2, 2, 4, 2, 4, 0, 7]),
             "normalized": np.array([0.1, 1e-7, 2.5e22, -0.0, 1 / 3, 123456.5, 7.0, -2e-300]),
             "is_max": np.array([False] * 6 + [True, False])}  # the max sits in a later chunk
    one_row = {k: v[:1] for k, v in table.items()}
    for fmt in ("json", "csv"):
        for columns in (table, one_row):
            want = io.StringIO()
            emit(_rows(columns), fmt, want)
            out = WriteLog()
            emit(columns, fmt, out)
            assert out.getvalue() == want.getvalue()
            assert out.writes == -(-len(columns["p_n"]) // chunk)
        empty = WriteLog()
        emit({k: v[:0] for k, v in table.items()}, fmt, empty)
        assert empty.getvalue() == "" and empty.writes == 0


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_column_writer_matches_json_and_csv_per_row(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_EMIT_CHUNK", chunk)
    n = 4100
    table = _columns([{"p_n": 7 * i - 50, "gap": i % 13,
                       "normalized": (i - 2000) / 7 * 10.0 ** (i % 41 - 20),
                       "is_max": i == 4095}  # 4095: a chunk edge at each size
                      for i in range(n)])
    rows = _rows(table)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(list(table))
    for r in rows:
        writer.writerow([format(v, ".6g") if isinstance(v, float) else v for v in r.values()])
    for fmt, want in (("json", "".join(json.dumps(r) + "\n" for r in rows)),
                      ("csv", ref.getvalue())):
        out = WriteLog()
        emit(table, fmt, out)
        assert out.getvalue() == want
        assert out.writes == -(-n // chunk)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 4096])
def test_column_writer_shares_digits_only_between_next_row_views(monkeypatch, chunk):
    """A column that is another's next row in one buffer takes its digits
    from the other's rendering; equal values in distinct arrays, or views at
    another offset, are rendered on their own.  Every case writes the row
    oracle's bytes, in JSON and CSV, at chunk edges."""
    monkeypatch.setattr(cli, "_EMIT_CHUNK", chunk)
    rendered = []
    slots = cli._slots
    monkeypatch.setattr(cli, "_slots", lambda col, fmt: rendered.append(len(col)) or slots(col, fmt))
    p = np.array([-(2 ** 63), -7, 0, 9, 10, 99, 2 ** 63 - 1, 1234567, 5, -10 ** 11, 3, 2])
    cases = [({"p_n": p[:-1], "gap": np.diff(p), "p_next": p[1:]}, True),
             ({"p_next": p[1:], "p_n": p[:-1]}, True),  # the next row first
             ({"p_n": p[:-1].copy(), "p_next": p[1:].copy()}, False),
             ({"a": p, "b": p.copy()}, False),
             ({"p_n": p[:-2], "p_next": p[2:]}, False),
             ({"p_n": p[0:10:2], "p_next": p[1:11:2]}, False)]  # one element on, not one row
    for columns, shared in cases:
        n = len(next(iter(columns.values())))
        for fmt in ("json", "csv"):
            want = io.StringIO()
            emit(_rows(columns), fmt, want)
            out = io.StringIO()
            rendered.clear()
            emit(columns, fmt, out)
            assert out.getvalue() == want.getvalue()
            chunks = -(-n // chunk)
            assert len(rendered) == chunks * (len(columns) - shared)
            assert sum(rendered) == n * len(columns) - shared * (n - chunks)


def test_sieve_gaps_bytes_match_a_row_oracle(capsys):
    from qflab.forms import QuadraticForm
    from qflab.sieve import represented_primes

    x, min_p = 2.1e5, 100
    ps = represented_primes(QuadraticForm(1, 1, 2), x).tolist()
    rows = [{"p_n": p, "p_next": q, "gap": q - p,
             "normalized": (q - p) / (math.sqrt(p) * math.log(p))}
            for p, q in zip(ps, ps[1:])]
    best = max((r for r in rows if r["p_n"] >= min_p), key=lambda r: r["normalized"])
    for r in rows:
        r["is_max"] = r is best
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(list(rows[0]))
    for r in rows:
        writer.writerow([format(v, ".6g") if isinstance(v, float) else v for v in r.values()])
    want = {"json": "".join(json.dumps(r) + "\n" for r in rows), "csv": ref.getvalue()}
    for fmt in ("json", "csv"):
        assert main(["--format", fmt, "sieve", "gaps", "--form", "1,1,2", "--x", str(x),
                     "--min-p", str(min_p)]) == 0
        assert capsys.readouterr().out == want[fmt]
    assert len(rows) > 5000


def _column_json(values) -> str:
    out = io.StringIO()
    emit({"x": np.array(values)}, "json", out)
    return out.getvalue()


def _row_json(values) -> str:
    out = io.StringIO()
    emit([{"x": v} for v in values], "json", out)
    return out.getvalue()


def _fallbacks(values) -> int:
    # values of a JSON float column left to float.__repr__
    slots, rest = cli._float_bytes(np.asarray(values, dtype=np.float64))
    return rest.size


def test_float_text_matches_repr_on_any_double():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=1, max_size=40))
    def check(values):
        assert _column_json(values) == _row_json(values)

    check()


def test_float_text_matches_repr_across_every_binade():
    rng = np.random.default_rng(2024)
    # 40 random significands in each binade of the doubles, and 2,000 in
    # each binade that meets [1e-6, 1e6), where the digits are computed
    mant = rng.integers(0, 2 ** 52, size=(2046, 40), dtype=np.uint64)
    expo = np.arange(1, 2047, dtype=np.uint64)[:, None] << np.uint64(52)
    every = (mant | expo).view(np.float64).ravel()
    inner = np.ldexp(rng.uniform(1, 2, size=(41, 2000)), np.arange(-20, 21)[:, None]).ravel()
    x = np.concatenate([every, inner]) * rng.choice([-1.0, 1.0], size=every.size + inner.size)
    assert x.size >= 10 ** 5
    assert _column_json(x) == _row_json(x.tolist())
    a = np.abs(x)
    assert _fallbacks(x) == np.count_nonzero((a < 1e-6) | (a >= 1e6))


def test_float_text_at_the_edges():
    twos = [2.0 ** e for e in range(-22, 22)]
    edges = ([v for t in twos for v in (np.nextafter(t, 0), t, np.nextafter(t, 2 * t))]
             + [1e-4, 9.999999999999999e-05, 0.1, 1 / 3, 0.9999999999999999, 1e-5, 1e-6,
                np.nextafter(1e-6, 1), np.nextafter(1e6, 0), 999999.9999999999, 123456.5,
                np.nextafter(1e16, 0), 1e16, 1.5, 2.5e-5, 0.3, 2 / 3])
    edges = [float(v) for v in edges]
    values = edges + [-v for v in edges] + [0.0, -0.0, 5e-324, 1e6, 1e300]
    assert _column_json(values) == _row_json(values)
    inside = [v for v in edges if 1e-6 <= v < 1e6]
    assert _fallbacks(inside) == 0


def test_float_text_falls_back_to_repr(monkeypatch):
    # 10.7340240478515625 is a double halfway between two 17-digit decimals:
    # such a tie, like any decision near its bound, is left to repr
    tie = [10.7340240478515625, 0.5, 0.1]
    assert _fallbacks(tie) == 1
    assert _column_json(tie) == _row_json(tie)
    monkeypatch.setattr(cli, "_FLOAT_BAND", 1.0)  # every decision in the band
    values = np.linspace(1e-3, 1e3, 5000)
    assert _fallbacks(values) == values.size
    assert _column_json(values) == _row_json(values.tolist())


def test_int_text_at_the_int64_edges(monkeypatch):
    ints = [0, 7, -1, -10, 10 ** 18, -(2 ** 63), 2 ** 63 - 1]
    for chunk in (1, 4096):
        monkeypatch.setattr(cli, "_EMIT_CHUNK", chunk)
        assert _column_json(ints) == _row_json(ints)


def test_column_writer_refuses_other_dtypes():
    for column in (np.arange(3, dtype=np.int32), np.arange(3, dtype=np.uint64),
                   np.ones(3, dtype=np.float32), [1, 2, 3]):
        for fmt in ("json", "csv"):
            with pytest.raises(TypeError, match="bool, int64 or float64"):
                emit({"x": column}, fmt, io.StringIO())


def test_column_writer_memory_is_per_chunk():
    class Sink:
        def write(self, text):
            pass

    rng = np.random.default_rng(5)
    peaks = []
    for n in (2 ** 17, 2 ** 19):
        p = np.cumsum(rng.integers(1, 200, n + 1))
        table = {"p_n": p[:-1], "p_next": p[1:], "gap": np.diff(p),
                 "normalized": rng.uniform(0, 2, n), "is_max": np.arange(n) == n // 2}
        tracemalloc.start()
        emit(table, "json", Sink())
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


def test_column_writer_stops_at_the_first_failing_chunk(monkeypatch):
    """A chunk that cannot be rendered raises in the caller after exactly
    the chunks before it were written, a failing write propagates, and no
    render thread outlives emit either way."""
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 7)
    rows = [{"n": i, "x": i / 7} for i in range(40)]
    bad = _columns(rows)
    bad["x"][15] = np.nan  # in the third chunk, rows 14 to 20
    threads = threading.active_count()
    out = WriteLog()
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit(bad, "json", out)
    assert out.getvalue() == "".join(json.dumps(r) + "\n" for r in rows[:14])
    assert out.writes == 2 and threading.active_count() == threads

    class FailingSink(WriteLog):
        def write(self, text):
            if self.writes == 1:
                raise OSError("the second write fails")
            return super().write(text)

    out = FailingSink()
    with pytest.raises(OSError, match="the second write fails"):
        emit(_columns(rows), "json", out)
    assert out.writes == 1 and threading.active_count() == threads
    out = WriteLog()
    emit(_columns(rows), "json", out)
    assert out.writes == 6 and threading.active_count() == threads
    # an interrupt in the first chunk of the round of rows 14 to 27, which
    # the calling thread renders, and in its second, which a thread renders
    slots = cli._slots
    for first_row, writes in ((14, 2), (21, 3)):
        def interrupt(chunk, fmt, first_row=first_row):
            if chunk.dtype == np.int64 and chunk[0] == first_row:
                raise KeyboardInterrupt
            return slots(chunk, fmt)

        monkeypatch.setattr(cli, "_slots", interrupt)
        out = WriteLog()
        with pytest.raises(KeyboardInterrupt):
            emit(_columns(rows), "json", out)
        assert out.getvalue() == "".join(json.dumps(r) + "\n" for r in rows[:first_row])
        assert out.writes == writes and threading.active_count() == threads


def test_column_writer_starts_no_thread_for_one_chunk(monkeypatch):
    """A table of at most _EMIT_CHUNK rows, or of none, is rendered on the
    calling thread alone, with the row encoder's bytes."""
    def refuse(thread):
        raise AssertionError("a render thread was started")

    monkeypatch.setattr(cli.threading.Thread, "start", refuse)
    rows = [{"p_n": 3 * i, "normalized": i / 7 - 3.0, "is_max": i == 99}
            for i in range(cli._EMIT_CHUNK)]
    for fmt in ("json", "csv"):
        for table in (rows, rows[:1]):
            want = io.StringIO()
            emit(table, fmt, want)
            out = WriteLog()
            emit(_columns(table), fmt, out)
            assert out.getvalue() == want.getvalue() and out.writes == 1
        empty = WriteLog()
        emit({k: v[:0] for k, v in _columns(rows).items()}, fmt, empty)
        assert empty.getvalue() == "" and empty.writes == 0


def test_column_writer_starts_one_thread_per_chunk_after_each_rounds_first(monkeypatch):
    """Each chunk is rendered by one job: 49 rows in chunks of 7 make 7
    chunks in 4 rounds of at most 2, and the calling thread renders each
    round's first, so 3 threads start."""
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 7)
    start = threading.Thread.start
    started = []

    def counted(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(cli.threading.Thread, "start", counted)
    rows = [{"p_n": 3 * i, "normalized": i / 7 - 3.0, "is_max": i == 20} for i in range(49)]
    chunks, rounds = 7, -(-7 // cli._EMIT_THREADS)
    for fmt in ("json", "csv"):
        want = io.StringIO()
        emit(rows, fmt, want)
        out = WriteLog()
        started.clear()
        emit(_columns(rows), fmt, out)
        assert out.getvalue() == want.getvalue() and out.writes == chunks
        assert len(started) == chunks - rounds == 3, fmt


def test_column_writer_order_under_many_threads_and_switches(monkeypatch):
    """More render threads than cores, switching every microsecond, still
    write every chunk once and in order."""
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 1)
    monkeypatch.setattr(cli, "_EMIT_THREADS", 5)
    rows = [{"p_n": 3 * i, "normalized": i / 7 - 3.0, "is_max": i == 99} for i in range(300)]
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for fmt in ("json", "csv"):
            want = io.StringIO()
            emit(rows, fmt, want)
            out = WriteLog()
            emit(_columns(rows), fmt, out)
            assert out.getvalue() == want.getvalue() and out.writes == len(rows)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def test_closed_pipe_ends_without_a_traceback():
    """A reader that closes stdout after one line (`| head -n 1`) ends the
    command with exit status 141 and no traceback: the table's three chunks
    are each far larger than the pipe's buffer."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen([sys.executable, "-m", "qflab.cli", "sieve", "gaps", "--form",
                           "1,1,2", "--x", "1e6", "--min-p", "100"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            status = proc.wait(timeout=300)
        finally:
            proc.kill()
    assert json.loads(first)["p_n"] == 2
    assert b"Traceback" not in err and status == cli._EXIT_BROKEN_PIPE, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("out", [None, "/dev/full"])
def test_failed_write_ends_with_one_error_line(out):
    """A write into a full device, on stdout or through --out, ends the
    command with exit status 74 (EX_IOERR) and one error line, no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "qflab.cli"] + (["--out", out] if out else [])
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(argv + ["sieve", "gaps", "--form", "1,1,2", "--x", "1e6"],
                              env=env, stdout=full, stderr=subprocess.PIPE, timeout=300)
    assert proc.returncode == cli._EXIT_WRITE_FAILED, proc.stderr
    assert proc.stderr.decode().splitlines() == ["qflab: error: No space left on device"]


def test_out_file_that_cannot_be_opened_is_named(monkeypatch, tmp_path, capsys):
    path = tmp_path / "missing" / "rows.json"
    status = main(["--out", str(path), "forms", "reduce", "--form", "2,-2,3"])
    assert status == cli._EXIT_WRITE_FAILED
    assert capsys.readouterr().err == f"qflab: error: No such file or directory: {path}\n"

    # the path is opened before the work, which never starts
    def refuse(plan):
        raise AssertionError("the command ran before --out was opened")

    monkeypatch.setattr(cli, "execute_plan", refuse)
    status = main(["--out", str(path), "sieve", "pif", "--form", "1,0,1", "--x", "1e8"])
    assert status == cli._EXIT_WRITE_FAILED
    assert capsys.readouterr().err == f"qflab: error: No such file or directory: {path}\n"


def test_command_that_fails_leaves_its_out_file_empty(monkeypatch, tmp_path, capsys):
    path = tmp_path / "gaps.json"
    with pytest.raises(ValueError, match="fewer than two represented primes"):
        main(["--out", str(path), "sieve", "gaps", "--form", "1,0,1", "--x", "3"])
    assert path.read_bytes() == b""

    # an OSError of the work is the library's, not a failed write's status 74
    def fail(plan):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(cli, "execute_plan", fail)
    with pytest.raises(OSError):
        main(["--out", str(path), "forms", "reduce", "--form", "2,-2,3"])
    assert capsys.readouterr().err == ""


def test_out_file_matches_stdout(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 7)
    for fmt in ("json", "csv"):
        argv = ["--format", fmt, "sieve", "gaps", "--form", "1,1,2", "--x", "3000",
                "--min-p", "10"]
        records = execute_plan(parse_invocation(argv))
        assert isinstance(records, dict)
        assert [(k, col.dtype.kind) for k, col in records.items()] == [
            ("p_n", "i"), ("p_next", "i"), ("gap", "i"), ("normalized", "f"), ("is_max", "b")]
        assert len({len(col) for col in records.values()}) == 1
        assert (records["p_n"][1:] == records["p_next"][:-1]).all()
        assert records["is_max"].sum() == 1
        assert main(argv) == 0
        out = capsys.readouterr().out
        path = tmp_path / f"gaps.{fmt}"
        assert main(["--out", str(path)] + argv) == 0
        assert path.read_bytes() == out.encode() and out.count("\n") > 20


def test_determinism_byte_identical(tmp_path, capsys):
    argv = ["repr", "error-scaling", "--form", "1,0,1", "--ell", "2",
            "--grid", "1e3:1e5:4:log"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first


def test_out_file(tmp_path):
    path = tmp_path / "rows.json"
    assert main(["--out", str(path), "forms", "enumerate", "--d", "108"]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"D": 108, "a": 1, "b": 0, "c": 27}


_ERROR_SCALING = ["repr", "error-scaling", "--form", "1,0,1"]


@pytest.mark.parametrize("argv, text, key", [
    (_ERROR_SCALING, '{"nonsense": 1}', "nonsense"),
    (_ERROR_SCALING, '{"ell": 2.5}', "ell"),
    (_ERROR_SCALING, '{"ell": true}', "ell"),
    (_ERROR_SCALING, '{"grid": [1000, NaN]}', "grid"),
    (_ERROR_SCALING, '{"grid": [1000, [2000]]}', "grid"),
    (_ERROR_SCALING, '{"grid": []}', "grid"),
    (_ERROR_SCALING, '{"grid": "1e3:inf:3"}', "grid"),
    (["repr", "poisson-check", "--form", "1,1,1"], '{"t": Infinity}', "t"),
    (["fourier", "eval", "--coeffs", "1", "--x", "0"], '{"lam": NaN}', "lam"),
    (["fourier", "tables"], '{"terms": 2.0}', "terms"),
    (["fourier", "tables"], '{"budget": 1e3}', "budget"),
    (["sieve", "bt-constants", "--form", "1,0,1", "--x", "1e18", "--y", "1e8"],
     '{"variant": "nope"}', "variant"),
    (["sieve", "bt-constants", "--form", "1,0,1", "--x", "1e18", "--y", "1e8"],
     '{"variant": 1}', "variant"),
])
def test_config_values_take_the_options_type(capsys, argv, text, key):
    """Every option comes from the command line, so a value once read from a
    JSON config, typed as the option's text (a JSON string without its
    quotes), meets the option's own type or choices: exit 2 and one error
    line naming the option."""
    value = text[1:-1].split(": ", 1)[1]
    if value.startswith('"'):
        value = json.loads(value)
    with pytest.raises(SystemExit) as exc:
        parse_invocation(argv + [f"--{key}", value])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"--{key}" in errors[0], errors


def test_classnum_record():
    rec = run_cli(["forms", "classnum", "--d", "23"])[0]
    assert rec["h_enumeration"] == 3 and rec["h_analytic"] == 3
    rec = run_cli(["forms", "classnum", "--d", "108"])[0]
    assert rec["h_enumeration"] == 3 and "h_analytic" not in rec


def test_classnum_does_each_piece_of_work_once(monkeypatch):
    """At a fundamental D the forms are enumerated once, inside
    class_number_analytic's cross-check, and S = _chi_moment(D) is computed
    once (_chi_period runs once per computation) for both h and L(1, chi)."""
    from qflab import arith
    from qflab.arith import dirichlet_l1
    from qflab.forms import enumerate_reduced_forms

    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    enumerate_counted = counted("enumerate_reduced_forms", enumerate_reduced_forms)
    monkeypatch.setattr(cli, "enumerate_reduced_forms", enumerate_counted)
    monkeypatch.setattr(arith, "enumerate_reduced_forms", enumerate_counted)
    monkeypatch.setattr(arith, "_chi_period", counted("_chi_period", arith._chi_period))
    D = 2999
    arith._chi_moment.cache_clear()
    rec = run_cli(["forms", "classnum", "--d", str(D)])[0]
    assert sorted(calls) == ["_chi_period", "enumerate_reduced_forms"]
    assert list(rec) == ["D", "h_enumeration", "h_analytic", "L1_chi"]
    assert rec["h_enumeration"] == rec["h_analytic"] == len(enumerate_reduced_forms(D)) == 73
    assert rec["L1_chi"] == dirichlet_l1(D)
    calls.clear()
    assert run_cli(["forms", "classnum", "--d", "108"])[0] == {"D": 108, "h_enumeration": 3}
    assert calls == ["enumerate_reduced_forms"]


def test_bt_constants_record():
    rec = run_cli(["sieve", "bt-constants", "--form", "1,0,1", "--x", "1e18",
                   "--y", "1e8", "--variant", "cuberoot_range", "--eps", "0.01"])[0]
    assert rec["constant"] == pytest.approx(26.86, abs=0.01)
    assert rec["range_ok"] is True


# a value for each required option of the command table
_REQUIRED = {"form": "1,0,1", "d": "23", "n": "5", "x": "10", "y": "2", "z": "3",
             "coeffs": "1,0", "A": "28"}


def test_every_command_parses_to_its_table_defaults():
    for (group, action), (_, options) in cli._COMMANDS.items():
        required = [dest for dest, kw in options.items() if "default" not in kw]
        argv = [group, action]
        for dest in required:
            argv += ["--" + dest.replace("_", "-"), _REQUIRED[dest]]
        plan = parse_invocation(argv)
        want = {dest: options[dest]["type"](_REQUIRED[dest]) for dest in required}
        for dest, kw in options.items():
            if "default" in kw:
                # argparse passes a string default through the option's type
                text = isinstance(kw["default"], str) and "type" in kw
                want[dest] = kw["type"](kw["default"]) if text else kw["default"]
        assert (plan.group, plan.action) == (group, action)
        assert plan.params == want, (group, action)
    assert len(cli._COMMANDS) == 17


def test_parser_help_covers_all_groups():
    parser = build_parser()
    help_text = parser.format_help()
    for word in ("forms", "repr", "sieve", "fourier", "verify"):
        assert word in help_text


def test_one_command_parser_gives_the_full_parsers_plan(monkeypatch, capsys):
    argvs = [
        ["--format", "csv", "--out", "x.csv", "fourier", "search", "--A", "5", "--terms", "1"],
        ["fourier", "report", "--coeffs", "68,-5,1", "--A", "28", "--lam", "0.5"],
        ["repr", "rf", "--form", "1,0,1", "--n", "5", "--out", "o"],
        ["verify", "fast", "--out", "report.txt"],
        ["sieve", "gaps", "--form", "1,1,2", "--x", "1e3", "--format", "csv"],
    ]
    plans = [parse_invocation(argv) for argv in argvs]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build_parser())
    assert [parse_invocation(argv) for argv in argvs] == plans
    assert built == [("fourier", "search"), ("fourier", "report"), ("repr", "rf"),
                     ("verify", "fast"), ("sieve", "gaps")]
    for argv, status in ((["--help"], 0), (["fourier", "--help"], 0), (["fourier", "nope"], 2),
                         (["fourier", "search", "--help"], 0)):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            parse_invocation(argv)
        assert exc.value.code == status
        assert built == [("fourier", "search") if "search" in argv else None]
    assert "tables" in capsys.readouterr().out


def test_sweeps_run_in_process_whatever_the_environment(monkeypatch, capsys):
    import concurrent.futures

    argvs = [["repr", "error-scaling", "--form", "2,1,3", "--ell", "3", "--grid", "1e3:3e4:5:log"],
             ["fourier", "tables", "--a-grid", "1:5:2", "--budget", "60"]]
    monkeypatch.delenv("QFLAB_THREADS", raising=False)
    serial = []
    for argv in argvs:
        assert main(argv) == 0
        serial.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setenv("QFLAB_THREADS", "3")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for argv, want in zip(argvs, serial):
        assert main(argv) == 0
        assert capsys.readouterr().out == want


def test_error_scaling_rows_and_slope_match_the_library():
    from qflab.forms import QuadraticForm
    from qflab.latticesums import error_scaling_report

    grid = cli._grid_arg("1e3:1e5:6:log")
    rows = run_cli(["repr", "error-scaling", "--form", "2,1,3", "--ell", "3",
                    "--grid", "1e3:1e5:6:log"])
    rep = error_scaling_report(QuadraticForm(2, 1, 3), 3, grid)
    assert rep.slope is not None
    assert [{k: v for k, v in r.items() if k != "slope"} for r in rows] == rep.records()
    assert all(r["slope"] == rep.slope for r in rows)


def test_verify_subcommand_routing(monkeypatch):
    import qflab.cli as cli

    calls = []
    monkeypatch.setattr(cli._verify, "run_suite", lambda suite, out: calls.append(suite) or 0)
    assert main(["verify", "fast"]) == 0
    assert calls == ["fast"]
    with pytest.raises(SystemExit) as exc:
        parse_invocation(["verify", "slow"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, status, to_file", [
    (["--out", "report.txt", "verify", "fast"], 0, True),
    (["verify", "fast", "--out", "report.txt"], 0, True),
    (["verify", "fast"], 0, False),
    (["--format", "csv", "verify", "fast"], 2, False),
    (["verify", "fast", "--format", "json"], 2, False),
    (["verify", "fast", "--config", "empty.json"], 2, False),
])
def test_verify_option_contract(monkeypatch, tmp_path, capsys, argv, status, to_file):
    """verify parses --out and --format like every command: the report goes
    to --out or stdout, and --format is refused, as --config is, with one
    error line."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text("{}")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == status
    assert (tmp_path / "report.txt").exists() == to_file
    report = (tmp_path / "report.txt").read_text() if to_file else out
    if status == 0:
        assert report.endswith("10/10 checks passed (fast suite)\n")
        assert report.count("\n") == 11 and out == ("" if to_file else report)
    else:
        assert out == ""
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


def test_verify_failure_exit_status(monkeypatch, capsys):
    failing = lambda fast: cli._verify.CheckResult("planted", False, "no")
    monkeypatch.setattr(cli._verify, "CHECKS", [failing])
    assert main(["verify", "full"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0/1 checks passed (full suite)"


def test_verify_writes_each_line_as_its_check_ends(monkeypatch, tmp_path):
    """The report streams: when the second check runs, the first check's
    line is already in the --out file."""
    report = tmp_path / "report.txt"
    first = lambda fast: cli._verify.CheckResult("first", True, "done")

    def second(fast):
        text = report.read_text() if report.exists() else ""
        return cli._verify.CheckResult("second", text == first(fast).line() + "\n", repr(text))

    monkeypatch.setattr(cli._verify, "CHECKS", [first, second])
    assert main(["--out", str(report), "verify", "fast"]) == 0
    assert report.read_text().splitlines()[-1] == "2/2 checks passed (fast suite)"


_COLD_START = """
import contextlib, io, json, sys
from qflab import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["verify", "fast"])
heavy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
               or m == "concurrent.futures.process")
print(json.dumps({"status": status, "heavy": heavy}))
"""


def test_cold_start_loads_no_scipy_or_process_pool():
    """A fresh interpreter (this one already holds scipy) runs the CLI on
    numpy and the standard library alone."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"status": 0, "heavy": []}
