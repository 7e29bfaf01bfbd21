import ast
import dataclasses
import hashlib
import io
import json
import logging
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import optbench
from optbench import (
    Architecture,
    CsvRowError,
    Dataset,
    GbdtConfig,
    IncompatibleModelError,
    LayerSpec,
    MlpTrainConfig,
    SchemaError,
    THREE_LAYER,
    TreeEnsemble,
    ValidationError,
    forward,
    load_model,
    predict_gbdt,
    read_csv,
    save_model,
    train_gbdt,
    train_mlp,
    write_csv,
)
from optbench.core import QUOTE_COLUMNS, QUOTE_WIDTH
from optbench.gbdt import Tree
from optbench import ingest
from optbench.ingest import (
    MAGIC_NET,
    MAGIC_TREES,
    _WRITE_CHUNK,
    load_model_and_manifest,
    write_file,
    write_rows,
)

from conftest import make_dataset, make_quote, make_quotes, per_cell_csv, traced_peak


def bits(table: np.ndarray) -> np.ndarray:
    """The table's raw float64 bit patterns, so -0.0 and NaNs compare exactly."""
    return table.view(np.uint64)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        quotes = make_quotes(
            make_quote(),
            make_quote(option_type=0.0, strike=95.0, implied_vol=np.nan),
            make_quote(midpoint=0.01),
        )
        path = write_csv(quotes, tmp_path / "q.csv")
        back = read_csv(path)
        assert back.shape == quotes.shape
        assert np.array_equal(bits(back), bits(quotes))

    def test_header_written(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        first = path.read_text().splitlines()[0]
        assert first == ",".join(QUOTE_COLUMNS)
        assert first.startswith("option_type,strike,underlying_price")
        assert first.endswith("lag_20,midpoint")

    def test_missing_vol_is_empty_cell(self, tmp_path):
        path = write_csv(make_quote(implied_vol=np.nan), tmp_path / "q.csv")
        row = path.read_text().splitlines()[1]
        cells = row.split(",")
        assert cells[0] == "C"
        assert cells[6] == ""
        assert np.isnan(read_csv(path)[0, 6])

    def test_float_precision_survives(self, tmp_path):
        q = make_quote(strike=100.0 / 3.0, midpoint=1.0 / 7.0)
        back = read_csv(write_csv(q, tmp_path / "q.csv"))
        assert np.array_equal(bits(back), bits(q))

    def test_byte_determinism(self, tmp_path):
        quotes = make_quotes(*(make_quote(strike=90.0 + i) for i in range(10)))
        a = write_csv(quotes, tmp_path / "a.csv").read_bytes()
        b = write_csv(quotes, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_empty_file_round_trip(self, tmp_path):
        path = write_csv(make_quotes(), tmp_path / "q.csv")
        assert path.read_text() == ",".join(QUOTE_COLUMNS) + "\n"
        assert read_csv(path).shape == (0, QUOTE_WIDTH)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SchemaError):
            read_csv(path)
        path.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            read_csv(path)

    def test_single_bad_row_in_tiny_file(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        with path.open("a") as fh:
            fh.write("C,not_a_number" + ",1" * 26 + "\n")
        with pytest.raises(CsvRowError) as exc:
            read_csv(path)
        assert "line 3" in str(exc.value)

    def test_few_bad_rows_skipped_with_warning(self, tmp_path, caplog):
        quotes = make_quotes(*(make_quote(strike=50.0 + i) for i in range(300)))
        path = write_csv(quotes, tmp_path / "q.csv")
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace("C", "X", 1)  # corrupt one row of 300
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            back = read_csv(path)
        assert len(back) == 299
        assert np.array_equal(back, np.delete(quotes, 4, axis=0))
        assert any("line 6" in r.message for r in caplog.records)

    def test_wrong_cell_count_is_bad_row(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        with path.open("a") as fh:
            fh.write("C,1,2\n")
        with pytest.raises(CsvRowError):
            read_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "nope.csv")

    def test_undecodable_line_is_bad_row(self, tmp_path, caplog):
        quotes = make_quotes(*(make_quote(strike=50.0 + i) for i in range(300)))
        path = write_csv(quotes, tmp_path / "q.csv")
        lines = path.read_bytes().splitlines()
        lines[10] = lines[10][:4] + b"\xff" + lines[10][4:]  # line 11 of the file
        path.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level(logging.WARNING):
            back = read_csv(path)
        assert np.array_equal(back, np.delete(quotes, 9, axis=0))
        assert any("line 11" in r.message for r in caplog.records)

        tiny = write_csv(make_quote(), tmp_path / "tiny.csv")
        tiny.write_bytes(tiny.read_bytes() + b"C,\xff\n")
        with pytest.raises(CsvRowError, match="line 3"):
            read_csv(tiny)

    def test_undecodable_header_is_schema_error(self, tmp_path):
        path = write_csv(make_quote(), tmp_path / "q.csv")
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(SchemaError, match="header"):
            read_csv(path)

    @pytest.mark.parametrize(
        "column, first, second",
        [
            ("rate", 0.0, -0.0),
            ("lag_7", 100.07, np.nextafter(100.07, np.inf)),
            ("implied_vol", np.nan, 0.25),
        ],
        ids=["signed-zero", "one-ulp", "nan-vol"],
    )
    def test_terms_differing_only_in_bits(self, tmp_path, column, first, second):
        # runs of one chain's terms, then twins that differ only in `column`
        quotes = make_quotes(*(make_quote(strike=90.0 + i) for i in range(8)))
        quotes[:, QUOTE_COLUMNS.index(column)] = [first, first, second, first, second, second, first, second]
        path = write_csv(quotes, tmp_path / "q.csv")
        assert path.read_bytes() == per_cell_csv(quotes)
        assert np.array_equal(bits(read_csv(path)), bits(quotes))

    def test_runs_across_write_chunks(self, tmp_path):
        # one chain longer than a write chunk; -0.0 and 0.0 share a chunk
        n = _WRITE_CHUNK + 3
        quotes = np.repeat(make_quote(rate=-0.0), n, axis=0)
        quotes[:, QUOTE_COLUMNS.index("strike")] = 50.0 + np.arange(n) / 8
        quotes[::2, QUOTE_COLUMNS.index("dividend_yield")] = 0.0
        quotes[-2:, QUOTE_COLUMNS.index("rate")] = 0.0
        path = write_csv(quotes, tmp_path / "q.csv")
        assert path.read_bytes() == per_cell_csv(quotes)
        assert np.array_equal(bits(read_csv(path)), bits(quotes))

    def test_malformed_line_after_a_good_line_of_its_chain(self, tmp_path, caplog):
        chain_a = [make_quote(strike=50.0 + i) for i in range(400)]
        chain_b = [make_quote(strike=50.0 + i, rate=0.03) for i in range(400)]
        quotes = make_quotes(*chain_a, *chain_b)
        path = write_csv(quotes, tmp_path / "q.csv")
        header, *rows = path.read_bytes().splitlines()

        def edit(row: bytes, index: int, cell: bytes) -> bytes:
            cells = row.split(b",")
            cells[index] = cell
            return b",".join(cells)

        lag_3, midpoint = QUOTE_COLUMNS.index("lag_3"), QUOTE_COLUMNS.index("midpoint")
        utf8_at = len(b",".join(rows[61].split(b",")[:lag_3])) + 1
        # (row the bad line follows, bad line, the warning it gives)
        bad = [
            (10, rows[11] + b",", "expected 28 columns, got 29"),
            (20, b"X" + rows[21][1:], "option_type: expected 'C' or 'P', got 'X'"),
            (30, edit(rows[31], 1, b"9O.0"), "could not convert string to float: '9O.0'"),
            (40, edit(rows[41], lag_3, b"1e"), "could not convert string to float: '1e'"),
            (50, edit(rows[51], midpoint, b""), "could not convert string to float: ''"),
            (60, edit(rows[61], lag_3, b"\xff"),
             f"'utf-8' codec can't decode byte 0xff in position {utf8_at}: invalid start byte"),
            # chain b's terms after a good line of chain a: parsed, then refused
            (399, edit(rows[400], midpoint, b"-"), "could not convert string to float: '-'"),
        ]
        lines, expected = [header], []
        for i, row in enumerate(rows):
            lines.append(row)
            for after, line, message in bad:
                if after == i:
                    lines.append(line)
                    expected.append(f"{path}: skipping malformed line {len(lines)}: {message}")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with caplog.at_level(logging.WARNING):
            back = read_csv(path)
        assert [r.getMessage() for r in caplog.records] == expected
        assert np.array_equal(bits(back), bits(quotes))

    def test_write_checks_the_table(self, tmp_path):
        with pytest.raises(ValidationError, match="quotes"):
            write_csv(np.ones((2, QUOTE_WIDTH - 1)), tmp_path / "q.csv")
        with pytest.raises(ValidationError, match="option_type: .* got 0.5"):
            write_csv(make_quote(option_type=0.5), tmp_path / "q.csv")


def twins(directory: Path) -> list[Path]:
    return sorted(directory.glob(".*.npy"))


def npy(table: np.ndarray) -> bytes:
    out = io.BytesIO()
    np.save(out, table)
    return out.getvalue()


def chain_table(n_chains: int, per_chain: int, seed: int = 0) -> np.ndarray:
    """Quotes of `n_chains` chains in shuffled order, with -0.0, a NaN
    vol and a put or two among them."""
    rng = np.random.default_rng(seed)
    rows = [
        make_quote(
            strike=float(50 + k), rate=(-0.0, 0.01, 0.02)[c % 3], maturity_years=0.1 + c,
            option_type=float(k % 2), implied_vol=np.nan if c % 4 == 0 else 0.25,
        )
        for c in range(n_chains)
        for k in range(per_chain)
    ]
    return make_quotes(*rows)[rng.permutation(n_chains * per_chain)]


class TestBinaryTwin:
    def parsed(self, path: Path) -> np.ndarray:
        """read_csv of `path` with its twins moved out of the way."""
        moved = [twin.rename(twin.with_name(twin.name + ".away")) for twin in twins(path.parent)]
        try:
            return read_csv(path)
        finally:
            for away in moved:
                away.rename(away.with_name(away.name.removesuffix(".away")))

    def test_twin_is_keyed_by_the_csv_digest(self, tmp_path):
        quotes = chain_table(5, 4)
        path = write_csv(quotes, tmp_path / "q.csv")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert twins(tmp_path) == [tmp_path / f".q.csv.{digest}.npy"]
        twin = tmp_path / f".q.csv.{digest}.npy"
        assert twin.stat().st_size == 128 + 224 * len(quotes)
        assert np.array_equal(bits(np.load(twin)), bits(quotes))
        table, read_digest = read_csv(path, with_digest=True)
        assert read_digest == digest
        assert np.array_equal(bits(table), bits(quotes))

    def test_reads_the_twin_not_the_text(self, tmp_path, monkeypatch):
        quotes = chain_table(5, 4)
        path = write_csv(quotes, tmp_path / "q.csv")

        def no_parse(*args):
            raise AssertionError("the text was parsed")

        monkeypatch.setattr(ingest, "_parse_line", no_parse)
        assert np.array_equal(bits(read_csv(path)), bits(quotes))

    def test_edited_or_appended_csv_reads_its_new_content(self, tmp_path):
        quotes = chain_table(5, 4)
        path = write_csv(quotes, tmp_path / "q.csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[-1] = "7.25"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        edited = quotes.copy()
        edited[2, QUOTE_COLUMNS.index("midpoint")] = 7.25
        assert np.array_equal(bits(read_csv(path)), bits(edited))

        with path.open("a") as fh:
            fh.write(lines[1] + "\n")
        back, digest = read_csv(path, with_digest=True)
        assert np.array_equal(bits(back), bits(np.concatenate([edited, quotes[:1]])))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw, table: b"garbage" * 40,
            lambda raw, table: b"",
            lambda raw, table: raw[:-8],
            lambda raw, table: raw + b"\0" * 100,
            lambda raw, table: raw + b"\0" * 224,
            lambda raw, table: npy(table[:, :-1]),
            lambda raw, table: npy(table.view(np.int64)),
            lambda raw, table: npy(table.astype(">f8")),
            lambda raw, table: npy(np.asfortranarray(table)),
        ],
        ids=["garbage", "empty", "truncated", "trailing-bytes", "extra-row", "27-columns",
             "int64", "big-endian", "fortran-order"],
    )
    def test_bad_twin_warns_once_and_parses(self, tmp_path, caplog, corrupt):
        quotes = chain_table(5, 4)
        path = write_csv(quotes, tmp_path / "q.csv")
        [twin] = twins(tmp_path)
        twin.write_bytes(corrupt(twin.read_bytes(), quotes))
        with caplog.at_level(logging.WARNING):
            back, digest = read_csv(path, with_digest=True)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: ignoring binary twin {twin.name}: "
            f"not the .npy file of a {QUOTE_WIDTH}-column float64 table; parsing the text"
        ]
        assert np.array_equal(bits(back), bits(quotes))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_csv_copied_without_its_twin_is_parsed(self, tmp_path, monkeypatch):
        quotes = chain_table(5, 4)
        path = write_csv(quotes, tmp_path / "q.csv")
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / "q.csv"
        copy.write_bytes(path.read_bytes())
        parsed = []
        parse_line = ingest._parse_line
        monkeypatch.setattr(ingest, "_parse_line", lambda *a: parsed.append(1) or parse_line(*a))
        assert np.array_equal(bits(read_csv(copy)), bits(quotes))
        assert len(parsed) == len(quotes)

    def test_failed_twin_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, caplog):
        quotes = chain_table(5, 4)

        def failing(table, rows):
            yield b"\x93NUMPY"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ingest, "_twin_chunks", failing)
        with caplog.at_level(logging.WARNING):
            path = write_csv(quotes, tmp_path / "q.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv"]
        assert "binary twin not written" in caplog.text
        assert path.read_bytes() == per_cell_csv(quotes)
        assert np.array_equal(bits(read_csv(path)), bits(quotes))

    def test_rewrite_leaves_exactly_one_twin(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(chain_table(5, 4, seed=1), path)
        others = [write_csv(make_quote(), tmp_path / name) for name in ("q.csv.csv", "[q].csv")]
        own = re.compile(r"\.q\.csv\.[0-9a-f]{64}\.npy")
        other_twins = [t for t in twins(tmp_path) if not own.fullmatch(t.name)]
        assert len(other_twins) == 2
        write_csv(chain_table(3, 2, seed=2), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert twins(tmp_path) == sorted([tmp_path / f".q.csv.{digest}.npy", *other_twins])
        for other in others:
            assert np.array_equal(bits(read_csv(other)), bits(make_quote()))

    def test_write_without_twin_removes_only_its_own_stale_twins(self, tmp_path):
        path = write_csv(chain_table(5, 4, seed=1), tmp_path / "q.csv")
        write_csv(make_quote(), tmp_path / "q.csv.csv")
        other_twins = [t for t in twins(tmp_path) if t.name.startswith(".q.csv.csv.")]
        assert len(other_twins) == 1 and len(twins(tmp_path)) == 2
        quotes = chain_table(3, 2, seed=2)
        assert write_csv(quotes, path, twin=False) == path
        assert twins(tmp_path) == other_twins
        assert path.read_bytes() == per_cell_csv(quotes)
        assert np.array_equal(bits(read_csv(path)), bits(quotes))

    def test_returned_array_is_writeable_not_a_memmap(self, tmp_path):
        path = write_csv(chain_table(5, 4), tmp_path / "q.csv")
        table = read_csv(path)
        assert not isinstance(table, np.memmap) and not isinstance(table.base, np.memmap)
        assert table.flags.writeable and table.flags.c_contiguous
        table[0, 0] = 1.0

    def test_twin_holds_what_parsing_gives(self, tmp_path):
        quotes = chain_table(5, 4)
        quotes[0, 0] = -0.0  # a put flag of -0.0 parses as 0.0
        quotes[1, QUOTE_COLUMNS.index("lag_3")] = -np.inf
        quotes[2, QUOTE_COLUMNS.index("implied_vol")] = -np.nan
        quotes[3, QUOTE_COLUMNS.index("midpoint")] = np.uint64(0x7FF0000000000001).view(np.float64)
        path = write_csv(quotes, tmp_path / "q.csv")
        assert np.array_equal(bits(read_csv(path)), bits(self.parsed(path)))
        assert bits(read_csv(path))[0, 0] == bits(np.float64(0.0))

    def test_text_is_freed_before_the_twin_loads(self, tmp_path):
        rng = np.random.default_rng(0)
        quotes = rng.uniform(1.0, 100.0, size=(2000, QUOTE_WIDTH))
        quotes[:, 0] = rng.integers(0, 2, size=2000)
        path = write_csv(quotes, tmp_path / "q.csv")
        text, table = path.stat().st_size, quotes.nbytes
        tracemalloc.start()
        try:
            read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text > table and peak < text + table / 2

    def test_twin_read_never_holds_the_file(self, tmp_path):
        # the digest is streamed through one 1 MiB block, freed before the
        # twin loads, so a twin read holds the table and never the text
        rng = np.random.default_rng(1)
        quotes = rng.uniform(1.0, 100.0, size=(40_000, QUOTE_WIDTH))
        quotes[:, 0] = rng.integers(0, 2, size=len(quotes))
        path = write_csv(quotes, tmp_path / "q.csv")
        table, peak = traced_peak(read_csv, path)
        assert np.array_equal(bits(table), bits(quotes))
        assert peak <= 1.2 * quotes.nbytes, (peak, quotes.nbytes)

    def test_twin_text_and_refused_twin_reads_agree(self, tmp_path, caplog):
        quotes = chain_table(40, 30)
        path = write_csv(quotes, tmp_path / "q.csv")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        [twin] = twins(tmp_path)
        reads = [read_csv(path, with_digest=True)]
        moved = twin.rename(twin.with_name(twin.name + ".away"))
        reads.append(read_csv(path, with_digest=True))
        raw = moved.read_bytes()
        twin.write_bytes(b"\x93NUMPY" + b"\0" * 10 + raw[16:])  # a corrupt header
        with caplog.at_level(logging.WARNING):
            reads.append(read_csv(path, with_digest=True))
        assert "ignoring binary twin" in caplog.text
        for table, read_digest in reads:
            assert np.array_equal(bits(table), bits(quotes))
            assert read_digest == digest

    @pytest.mark.parametrize("chunk, cached", [(16, 8), (7, 3), (_WRITE_CHUNK, 10**6)])
    def test_texts_kept_across_chunks(self, tmp_path, monkeypatch, chunk, cached):
        # shuffled chains, so segments and strikes recur across chunks, and
        # caches small enough to be cleared between them
        monkeypatch.setattr(ingest, "_WRITE_CHUNK", chunk)
        monkeypatch.setattr(ingest, "_MAX_CACHED", cached)
        quotes = chain_table(40, 8)
        path = write_csv(quotes, tmp_path / "q.csv")
        assert path.read_bytes() == per_cell_csv(quotes)
        assert np.array_equal(bits(read_csv(path)), bits(self.parsed(path)))


def written(directory: Path, quotes: np.ndarray, **kwargs) -> tuple[bytes, list[bytes]]:
    """The CSV bytes and the twin bytes that write_csv leaves in a new `directory`."""
    directory.mkdir()
    path = write_csv(quotes, directory / "q.csv", **kwargs)
    return path.read_bytes(), [twin.read_bytes() for twin in twins(directory)]


class TestWriteRows:
    """write_csv(rows=) writes the table's rows at `rows`, as writing their copy does."""

    @pytest.mark.parametrize(
        "select",
        [
            lambda n: np.random.default_rng(3).permutation(n)[: n - 300],
            lambda n: [17],
            lambda n: [],
        ],
        ids=["shuffled-across-chunks", "one-row", "zero-rows"],
    )
    def test_bytes_and_twin_are_those_of_the_copy(self, tmp_path, select):
        quotes = chain_table(61, 120)  # 7,320 rows, over three write chunks
        rows = select(len(quotes))
        copy = quotes[np.asarray(rows, dtype=int)]
        csv, twin = written(tmp_path / "rows", quotes, rows=rows)
        assert (csv, twin) == written(tmp_path / "copy", copy)
        assert csv == per_cell_csv(copy)
        assert len(twin) == 1
        if len(rows) == 0:
            assert csv == (",".join(QUOTE_COLUMNS) + "\n").encode()

    @pytest.mark.parametrize(
        "column, value", [("implied_vol", np.nan), ("rate", -0.0), ("strike", -0.0)]
    )
    def test_nan_and_negative_zero_cells(self, tmp_path, column, value):
        quotes = chain_table(8, 5)
        rows = [31, 2, 17, 2, 0]
        quotes[[2, 5], QUOTE_COLUMNS.index(column)] = value  # row 2 is written, twice
        csv, twin = written(tmp_path / "rows", quotes, rows=rows)
        assert (csv, twin) == written(tmp_path / "copy", quotes[rows])
        assert csv == per_cell_csv(quotes[rows])

    def test_without_twin(self, tmp_path):
        quotes = chain_table(8, 5)
        csv, twin = written(tmp_path / "rows", quotes, rows=[4, 3], twin=False)
        assert (csv, twin) == (per_cell_csv(quotes[[4, 3]]), [])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([True, False] * 20, r"dtype bool"),
            ([0.7, 2.2], r"dtype float64"),
            ([[0, 1]], r"shape \(1, 2\)"),
            ([0, 40], r"\[0, 40\), got 40"),
            ([-1, 2], r"\[0, 40\), got -1"),
        ],
        ids=["bool-mask", "floats", "2-D", "past-the-end", "negative"],
    )
    def test_refused_rows_write_nothing(self, tmp_path, rows, message):
        with pytest.raises(ValidationError, match=rf"^rows: .*{message}"):
            write_csv(chain_table(8, 5), tmp_path / "q.csv", rows=rows)
        assert list(tmp_path.iterdir()) == []

    def test_flag_check_covers_the_written_rows_only(self, tmp_path):
        quotes = chain_table(8, 5)
        quotes[6, 0] = 0.5
        path = write_csv(quotes, tmp_path / "q.csv", rows=[5, 7])
        assert path.read_bytes() == per_cell_csv(quotes[[5, 7]])
        with pytest.raises(ValidationError, match="option_type: .* got 0.5"):
            write_csv(quotes, tmp_path / "q.csv", rows=[5, 6])

    def test_writes_without_a_copy_of_the_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 40_000
        quotes = np.repeat(chain_table(40, 10), n // 400, axis=0)
        quotes[:, QUOTE_COLUMNS.index("midpoint")] = rng.uniform(1.0, 50.0, n)
        rows = rng.permutation(n)[: 3 * n // 4]
        copy = quotes[rows].nbytes
        _, by_rows = traced_peak(lambda: write_csv(quotes, tmp_path / "a.csv", twin=False, rows=rows))
        _, by_copy = traced_peak(lambda: write_csv(quotes[rows], tmp_path / "b.csv", twin=False))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert by_copy - by_rows >= 0.8 * copy, (by_rows, by_copy, copy)


class TestModelFiles:
    def make_tree_model(self):
        train = make_dataset(120, seed=3)
        val = make_dataset(30, seed=4)
        return train_gbdt(train, val, GbdtConfig(max_depth=3, num_rounds=4)), train

    def make_net_model(self):
        train = make_dataset(60, seed=5)
        val = make_dataset(20, seed=6)
        cfg = MlpTrainConfig(max_epochs=3, batch_size=16, seed=1)
        net, _ = train_mlp(train, val, THREE_LAYER, cfg)
        return net, train

    def test_tree_round_trip_identical_predictions(self, tmp_path):
        model, train = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        back = load_model(path)
        a = predict_gbdt(model, train.features)
        b = predict_gbdt(back, train.features)
        assert np.array_equal(a, b)
        assert back.base_score == model.base_score
        assert back.best_round == model.best_round

    def test_net_round_trip_identical_predictions(self, tmp_path):
        net, train = self.make_net_model()
        path = save_model(net, tmp_path / "n.model")
        back = load_model(path)
        assert np.array_equal(forward(net, train.features), forward(back, train.features))

    def test_magic_bytes(self, tmp_path):
        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        assert path.read_bytes()[:8] == MAGIC_TREES
        net, _ = self.make_net_model()
        npath = save_model(net, tmp_path / "n.model")
        assert npath.read_bytes()[:8] == MAGIC_NET

    @pytest.mark.parametrize("n_trees", [0, 1, 7, None], ids=["0-trees", "1-tree", "7-trees", "net"])
    def test_streamed_bytes_are_the_whole_document(self, tmp_path, n_trees):
        if n_trees is None:
            model, _ = self.make_net_model()
            magic, kind, payload = MAGIC_NET, "network", ingest._network_payload(model)
        else:
            trained, _ = self.make_tree_model()
            model = dataclasses.replace(trained, trees=(trained.trees * 7)[:n_trees])
            trees = [ingest._tree_payload(t) for t in model.trees]
            magic, kind = MAGIC_TREES, "tree_ensemble"
            payload = {**ingest._ensemble_payload(model), "trees": trees}
        manifest = {"kind": "gbdt3", "trees": [1, 2]}
        doc = {"format_version": 1, "kind": kind, "manifest": manifest, "model": payload}
        whole = magic + json.dumps(
            doc, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        assert save_model(model, tmp_path / "m.model", manifest).read_bytes() == whole

    def test_save_model_holds_a_few_trees_at_once(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 1435  # nodes of the first default depth-10 tree

        def tree():
            return Tree(
                feature=rng.integers(-1, 26, n).astype(np.int32),
                threshold=rng.normal(size=n),
                left=rng.integers(0, n, n).astype(np.int32),
                right=rng.integers(0, n, n).astype(np.int32),
                value=rng.normal(size=n),
            )

        model = TreeEnsemble(0.5, [tree() for _ in range(100)], 26, 99)
        one = traced_peak(lambda: json.dumps(ingest._tree_payload(model.trees[0])))[1]
        _, peak = traced_peak(save_model, model, tmp_path / "m.model")
        # the trees' lists and encodings of the whole ensemble would be 100 times that
        assert peak < 4 * one, (peak, one)

    def test_file_bytes_reproducible(self, tmp_path):
        model, _ = self.make_tree_model()
        a = save_model(model, tmp_path / "a.model").read_bytes()
        b = save_model(model, tmp_path / "b.model").read_bytes()
        assert a == b

    def test_generic_loader_dispatches(self, tmp_path):
        model, _ = self.make_tree_model()
        net, _ = self.make_net_model()
        t = load_model(save_model(model, tmp_path / "t.model"))
        n = load_model(save_model(net, tmp_path / "n.model"))
        assert type(t).__name__ == "TreeEnsemble"
        assert type(n).__name__ == "NetworkParams"

    def test_garbage_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"NOTMAGIC" + b"{}")
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    def test_corrupt_counts_rejected(self, tmp_path):
        import json

        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"]["n_trees"] = 99
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "patch",
        [
            {"left": 0, "right": 0},  # the root is its own child: a cycle
            {"right": 10**6},  # a child past the last node
            {"feature": 99},  # no such feature column
            {"threshold": float("nan")},
            {"value": float("inf")},
            {"left": 2**40},  # does not fit a node index
            {"right": 1},  # node 1 is both children of the root; node 2 has no parent
            {"feature": -1},  # the root is a leaf, so no other node has a parent
        ],
        ids=["cycle", "child_out_of_range", "feature_out_of_range",
             "nan_threshold", "inf_value", "oversized_index", "shared_child", "orphan_node"],
    )
    def test_corrupt_tree_rejected(self, tmp_path, patch):
        model, _ = self.make_tree_model()
        tree = model.trees[0]
        assert tree.feature[0] >= 0 and (tree.left[0], tree.right[0]) == (1, 2)  # the root splits
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        for key, value in patch.items():
            doc["model"]["trees"][0][key][0] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError, match=re.escape(str(path))):
            load_model(path)

    def test_tree_without_nodes_rejected(self, tmp_path):
        model, _ = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"]["trees"][0] = {k: [] for k in doc["model"]["trees"][0]}
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("feature_std", 0.0),
            ("feature_std", -1.0),
            ("feature_std", float("inf")),
            ("feature_std", float("nan")),
            ("feature_mean", float("nan")),
            ("feature_mean", float("-inf")),
        ],
        ids=["zero_std", "negative_std", "inf_std", "nan_std", "nan_mean", "inf_mean"],
    )
    def test_bad_feature_stats_rejected(self, tmp_path, key, value):
        net, _ = self.make_net_model()
        path = save_model(net, tmp_path / "n.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        doc["model"][key][0] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())  # NaN/Infinity literals
        with pytest.raises(IncompatibleModelError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", ["weights", "biases", "base_score"])
    def test_non_finite_parameter_rejected(self, tmp_path, key, value):
        # json reads NaN and Infinity, so the loader has to refuse them
        model, _ = self.make_tree_model() if key == "base_score" else self.make_net_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        if key == "base_score":
            doc["model"][key] = value
        else:
            numbers = doc["model"][key][0]
            while isinstance(numbers[0], list):
                numbers = numbers[0]
            numbers[0] = value
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError, match=re.escape(str(path))):
            load_model(path)

    def test_older_file_with_etas_still_loads(self, tmp_path):
        # format-v1 files written before `etas` was dropped carry one eta per tree
        model, train = self.make_tree_model()
        path = save_model(model, tmp_path / "m.model")
        raw = path.read_bytes()
        doc = json.loads(raw[8:])
        assert "etas" not in doc["model"]
        doc["model"]["etas"] = [r.eta for r in model.history[: len(model.trees)]]
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        back = load_model(path)
        assert np.array_equal(predict_gbdt(back, train.features), predict_gbdt(model, train.features))
        assert back.history == model.history
        doc["model"]["etas"].append(0.5)
        path.write_bytes(raw[:8] + json.dumps(doc).encode())
        with pytest.raises(IncompatibleModelError, match="etas do not align"):
            load_model(path)

    def test_manifest_round_trip(self, tmp_path):
        model, _ = self.make_tree_model()
        manifest = {"kind": "gbdt5", "dataset_digest": "abc123"}
        path = save_model(model, tmp_path / "m.model", manifest=manifest)
        assert load_model_and_manifest(path)[1] == manifest

    def test_no_nan_in_file(self, tmp_path):
        model, _ = self.make_tree_model()
        text = save_model(model, tmp_path / "m.model").read_bytes()[8:].decode()
        assert "NaN" not in text
        assert "Infinity" not in text


class TestMetricsCsv:
    def test_round_records(self, tmp_path):
        model_train = make_dataset(50, seed=9)
        model = train_gbdt(model_train, model_train, GbdtConfig(max_depth=2, num_rounds=3))
        path = write_rows(tmp_path / "m.csv", model.history[0]._fields, model.history)
        lines = path.read_text().splitlines()
        assert lines[0] == "round_index,eta,train_mae,val_mae"
        assert len(lines) == 4


PROBE = make_dataset(64, seed=8).features
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
ODD_NUMBERS = [
    b"NaN", b"Infinity", b"-Infinity", b"0", b"-1", b"0.5", b"-0.0", b"99", b"1e300",
    b"2147483648",
]


@pytest.fixture(scope="module")
def small_model_files(tmp_path_factory):
    """The bytes of a small saved tree-ensemble file and a small network file."""
    out = tmp_path_factory.mktemp("models")
    train, val = make_dataset(120, seed=3), make_dataset(30, seed=4)
    trees = train_gbdt(train, val, GbdtConfig(max_depth=3, num_rounds=3))
    arch = Architecture((LayerSpec(4, "relu"), LayerSpec(1, "linear")))
    net, _ = train_mlp(train, val, arch, MlpTrainConfig(max_epochs=1, batch_size=32, seed=1))
    blobs = {
        "tree": save_model(trees, out / "tree.model", {"kind": "gbdt3"}).read_bytes(),
        "net": save_model(net, out / "net.model", {"kind": "mlp1"}).read_bytes(),
    }
    return out, blobs


class TestModelFileFuzz:
    @settings(max_examples=40, deadline=1000)
    @given(kind=st.sampled_from(["tree", "net"]), data=st.data())
    def test_mutated_file_is_rejected_or_predicts(self, small_model_files, kind, data):
        """One changed number or byte: IncompatibleModelError or a (64,) prediction."""
        out, blobs = small_model_files
        blob = blobs[kind]
        if data.draw(st.booleans(), label="mutate a number"):
            numbers = [m.span() for m in NUMBER.finditer(blob, 8)]  # after the magic
            start, end = data.draw(st.sampled_from(numbers), label="number")
            blob = blob[:start] + data.draw(st.sampled_from(ODD_NUMBERS)) + blob[end:]
        else:
            i = data.draw(st.integers(0, len(blob) - 1), label="byte")
            blob = blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1 :]
        path = out / f"mutated_{kind}.model"
        path.write_bytes(blob)
        try:
            model = load_model(path)
        except IncompatibleModelError:
            return
        with np.errstate(all="ignore"):  # a huge weight may overflow; the shape still holds
            if isinstance(model, TreeEnsemble):
                prediction = model.predict(PROBE)
            else:
                prediction = forward(model, PROBE)
        assert prediction.shape == (64,)


WRITE_CALLS = {"open", "write_text", "write_bytes", "save", "savez", "savetxt", "tofile"}


class TestWriteFile:
    @pytest.mark.parametrize("old", [b"old content\n", None], ids=["existing", "absent"])
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, old):
        target = tmp_path / "out.csv"
        if old is not None:
            target.write_bytes(old)

        def chunks():
            yield b"new content"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            write_file(target, chunks())
        assert (target.read_bytes() if target.exists() else None) == old
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.csv"])

    def test_write_leaves_no_temporary_file(self, tmp_path):
        path = write_file(tmp_path / "a.txt", [b"one ", b"two\n"])
        assert path.read_bytes() == b"one two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_permissions_follow_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            path = write_file(tmp_path / "a.txt", [b"x"])
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_cell_rule(self, tmp_path):
        rows = [(None, np.float64(0.1), 3, "x"), (1.5, None, np.int64(2), 0.1 + 0.2)]
        path = write_rows(tmp_path / "r.csv", ("a", "b", "c", "d"), rows)
        assert path.read_text() == "a,b,c,d\n,0.1,3,x\n1.5,,2,0.30000000000000004\n"

    def test_only_write_file_writes(self):
        """No function but ingest.write_file opens or writes a file."""
        writers = []
        for source in sorted(Path(optbench.__file__).parent.glob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            allowed = {
                id(node)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "write_file"
                for node in ast.walk(fn)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in WRITE_CALLS:
                        writers.append((source.name, node.lineno, id(node) in allowed))
        assert [(f, allowed) for f, _, allowed in writers] == [("ingest.py", True)], writers
