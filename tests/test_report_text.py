"""The report table formatter against the csv and json modules: random
tables, written as blocks of columns, must give byte for byte what
csv.writer and json.dumps(payload, indent=1, sort_keys=True) write."""

import csv
import io
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from influence_gate import cli

NAN_WITH_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0].item()
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e22, 1e16, 0.1, 2.0, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan, NAN_WITH_PAYLOAD]
# Drawn from a few values, so columns often repeat each other's bits.
floats = st.sampled_from(EDGE_FLOATS) | st.floats()
texts = st.text(st.sampled_from(list(',"\r\n \\%aé\u2028\U0001f600')), max_size=4) | st.text(
    max_size=3)
scalars = st.one_of(floats, texts, st.integers(), st.booleans(), st.none(),
                    floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64))


def columns(count: int):
    """A column of `count` values: a float64 array, a list of one kind of
    scalar, or a list of any scalars."""
    def of(values):
        return st.lists(values, min_size=count, max_size=count)
    return st.one_of(of(floats).map(lambda v: np.array(v, dtype=np.float64)),
                     of(st.sampled_from(EDGE_FLOATS)).map(np.array),
                     of(floats), of(texts), of(st.integers()), of(st.booleans()), of(scalars))


@st.composite
def tables(draw):
    """(names, columns, row count) of a table of one to four columns."""
    width, count = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    names = draw(st.lists(texts, min_size=width, max_size=width, unique=True))
    return names, [draw(columns(count)) for _ in names], count


def rows_of(table) -> list:
    names, cols, count = table
    values = [col.tolist() if isinstance(col, np.ndarray) else col for col in cols]
    return [[col[i] for col in values] for i in range(count)]


def csv_module_bytes(names, rows) -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(names)
    writer.writerows(rows)
    return fh.getvalue().encode()


def json_module_bytes(rows) -> bytes:
    payload = {"schema_version": cli.SCHEMA_VERSION, "command": "gate",
               "rows": [{k: cli._jsonable(v) for k, v in row.items()} for row in rows]}
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()


@settings(max_examples=150, deadline=None)
@given(table=tables(), block=st.integers(1, 4))
@example(table=([""], [["", "a", ""]], 3), block=2)
@example(table=(["x"], [[None, ""]], 2), block=1)
def test_column_blocks_write_what_the_csv_and_json_modules_write(tmp_path_factory, table,
                                                                 block):
    names, cols, count = table
    out = tmp_path_factory.getbasetemp()
    parts = [cli._table_text(names, [col[start:start + block] for col in cols], True)
             for start in range(0, count, block)]
    cli.write_csv_report(out / "table.csv", names, text=[lines for lines, _ in parts])
    cli.write_json_report(out / "table.json", "gate", text=[objects for _, objects in parts])
    rows = rows_of(table)
    assert (out / "table.csv").read_bytes() == csv_module_bytes(names, rows)
    assert (out / "table.json").read_bytes() == json_module_bytes(
        [dict(zip(names, row)) for row in rows])


def test_a_float64_column_reuses_the_texts_of_the_column_before_only_where_bits_match():
    before = np.array([0.0, math.nan, 1e22, 0.1 + 0.2, math.inf])
    column = np.array([-0.0, NAN_WITH_PAYLOAD, 1e22, 0.3, math.inf])
    lines, _ = cli._table_text(["a", "b"], [before, column])
    assert lines == "0.0,-0.0\r\nnan,nan\r\n1e+22,1e+22\r\n0.30000000000000004,0.3\r\ninf,inf\r\n"


def test_report_writers_take_the_path_first():
    """The benchmark's tracer wraps both writers by name and sizes the file
    named by their first argument."""
    for writer in (cli.write_csv_report, cli.write_json_report):
        assert writer.__code__.co_varnames[0] == "path"
