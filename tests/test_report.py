import csv
import io
import json

import numpy as np

from rhtsketch.report import DeviationReport, write_csv_rows


def test_from_cases_takes_max_and_coerces():
    params = {"d": 4}
    rep = DeviationReport(
        "demo",
        params,
        [("a", np.float64(0.25)), ("b", 0.75), ("c", 0.5)],
    )
    assert rep.params == params and rep.params is not params
    assert rep.max_deviation == 0.75
    assert all(type(dev) is float for _, dev in rep.per_case)
    assert rep.per_case[0] == ("a", 0.25)


def test_empty_report_has_zero_max():
    rep = DeviationReport("empty", {}, [])
    assert rep.max_deviation == 0.0
    assert rep.per_case == []


def test_json_round_trip_is_stable():
    rep = DeviationReport("demo", {"seed": 1}, [("x", 0.1)], runtime_ms=12)
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert text == json.dumps(rep.to_dict(), sort_keys=True)
    parsed = json.loads(text)
    assert parsed["label"] == "demo"
    assert parsed["per_case"] == [["x", 0.1]]
    assert parsed["runtime_ms"] == 12


def test_csv_round_trips_floats_exactly():
    value = 0.1 + 0.2
    rep = DeviationReport("demo", {}, [("x", value)])
    buf = io.StringIO()
    write_csv_rows(buf, ["case_id", "deviation"], rep.per_case)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["case_id", "deviation"]
    assert float(rows[1][1]) == value
