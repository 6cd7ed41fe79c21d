"""Reference-output check for one benchmark iteration.

`fingerprint` reduces what an iteration produced (the bundle returned by
`engine.run_scenario` and the files `engine.export` wrote) to plain
data; `compare` checks it against the fingerprint recorded for the same
input in ``reference.json``.

Counts must match exactly: switch events by kind, `summary["n_events"]`
and other integer summary values, table and CSV row counts, the READ
responses and every other non-float column (compared by digest), the
output file names and the manifest's config hash.  Float columns are
compared row by row, every row, and float summary values one by one,
within the tolerances below.

A fingerprint holds each float column as an array.  The recorded one
holds a key into ``reference.npz`` instead (`store`), where every
distinct column is kept once (`write_arrays`).
"""
from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

# (absolute, relative) tolerance per quantity.  A value passes when
# |got - ref| <= absolute + relative * |ref|.
VOLTS = (1e-12, 0.0)  # the bound ROADMAP item 3 sets for a faster cell kernel
# The conductance change a 1e-12 V gate error causes on the steepest
# flank of a Coulomb peak (g_max / peak_width is about 0.1 S/V).
SIEMENS = (1e-13, 0.0)
SECONDS = (0.0, 1e-12)  # timestamps are exact integer ratios
RELATIVE = (0.0, 1e-12)  # watts, kelvin and ratios

FLOAT_COLUMNS = {
    "time_s": SECONDS,
    "v_out_volts": VOLTS,
    "v_hold_volts": VOLTS,
    "v_sdp_volts": VOLTS,
    "v_lp_volts": VOLTS,
    "conductance_s": SIEMENS,
    "g_siemens": SIEMENS,
    "signal": SIEMENS,
    "power_watts": RELATIVE,
    "temperature_k": RELATIVE,
}


def _summary_tolerance(key: str):
    if key.startswith("v_out_final"):
        return VOLTS
    if key.startswith("conductance"):
        return SIEMENS
    if key.endswith("time_s"):
        return SECONDS
    return RELATIVE


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out[prefix] = value


def _plain(value):
    """Python scalar for a table cell (numpy scalars included)."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, bool):
        return int(value)
    return value


def _event_kind(event) -> str:
    if event.lock_action is not None:
        return event.lock_action.value
    return f"FG_{event.fg_level.name}"


def _table(table) -> dict:
    header = list(table.header)
    rows = table.rows
    float_idx = [i for i, name in enumerate(header) if name in FLOAT_COLUMNS]
    exact_idx = [i for i, name in enumerate(header) if name not in FLOAT_COLUMNS]
    digest = hashlib.sha256()
    for row in rows:
        digest.update(("\x1f".join(str(_plain(row[i])) for i in exact_idx) + "\n").encode())
    floats = {header[i]: np.array([float(row[i]) for row in rows]) for i in float_idx}
    return {"header": header, "rows": len(rows), "exact_sha256": digest.hexdigest(),
            "floats": floats}


def fingerprint(bundle, files) -> dict:
    events: dict[str, int] = {}
    for event in bundle.events:
        kind = _event_kind(event)
        events[kind] = events.get(kind, 0) + 1
    summary: dict = {}
    _flatten("", bundle.summary, summary)
    csv_lines = {}
    manifest = None
    for path in map(Path, files):
        if path.suffix == ".csv":
            csv_lines[path.name] = path.read_bytes().count(b"\n")
        else:
            manifest = json.loads(path.read_text(encoding="utf-8"))
    return {
        "events": dict(sorted(events.items())),
        "summary": {k: _plain(v) for k, v in summary.items()},
        "tables": {name: _table(bundle.tables[name]) for name in sorted(bundle.tables)},
        "csv_lines": csv_lines,
        "manifest": {
            "config_sha256": manifest and manifest.get("config_sha256"),
            "outputs": manifest and manifest.get("outputs"),
        },
    }


def store(fp: dict, arrays: dict) -> dict:
    """`fp` with each float column replaced by its key in `arrays`, where it is added."""
    tables = {}
    for name, table in fp["tables"].items():
        floats = {}
        for column, values in table["floats"].items():
            key = "c" + hashlib.sha256(values.tobytes()).hexdigest()[:24]
            arrays[key] = values
            floats[column] = key
        tables[name] = {**table, "floats": floats}
    return {**fp, "tables": tables}


def write_arrays(path: Path, arrays: dict) -> None:
    """An .npz of `arrays` whose bytes depend on nothing but the arrays."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for key in sorted(arrays):
            info = zipfile.ZipInfo(f"{key}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            with zf.open(info, "w") as fh:
                np.lib.format.write_array(fh, arrays[key], allow_pickle=False)


def load_columns(ref: dict, npz) -> dict:
    """The recorded float columns that `ref` names, read from the open .npz."""
    return {key: npz[key]
            for table in ref["tables"].values() for key in table["floats"].values()}


def _close(got: float, ref: float, tol) -> bool:
    absolute, relative = tol
    return abs(got - ref) <= absolute + relative * abs(ref)


def compare(ref: dict, columns: dict, got: dict) -> list[str]:
    """Differences between a recorded and a new fingerprint (empty when they agree).

    `columns` maps the recorded column keys to their arrays (`load_columns`).
    """
    problems = []
    for key in ("events", "csv_lines", "manifest"):
        if got[key] != ref[key]:
            problems.append(f"{key}: {got[key]} != reference {ref[key]}")
    if set(got["summary"]) != set(ref["summary"]):
        problems.append(f"summary keys {sorted(got['summary'])} != {sorted(ref['summary'])}")
    for key, r in ref["summary"].items():
        g = got["summary"].get(key)
        if isinstance(r, float) and isinstance(g, (int, float)):
            if not _close(float(g), r, _summary_tolerance(key)):
                problems.append(f"summary {key}: {g!r} != reference {r!r}")
        elif g != r:
            problems.append(f"summary {key}: {g!r} != reference {r!r}")
    if set(got["tables"]) != set(ref["tables"]):
        problems.append(f"tables {sorted(got['tables'])} != {sorted(ref['tables'])}")
    for name, rt in ref["tables"].items():
        gt = got["tables"].get(name)
        if gt is None:
            continue
        for key in ("header", "rows", "exact_sha256"):
            if gt[key] != rt[key]:
                problems.append(f"table {name} {key}: {gt[key]} != reference {rt[key]}")
        if gt["header"] != rt["header"] or gt["rows"] != rt["rows"]:
            continue
        for column, key in rt["floats"].items():
            g, r = gt["floats"][column], columns[key]
            absolute, relative = FLOAT_COLUMNS[column]
            with np.errstate(invalid="ignore"):
                deviation = np.abs(g - r)
                ok = (g == r) | (deviation <= absolute + relative * np.abs(r))
            ok |= np.isnan(g) & np.isnan(r)
            if not ok.all():
                bad = np.flatnonzero(~ok)
                k = bad[0]
                problems.append(
                    f"table {name}.{column}: {len(bad)} of {len(r)} rows differ, largest "
                    f"deviation {np.nanmax(deviation)!r}, first row {k}: "
                    f"{g[k]!r} != reference {r[k]!r}"
                )
    return problems
