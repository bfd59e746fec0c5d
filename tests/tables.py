"""Reading the CSV tables the command line writes, for the CLI tests."""

import csv
import io


def read_table(path_or_text: str, from_file: bool = True) -> list[dict]:
    """Parse a CSV table written by ``paretorecords.cli.emit_rows`` back into
    row dicts.

    Numeric-looking fields come back as int or float, empty fields as None.
    """
    if from_file:
        with open(path_or_text, encoding="utf-8", newline="") as fh:
            text = fh.read()
    else:
        text = path_or_text
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, val in raw.items():
            if val == "" or val is None:
                row[key] = None
            elif val in ("true", "false"):
                row[key] = val == "true"
            else:
                try:
                    row[key] = int(val)
                except ValueError:
                    try:
                        row[key] = float(val)
                    except ValueError:
                        row[key] = val
        rows.append(row)
    return rows
