"""The Figure 5 numbers the docs print are the ones in ``results/``.

A golden that moves must take its docs with it: these tests parse
``README.md`` and ``EXPERIMENTS.md`` and compare them with
``results/figure_5.txt``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SELECTIVITIES = ["1%", "10%", "25%", "50%", "75%", "100%"]


def figure_5_golden() -> dict[str, tuple[str, str, str]]:
    """selectivity -> (SAS SSD s, Smart SSD s, measured speedup)."""
    rows = {}
    text = (ROOT / "results" / "figure_5.txt").read_text()
    for match in re.finditer(
            r"^(\d+%)\s+([\d.]+)\s+([\d.]+)\s+\S+\s+([\d.]+)$", text, re.M):
        rows[match[1]] = match.group(2, 3, 4)
    assert list(rows) == SELECTIVITIES
    return rows


def section(text: str, heading: str) -> str:
    """The body of the ``###`` section starting with ``heading``."""
    start = text.index(f"### {heading}")
    end = text.find("\n### ", start + 1)
    return text[start:end if end >= 0 else None]


def test_readme_headline_matches_golden():
    readme = (ROOT / "README.md").read_text()
    line = next(line for line in readme.splitlines()
                if line.startswith("Figure 5"))
    measured = re.search(r"measured ([\d.]+)x", line)[1]
    assert measured == figure_5_golden()["1%"][2]


def test_experiments_headline_matches_golden():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    row = next(line for line in experiments.splitlines()
               if line.startswith("| Figure 5"))
    measured = row.split("|")[3]  # the "Reproduction measures" cell
    at_1 = re.search(r"([\d.]+)x at 1%", measured)[1]
    at_100 = re.search(r"([\d.]+)x at 100%", measured)[1]
    golden = figure_5_golden()
    assert (at_1, at_100) == (golden["1%"][2], golden["100%"][2])


def test_experiments_table_matches_golden():
    body = section((ROOT / "EXPERIMENTS.md").read_text(), "Figure 5")
    table = {match[1]: match.group(2, 3, 4) for match in re.finditer(
        r"^\| (\d+%) \| ([\d.]+) \| ([\d.]+) \| [^|]+ \| \**([\d.]+)x\** \|$",
        body, re.M)}
    assert table == figure_5_golden()
