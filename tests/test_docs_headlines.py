"""The Figure 3, Figure 5 and Table 2 numbers the docs print are the ones
in ``results/``.

A golden that moves must take its docs with it: these tests parse the
headline block of ``README.md``, the headline table of ``EXPERIMENTS.md``
and its per-experiment tables, and compare them with
``results/figure_3.txt``, ``results/figure_5.txt`` and
``results/table_2.txt``.
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


def figure_3_golden() -> dict[str, tuple[str, str]]:
    """configuration -> (elapsed s at SF-100, measured speedup)."""
    text = (ROOT / "results" / "figure_3.txt").read_text()
    rows = {match[1]: match.group(2, 3) for match in re.finditer(
        r"^(\S+)\s+([\d.,]+)\s+\S+\s+([\d.]+)\s+\w+$", text, re.M)}
    assert list(rows) == ["sas-ssd", "smart-nsm", "smart-pax"]
    return rows


def table_2_golden() -> dict[str, str]:
    """path -> measured MB/s (or the internal speedup)."""
    text = (ROOT / "results" / "table_2.txt").read_text()
    rows = {match[1]: match[2] for match in re.finditer(
        r"^(.+?)\s{2,}[\d.,]+\s+([\d.,]+)$", text, re.M)}
    assert list(rows) == ["SAS SSD (external)", "Smart SSD (internal)",
                          "internal speedup"]
    return rows


def readme_headline(prefix: str) -> str:
    """The measured factor on the README headline line for ``prefix``."""
    readme = (ROOT / "README.md").read_text()
    line = next(line for line in readme.splitlines()
                if line.startswith(prefix))
    return re.search(r"measured ([\d.]+)x", line)[1]


def experiments_headline(prefix: str) -> str:
    """The "Reproduction measures" cell of a headline-table row."""
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    row = next(line for line in experiments.splitlines()
               if line.startswith(f"| {prefix}"))
    return row.split("|")[3]


def section(text: str, heading: str) -> str:
    """The body of the ``###`` section starting with ``heading``."""
    start = text.index(f"### {heading}")
    end = text.find("\n### ", start + 1)
    return text[start:end if end >= 0 else None]


def test_readme_headline_matches_golden():
    assert readme_headline("Figure 5") == figure_5_golden()["1%"][2]


def test_experiments_headline_matches_golden():
    measured = experiments_headline("Figure 5")
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


def test_figure_3_headlines_match_golden():
    golden = figure_3_golden()
    assert readme_headline("Figure 3") == golden["smart-pax"][1]
    measured = experiments_headline("Figure 3")
    pax = re.search(r"([\d.]+)x \(PAX\)", measured)[1]
    nsm = re.search(r"([\d.]+)x \(NSM\)", measured)[1]
    assert (pax, nsm) == (golden["smart-pax"][1], golden["smart-nsm"][1])


def test_figure_3_table_matches_golden():
    body = section((ROOT / "EXPERIMENTS.md").read_text(), "Figure 3")
    names = {"SAS SSD (host, NSM)": "sas-ssd", "Smart SSD (NSM)": "smart-nsm",
             "Smart SSD (PAX)": "smart-pax"}
    table = {names[match[1]]: match.group(2, 3) for match in re.finditer(
        r"^\| ([^|]+?) \| ([\d.,]+) \| [^|]+ \| \**([\d.]+)\** \|$",
        body, re.M)}
    assert table == figure_3_golden()


def test_table_2_headlines_match_golden():
    golden = table_2_golden()
    assert readme_headline("Table 2") == golden["internal speedup"]
    measured = experiments_headline("Table 2")
    assert re.search(r"([\d.,]+) MB/s, ([\d.,]+) MB/s \(([\d.]+)x\)",
                     measured).groups() == tuple(golden.values())


def test_table_2_table_matches_golden():
    body = section((ROOT / "EXPERIMENTS.md").read_text(), "Table 2")
    table = {match[1]: match[2] for match in re.finditer(
        r"^\| ([^|]+?) \| [\d.,]+x? \| ([\d.,]+)x? \|$", body, re.M)}
    assert table == table_2_golden()
