"""Each fact has one home: the README's module map names each module's
contracts, and a measured figure lives in CHANGES.md and BENCH_*.json.

So the module map has one entry per module of the package, and neither it
nor any docstring or comment under src/ states a time or a memory figure,
unless that line cites the commit or the BENCH_*.json that measured it.
Every BENCH_*.json that the documents or the source cite exists.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import viewsynth

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = Path(viewsynth.__file__).parent

# A number with a unit of time or memory, or a rate, page or fault count.
FIGURE = re.compile(r"(?<![\w.])\d(?:[\d.,]*\d)?\s*[kKM]?\s*"
                    r"(?:µs|us|ms|s|[KMG]i?B|kB|evals/s|pages|faults)(?![\w/])")
# A commit sha (7 to 40 hex digits, at least one a digit) or a BENCH_*.json.
CITATION = re.compile(r"\b(?=[0-9a-f]*\d)[0-9a-f]{7,40}\b|\bBENCH_\w+\.json\b")
BENCH_FILE = re.compile(r"\bBENCH_\w+\.json\b")


def module_map(readme: str) -> list:
    """The lines of the README's "Module map" section."""
    lines = readme.splitlines()
    start = lines.index("## Module map") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def map_entries(lines: list) -> list:
    """The module each entry of the map names, in order: one `- `name` ...`
    bullet per module."""
    return [m.group(1) for m in map(re.compile(r"^- `(\w+)`").match, lines) if m]


def uncited_figures(lines) -> list:
    """The lines of `lines` that state a figure and cite no commit or BENCH file."""
    return [line.strip() for line in lines if FIGURE.search(line) and not CITATION.search(line)]


def doc_lines(source: str) -> list:
    """Every line of a module's docstrings and comments."""
    lines = source.splitlines()
    out = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                out += lines[doc.lineno - 1:doc.end_lineno]
    return out


README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def test_module_map_has_one_entry_per_module():
    entries = map_entries(module_map(README))
    assert sorted(entries) == MODULES, entries


def test_module_map_states_no_figure():
    assert uncited_figures(module_map(README)) == []


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_docstrings_and_comments_state_no_figure(name):
    source = (PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert uncited_figures(doc_lines(source)) == []


def test_every_cited_bench_file_exists():
    texts = [README] + [(ROOT / f).read_text(encoding="utf-8")
                        for f in ("CHANGES.md", "ROADMAP.md")]
    texts += [p.read_text(encoding="utf-8") for p in PACKAGE_DIR.glob("*.py")]
    cited = {name for text in texts for name in BENCH_FILE.findall(text)}
    assert cited and sorted(n for n in cited if not (ROOT / n).is_file()) == []


def test_the_checks_see_what_they_look_for():
    # Figures the map and the docstrings once held, and lines that are not figures.
    for line in ("8 µs against 40 µs", "holds at most 13.4 MB", "100.0k evals/s",
                 "1.8 MiB peak", "faults in 24.5k pages", "took 3.8 ms", "10 s runs"):
        assert uncited_figures([line]) == [line], line
    for line in ("(BENCH_f9bab20.json): 8 µs", "3.8 ms (5b68448)", "64 sets, 2 sources",
                 "(S=4, L=4)", "x0_max 16 <= n < 32", "lambda_s / 2^level"):
        assert uncited_figures([line]) == [], line
    readme = "## Module map\n\n- `a` — one.\n- `b` — two.\n\n## Next\n- `c` — no."
    assert map_entries(module_map(readme)) == ["a", "b"]
    assert doc_lines('"""Doc 1 ms."""\nx = 1  # 2 MB\ny = "3 s"\n') == ["# 2 MB", '"""Doc 1 ms."""']
