"""The split between ingestion and the epidemic-age model holds.

``ingest`` reads CSV text and needs nothing of the package but its
errors; ``align`` holds the model and takes from ``ingest`` only the
series type and the two parsers, which it re-exports for perfbench.
The JSON record of a fitted origin is laid out in ``ecm`` alone, and
``cli`` alone writes a table or a document.
"""

import ast

from helpers import ROOT
from latecast.ecm import EcmFit
from latecast.lasso import LassoFit

SRC = ROOT / "src" / "latecast"


def _imports(module: str):
    """The top-level modules that ``module`` imports absolutely, and the
    names it imports from each module of the package."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    absolute, package = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = {a.name for a in node.names}
            if node.module:
                package.setdefault(node.module, set()).update(names)
            else:  # from . import module
                package.update({name: set() for name in names})
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
    return absolute, package


def test_ingest_imports_only_errors_from_the_package():
    absolute, package = _imports("ingest")
    assert "latecast" not in absolute
    assert set(package) == {"errors"}


def test_align_reads_no_text_and_takes_only_the_parsers_from_ingest():
    absolute, package = _imports("align")
    assert not absolute & {"csv", "io"}
    assert package["ingest"] == {"CountrySeries", "parse_jhu_wide", "parse_long"}


def test_only_ecm_lays_out_the_origin_record():
    assert not hasattr(LassoFit, "to_json") and not hasattr(EcmFit, "to_json")
    holders = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Constant) and node.value in ("first_step", "second_step")
               for node in ast.walk(tree)):
            holders.add(path.name)
    assert holders == {"ecm.py"}


def _calls(module: str, attr: str, keyword: str | None = None) -> dict[str, int]:
    """The calls ``module.attr(...)`` in the package, counted by file, where
    ``module`` may be dotted; with ``keyword``, only the calls that pass it."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if (isinstance(func, ast.Attribute) and func.attr == attr
                    and ast.unparse(func.value) == module
                    and (keyword is None or any(k.arg == keyword for k in node.keywords))):
                found[path.name] = found.get(path.name, 0) + 1
    return found


def test_backtest_evaluates_and_writes_nothing():
    absolute, _ = _imports("backtest")
    assert not absolute & {"csv", "io", "json"}


def test_cli_holds_the_one_csv_writer_and_the_one_indented_json_dump():
    assert _calls("csv", "writer") == {"cli.py": 1}
    assert _calls("json", "dumps", keyword="indent") == {"cli.py": 1}


def test_refit_solves_reach_lapack_through_one_module():
    # lasso's helpers call numpy's LAPACK gufuncs with what np.linalg's
    # wrappers would pass them; no module calls or imports the wrappers,
    # and no other module names the private gufunc module
    for attr in ("lstsq", "qr"):
        assert _calls("np.linalg", attr) == {}
        assert _calls("numpy.linalg", attr) == {}
    assert _calls("_umath_linalg", "lstsq") == {"lasso.py": 1}
    naming, wrappers = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".")
                if node.module == "numpy.linalg":
                    wrappers |= {a.name for a in node.names} & {"lstsq", "qr"}
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if "_umath_linalg" in names:
                naming.add(path.name)
    assert naming == {"lasso.py"}
    assert wrappers == set()
