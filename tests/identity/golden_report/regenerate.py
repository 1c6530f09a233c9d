"""Regenerate the RQ2 report goldens pinned by ``test_golden_report.py``.

Two stores are rendered: the committed full study store
(``benchmarks/_results/study.json``, a legacy monolithic file that is
migrated to the sharded layout in a scratch copy first) and the
16-record booster golden store (``tests/identity/golden_xgboost/``).
For each, ``digests.json`` records the SHA-256 of

- ``build_study_report(store)`` (Tables II–XIV and the Section VI deep
  dive), and
- ``json.dumps(build_audit(store).to_json(), sort_keys=True)``,

next to the Python, numpy and scipy versions and the bundled OpenBLAS
builds they were produced with. The full rendered report of the small
store is committed as ``golden_xgboost_report.md`` so a diff shows
which cell moved, and ``cli_tables_roundtrip.txt`` holds the stdout of
``python -m repro tables`` over the german / mislabels slice that
``tests/test_cli.py`` runs through ``python -m repro study``.

Regenerate only for an intentional change of the rendered output, and
justify the new bytes in CHANGES.md. Run from the repository root::

    PYTHONPATH=src python tests/identity/golden_report/regenerate.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from repro.__main__ import main as cli
from repro.benchmark import ResultStore
from repro.obs.audit import build_audit
from repro.reporting.report import build_study_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
#: name -> manifest (or legacy file) of each pinned store.
SOURCES = {
    "study": ROOT / "benchmarks" / "_results" / "study.json",
    "golden_xgboost": ROOT / "tests" / "identity" / "golden_xgboost" / "study.json",
}
SMALL_REPORT = HERE / "golden_xgboost_report.md"
CLI_TABLES = HERE / "cli_tables_roundtrip.txt"
#: The ``study`` arguments of the CLI round trip, without ``--store``.
CLI_STUDY_ARGS = (
    "--dataset", "german", "--error-type", "mislabels",
    "--n-sample", "300", "--repetitions", "2",
)


def open_copy(source: Path, workdir: Path) -> ResultStore:
    """A sharded copy of ``source`` under ``workdir``, opened fresh.

    A legacy store is migrated by one ``save``; the returned store is
    re-read from disk so every query goes through the shard layout.
    """
    target = workdir / source.name
    shutil.copyfile(source, target)
    shard_dir = source.parent / f"{source.stem}.store"
    if shard_dir.exists():
        shutil.copytree(shard_dir, workdir / shard_dir.name)
    store = ResultStore(target)
    if store.is_legacy:
        store.save()
    return ResultStore(target)


def render(store: ResultStore) -> tuple[str, str]:
    """(rendered report, canonical audit JSON) of one store."""
    audit = json.dumps(build_audit(store).to_json(), sort_keys=True)
    return build_study_report(store), audit


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_tables(store_path: Path) -> str:
    """Stdout of ``tables`` after ``study`` populates ``store_path``."""
    with redirect_stdout(StringIO()):
        assert cli(["study", "--store", str(store_path), *CLI_STUDY_ARGS]) == 0
    out = StringIO()
    with redirect_stdout(out):
        assert cli(["tables", "--store", str(store_path)]) == 0
    return out.getvalue()


def build_stack() -> dict[str, object]:
    """The software stack, as the booster golden records it."""
    spec = importlib.util.spec_from_file_location(
        "golden_xgboost_regenerate", HERE.parent / "golden_xgboost" / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_stack()


def main() -> None:
    stores = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, source in SOURCES.items():
            workdir = Path(scratch) / name
            workdir.mkdir()
            store = open_copy(source, workdir)
            report, audit = render(store)
            stores[name] = {
                "records": len(store),
                "report_sha256": sha256(report),
                "audit_sha256": sha256(audit),
            }
            if name == "golden_xgboost":
                SMALL_REPORT.write_text(report)
        CLI_TABLES.write_text(cli_tables(Path(scratch) / "cli" / "store.json"))
    payload = {"stores": stores, **build_stack()}
    (HERE / "digests.json").write_text(json.dumps(payload, indent=2) + "\n")
    for name, entry in stores.items():
        print(f"{name}: {entry['records']} records, report {entry['report_sha256'][:12]}")


if __name__ == "__main__":
    main()
