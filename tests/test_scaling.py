"""Scaling gate: query work must grow linearly with the document.

Every query of the article workload (Q1–Q8, U1–U4) plus a corpus of
positional-then-axis queries runs over the same generated article
corpus at two sizes, on every encoding and both backends.  Work is
counted deterministically (sqlite VM steps, minidb rows examined; see
:mod:`repro.check.scaling`), and its growth exponent against the node
count must stay at or below :data:`MAX_EXPONENT`.

Positional predicates compile to one ranked derived table per step; a
per-candidate ``COUNT(*)`` re-scans each sibling group per candidate
and grows with exponents of 1.5–2.8 here.
"""

import pytest

from repro.check.fuzz import FuzzConfig, run_fuzz
from repro.check.scaling import MAX_EXPONENT, query_work, work_exponent
from repro.errors import TranslationError
from repro.store import XmlStore
from repro.workload.docgen import sized_article_corpus
from repro.workload.queries import ORDERED_QUERIES, UNORDERED_QUERIES

SIZES = (750, 1500)

#: Positional predicates followed by (or on) document-order and sibling
#: axes: the shapes whose work used to grow superlinearly.
POSITIONAL_AXIS_QUERIES = (
    "/journal/article[4]/following::section",
    "/journal/article[1]/following::author[2]",
    "/journal/article/section[2]/preceding-sibling::section[1]",
    "//para[last()]",
    "//title/ancestor::*[1]",
    "/journal/article[last()]/preceding::para[1]",
)

QUERIES = tuple(
    q.xpath for q in ORDERED_QUERIES + UNORDERED_QUERIES
) + POSITIONAL_AXIS_QUERIES

_LOCAL_ORDER_AXIS = (
    "Local order has no document-order key: following::/preceding:: "
    "expand into depth-bounded EXISTS chains per candidate"
)
_MINIDB_ANCESTOR = (
    "minidb joins in FROM order, and ancestor:: is a containment range "
    "(pos < ctx.pos <= endpos, or key prefix) no single index answers, "
    "so every context scans all earlier nodes; unrelated to positions "
    "(//title/ancestor::* measures the same)"
)

#: (encoding, backend, query) -> (measured exponent, cause).  Exempt
#: cells are not run: the Local minidb ones take 10-30 s per pair.
EXEMPT = {
    ("local", "sqlite", "/journal/article[2]/preceding::title"):
        (2.02, _LOCAL_ORDER_AXIS),
    ("local", "minidb", "/journal/article[3]/following::author"):
        (1.98, _LOCAL_ORDER_AXIS),
    ("local", "minidb", "/journal/article[2]/preceding::title"):
        (1.99, _LOCAL_ORDER_AXIS),
    ("local", "minidb", "/journal/article[4]/following::section"):
        (2.01, _LOCAL_ORDER_AXIS),
    ("global", "minidb", "//title/ancestor::*[1]"):
        (1.96, _MINIDB_ANCESTOR),
    ("dewey", "minidb", "//title/ancestor::*[1]"):
        (1.96, _MINIDB_ANCESTOR),
    ("ordpath", "minidb", "//title/ancestor::*[1]"):
        (1.96, _MINIDB_ANCESTOR),
}

#: Positional shapes Local cannot translate (no document-order key).
LOCAL_UNTRANSLATABLE = {
    "/journal/article[1]/following::author[2]",
    "//title/ancestor::*[1]",
    "/journal/article[last()]/preceding::para[1]",
}


@pytest.fixture(scope="module")
def corpora():
    return [sized_article_corpus(n) for n in SIZES]


@pytest.mark.parametrize("backend", ["sqlite", "minidb"])
@pytest.mark.parametrize("encoding", ["global", "local", "dewey", "ordpath"])
def test_work_grows_linearly(corpora, encoding, backend):
    cells = []
    for corpus in corpora:
        store = XmlStore(backend=backend, encoding=encoding, cache=False)
        doc = store.load(corpus)
        cells.append((store, doc, store.document_info(doc).node_count))
    (small, small_doc, n_small), (large, large_doc, n_large) = cells
    assert n_large > 1.8 * n_small
    superlinear = []
    for xpath in QUERIES:
        if (encoding, backend, xpath) in EXEMPT:
            continue
        if encoding == "local" and xpath in LOCAL_UNTRANSLATABLE:
            with pytest.raises(TranslationError):
                small.translate(xpath, small_doc)
            continue
        work_small = query_work(small, xpath, small_doc)
        work_large = query_work(large, xpath, large_doc)
        exponent = work_exponent(work_small, work_large, n_small, n_large)
        if exponent > MAX_EXPONENT:
            superlinear.append(
                f"{xpath}: {work_small} -> {work_large} "
                f"(exponent {exponent:.2f})"
            )
    for store, _doc, _n in cells:
        store.close()
    assert not superlinear, (
        f"{encoding}/{backend} work grows faster than "
        f"n^{MAX_EXPONENT}:\n  " + "\n  ".join(superlinear)
    )


def test_fuzz_scaling_fixed_seeds():
    report = run_fuzz(FuzzConfig(
        scaling=True, seeds=3, queries_per_check=10,
        backends=("sqlite", "minidb"),
    ))
    assert report.cells == 3
    assert not report.failures, [str(f) for f in report.failures]


def test_fuzz_scaling_flags_superlinear_work(monkeypatch):
    import repro.check.fuzz as fuzz

    def quadratic(store, xpath, doc):
        return store.document_info(doc).node_count ** 2

    monkeypatch.setattr(fuzz, "query_work", quadratic)
    report = run_fuzz(FuzzConfig(
        scaling=True, seeds=1, base_seed=1, queries_per_check=3,
        encodings=("dewey",), backends=("sqlite",),
    ))
    (failure,) = report.failures
    assert failure.kind == "scaling"
    assert "exponent 2.0" in failure.detail
    command = failure.repro_command()
    assert command.startswith("repro fuzz --scaling --seeds 1 ")
    assert "--base-seed 1" in command
    assert f"--queries-per-check {failure.op_index}" in command


def test_cli_fuzz_scaling(capsys):
    from repro.cli import main

    assert main(["fuzz", "--scaling", "--seeds", "1",
                 "--queries-per-check", "5",
                 "--encodings", "global,local"]) == 0
    assert "1 cell(s)" in capsys.readouterr().out
