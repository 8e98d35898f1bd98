"""The four workloads: inputs from a seed, set-up, operation streams, checks.

Every workload builds its inputs from the seed alone, sets its stores
up through the program's public API, yields an endless closed-loop
operation stream, and checks every answer outside the timed region:

* reads against the native :mod:`repro.xpath` evaluator on the
  generated (or twin) DOM, once per distinct (query, doc, version);
* writes through a DOM twin that replays them and must equal what the
  store reconstructs, plus the program's invariant auditor.

README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import sqlite3
from collections import deque
from pathlib import Path
from typing import Any, Iterator, Optional

from harness import Op, WrongAnswer
from repro import XmlStore
from repro.check import assert_store_clean
from repro.core.reconstruct import reconstruct_document_with_ids
from repro.core.shredder import direct_text_value
from repro.minidb.persist import snapshot_bytes
from repro.serve import ServeConfig, ServeDaemon, TcpClient
from repro.workload.docgen import catalog_corpus, sized_article_corpus
from repro.xmldom import parse, serialize
from repro.xmldom.dom import Comment, Element, ProcessingInstruction, Text
from repro.xpath import AttributeNode, Evaluator

ENCODINGS = ("global", "local", "dewey", "ordpath")

_WORDS = (
    "order data xml relational query encoding dewey global local update "
    "sibling ancestor index join shred node tree storage paper result"
).split()


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


class Rounds:
    """Endless shuffled rounds of a fixed multiset of items.

    Every round holds each item as often as the multiset does, so the
    share of each operation class in a run is fixed by the mix, not by
    luck of the draw.
    """

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class Spread:
    """Evenly spread draws from a seeded start (a golden-ratio sequence).

    Any stretch of consecutive draws covers the range nearly uniformly,
    so the positions and literals a short run visits, and with them the
    cost of position-dependent operations, repeat from run to run.
    """

    STEP = 0.6180339887498949

    def __init__(self, rng: random.Random) -> None:
        self.x = rng.random()

    def next_unit(self) -> float:
        """A draw from [0, 1)."""
        self.x = (self.x + self.STEP) % 1.0
        return self.x

    def next(self, n: int) -> int:
        """A draw from ``range(n)``."""
        return _digit(self.next_unit(), n)[0]


class Cycle:
    """A walk through ``range(n)`` that visits every value once per
    ``n`` draws, in a spread-out order (a stride near ``n`` over the
    golden ratio, coprime with ``n``).

    Every key therefore comes back after exactly ``n`` draws, which
    keeps result-cache hits out of a workload whose key space is sized
    above the cache's reach.
    """

    def __init__(self, rng: random.Random, n: int) -> None:
        self.n = n
        self.at = rng.randrange(n)
        self.stride = max(1, round(n * Spread.STEP))
        while math.gcd(self.stride, n) != 1:
            self.stride += 1

    def next(self) -> int:
        self.at = (self.at + self.stride) % self.n
        return self.at


def _digit(x: float, n: int) -> tuple[int, float]:
    """Split a draw from [0, 1) into a digit in ``range(n)`` and the
    remaining fraction, itself a draw from [0, 1)."""
    scaled = x * n
    digit = min(int(scaled), n - 1)
    return digit, scaled - digit


# -- result comparison --------------------------------------------------------


def item_tuples(items) -> list[tuple]:
    """Store results (``ResultItem`` or wire lists) as plain tuples."""
    out = []
    for item in items:
        if isinstance(item, (list, tuple)):
            out.append(tuple(item))
        else:
            out.append((item.kind, item.node_id, item.label, item.value))
    return out


def expected_tuples(nodes, ids: dict[int, int]) -> list[tuple]:
    """Oracle nodes as the tuples the store must return."""
    out = []
    for node in nodes:
        if isinstance(node, AttributeNode):
            out.append(
                ("attribute", ids[id(node.owner)], node.name, node.value)
            )
        elif isinstance(node, Element):
            out.append(
                ("elem", ids[id(node)], node.tag, direct_text_value(node))
            )
        elif isinstance(node, Text):
            out.append(("text", ids[id(node)], None, node.content))
        elif isinstance(node, Comment):
            out.append(("comment", ids[id(node)], None, node.content))
        elif isinstance(node, ProcessingInstruction):
            out.append(("pi", ids[id(node)], node.target, node.data))
        else:
            raise WrongAnswer(f"oracle returned unexpected node {node!r}")
    return out


def zip_ids(dom, store_tree, store_ids: dict[int, int]) -> dict[int, int]:
    """Map ``id(dom node) -> store node id`` via a reconstructed tree.

    Also the twin check: the DOM and the store's reconstruction must be
    structurally equal, or the store lost or corrupted a write.
    """
    if not dom.structurally_equal(store_tree):
        raise WrongAnswer("store contents differ from the DOM twin")
    return {
        id(mine): store_ids[id(theirs)]
        for mine, theirs in zip(
            dom.iter_preorder(), store_tree.iter_preorder()
        )
    }


def zip_wire_ids(dom, items: list) -> dict[int, int]:
    """Map ``id(dom node) -> node id`` from a wire ``//node()`` answer."""
    nodes = list(dom.iter_preorder())
    if len(nodes) != len(items):
        raise WrongAnswer("//node() count differs from the generated DOM")
    out = {}
    for node, (kind, node_id, label, _value) in zip(nodes, items):
        want = "elem" if isinstance(node, Element) else "text"
        if kind != want or (want == "elem" and label != node.tag):
            raise WrongAnswer("//node() order differs from the generated DOM")
        out[id(node)] = node_id
    return out


def _result_hits(store: XmlStore) -> int:
    return store.cache.stats()["layers"]["result"]["hits"]


def labelled_read(store: XmlStore, cls: str, run, record) -> Op:
    """A read op whose class becomes ``result-hit`` when the store
    answered it from its result cache (read outside the timed call)."""
    hits = _result_hits(store)
    op = Op("read", cls, run)

    def after(items) -> None:
        if _result_hits(store) != hits:
            op.cls = "result-hit"
        record(items)

    op.after = after
    return op


class ResultLog:
    """Reads awaiting their oracle check, keyed by (store, doc, xpath).

    Repeats of a key at the same document version must return the same
    answer; the oracle runs once per key when the key is flushed.
    """

    def __init__(self) -> None:
        self.pending: dict[tuple, list[tuple]] = {}
        self.checked = 0

    def record(self, key: tuple, got: list[tuple]) -> None:
        first = self.pending.setdefault(key, got)
        if first != got:
            raise WrongAnswer(f"{key}: repeated read changed its answer")

    def flush(self, keys, expected) -> None:
        """Check *keys* with ``expected(key) -> tuples`` and drop them."""
        for key in list(keys):
            got = self.pending.pop(key)
            want = expected(key)
            self.checked += 1
            if got != want:
                raise WrongAnswer(
                    f"{key}: store returned {got[:4]}... ({len(got)}), "
                    f"evaluator returned {want[:4]}... ({len(want)})"
                )


def _in_use_bytes(execute) -> int:
    """Bytes of a sqlite database's in-use (non-free) pages."""
    def pragma(name: str) -> int:
        result = execute(f"PRAGMA {name}")
        rows = result.rows if hasattr(result, "rows") else result.fetchall()
        return rows[0][0]

    return (pragma("page_count") - pragma("freelist_count")) * pragma(
        "page_size"
    )


def store_bytes(store: XmlStore) -> int:
    if store.backend.name == "minidb":
        return len(snapshot_bytes(store.backend.db))
    return _in_use_bytes(store.backend.execute)


# -- article-ordered / minidb-ordered -----------------------------------------

#: The paper's Q1-Q8 and U1-U4 with drawn literals (``k`` article,
#: ``s`` section, ``p`` paragraph, ``y`` year).  Templates that have no
#: literal in the paper get an article filter, so that distinct
#: (query, doc) keys far outnumber the 512-entry result cache; the
#: literals are slotted, so the 256-entry plan cache holds one plan per
#: template and encoding.
ARTICLE_TEMPLATES = {
    "Q1": "/journal/article[{k}]/title",
    "Q2": "/journal/article[position() >= {k}]/section[{s}]/para[{p}]",
    "Q3": "/journal/article[position() >= {k}]"
          "/section[position() <= {s}]/title",
    "Q4": "/journal/article[position() >= {k}]/author[last()]",
    "Q5": "/journal/article[position() >= {k}]/section[{s}]"
          "/following-sibling::section",
    "Q6": "/journal/article[position() >= {k}]/section[{s}]"
          "/preceding-sibling::section/title",
    "Q7": "/journal/article[{k}]/following::author",
    "Q8": "/journal/article[{k}]/preceding::title",
    "U1": "/journal/article[@id = 'a{k}']/section/title",
    "U2": "/journal/article[@id = 'a{k}']//para",
    "U3": "//article[@year >= {y}]/section[@no = '{s}']/title",
    "U4": "/journal/article[@id = 'a{k}']//section[para]/title",
}

#: Local order answers following::/preceding:: with a depth-expanded
#: join that takes 0.1-2 s per call at 1.5k nodes, 100-3000x the
#: workload's median; one such call would dominate a whole slice.
LOCAL_SKIPS = frozenset({"Q7", "Q8"})


#: Per encoding and round of the article workloads, next to two of
#: every (template, encoding) query: subtree reconstructions (about
#: 8 % of operations) and writes (about 17 %, enough inserts into
#: Global's writer store to pin ``write_p95_ms`` down).
RECONSTRUCTS = 3
WRITES = 6

#: Pending reads checked at once (untimed) in the article workloads.
CHECK_BATCH = 1000


class ArticleWorkload:
    """Ordered reads over one store per encoding, plus writer stores.

    Reads go to the reader stores, which never change, so caches stay
    warm exactly as far as the key mix allows.  Writes (positional
    paragraph inserts and deletes) go to a separate writer store per
    encoding: the paper's update trade-off, without invalidating the
    readers' caches.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        backend: str,
        doc_nodes: int,
        docs_per_store: int,
        extra_draws: tuple[str, ...],
        trace_ops: int,
    ) -> None:
        self.name = name
        self.draws = tuple(ARTICLE_TEMPLATES) + extra_draws
        self.backend = backend
        self.trace_ops = trace_ops
        rng = random.Random(seed)
        self.docs = [
            sized_article_corpus(doc_nodes, seed=rng.randrange(1 << 30))
            for _ in range(docs_per_store)
        ]
        self.xml = [serialize(d) for d in self.docs]
        #: Articles per document (the same in every generated corpus).
        self.articles = len(self.docs[0].root.children)
        self.writer_xml = serialize(
            sized_article_corpus(doc_nodes, seed=rng.randrange(1 << 30))
        )
        self.elements = [
            [n for n in d.iter_preorder() if isinstance(n, Element)]
            for d in self.docs
        ]
        self.evaluators = [Evaluator(d) for d in self.docs]
        self.log = ResultLog()
        self._oracle: dict[tuple, list] = {}

    # -- set-up --------------------------------------------------------

    def _store(self, encoding: str, probe) -> XmlStore:
        store = XmlStore(
            backend=self.backend, encoding=encoding, cache=True,
            index_incremental=True,
        )
        if probe is not None:
            probe.attach_store(store)
        return store

    def setup(self, probe=None) -> Iterator[None]:
        """Build the stores, yielding after each document load."""
        self.readers = {}
        self.reader_docs = {}
        for enc in ENCODINGS:
            store = self._store(enc, probe)
            self.readers[enc] = store
            self.reader_docs[enc] = []
            for i, xml in enumerate(self.xml):
                self.reader_docs[enc].append(store.load(xml, f"article{i}"))
                yield
        self.writers = {}
        for enc in ENCODINGS:
            store = self._store(enc, probe)
            self.writers[enc] = (store, store.load(self.writer_xml, "w"))
            yield

    def teardown(self) -> None:
        for store in self.readers.values():
            store.close()
        for store, _doc in self.writers.values():
            store.close()

    def prepare_checks(self) -> None:
        """Map generated DOM nodes to store ids (after set-up, untimed)."""
        self.ids = {}
        for enc, store in self.readers.items():
            for i, doc in enumerate(self.reader_docs[enc]):
                tree, ids = reconstruct_document_with_ids(store, doc)
                self.ids[enc, i] = zip_ids(self.docs[i], tree, ids)
        self.twins = {}
        for enc, (store, doc) in self.writers.items():
            twin = parse(self.writer_xml)
            tree, ids = reconstruct_document_with_ids(store, doc)
            id_of = zip_ids(twin, tree, ids)
            sections = [
                (n, id_of[id(n)]) for n in twin.iter_preorder()
                if isinstance(n, Element) and n.tag == "section"
            ]
            self.twins[enc] = (twin, sections, deque())

    # -- operations ----------------------------------------------------

    def stream(self, rng: random.Random) -> Iterator[Op]:
        """Shuffled rounds of every (template, encoding) query twice,
        plus :data:`RECONSTRUCTS` reconstructions and :data:`WRITES`
        writes per encoding."""
        items = [
            ("query", name, enc)
            for enc in ENCODINGS for name in self.draws
            if not (enc == "local" and name in LOCAL_SKIPS)
        ] * 2
        for enc in ENCODINGS:
            items += [("reconstruct", None, enc)] * RECONSTRUCTS
            items += [("write", None, enc)] * WRITES
        rounds = Rounds(rng, items)
        spread: dict = {}
        # One walk per store and template: every store's result cache
        # sees each key again only after all of the template's keys.
        cycles = {
            (name, enc): Cycle(rng, self._key_count(name))
            for name in ARTICLE_TEMPLATES for enc in ENCODINGS
        }

        def draw(key) -> float:
            if key not in spread:
                spread[key] = Spread(rng)
            return spread[key].next_unit()

        while True:
            if len(self.log.pending) >= CHECK_BATCH:
                self._check_reads()
            kind, name, enc = rounds.next()
            if kind == "query":
                yield self._query(name, enc, cycles[name, enc].next())
            elif kind == "reconstruct":
                yield self._reconstruct(enc, draw)
            else:
                yield self._write(enc, draw)

    def _slots(self, name: str) -> list[tuple[str, int, int]]:
        """The template's literal slots as (name, lowest value, count)."""
        return [
            (slot, low, count)
            for slot, low, count in (("k", 1, self.articles), ("s", 1, 4),
                                     ("p", 1, 5), ("y", 1992, 11))
            if "{" + slot + "}" in ARTICLE_TEMPLATES[name]
        ]

    def _key_count(self, name: str) -> int:
        return len(self.docs) * math.prod(c for _s, _l, c in self._slots(name))

    def _query(self, name: str, enc: str, key: int) -> Op:
        # The key is read as mixed-radix digits: document first, then
        # the template's literals.
        i, key = key % len(self.docs), key // len(self.docs)
        literals = {}
        for slot, low, count in self._slots(name):
            key, digit = divmod(key, count)
            literals[slot] = low + digit
        xpath = ARTICLE_TEMPLATES[name].format(**literals)
        store = self.readers[enc]
        doc = self.reader_docs[enc][i]
        return labelled_read(
            store, f"{name}.{enc}",
            lambda: store.query(xpath, doc),
            lambda items: self.log.record((enc, i, xpath), item_tuples(items)),
        )

    def _reconstruct(self, enc: str, draw) -> Op:
        i, x = _digit(draw("reconstruct"), len(self.docs))
        node = self.elements[i][_digit(x, len(self.elements[i]))[0]]
        store = self.readers[enc]
        doc = self.reader_docs[enc][i]
        node_id = self.ids[enc, i][id(node)]

        def check(subtree) -> None:
            if not node.structurally_equal(subtree):
                raise WrongAnswer(
                    f"reconstruct_subtree({enc}, {node_id}) differs"
                )

        return Op(
            "read", f"reconstruct.{enc}",
            lambda: store.reconstruct_subtree(doc, node_id), check,
        )

    def _write(self, enc: str, draw) -> Op:
        """Insert a paragraph at an evenly drawn position; once eight
        are outstanding, alternate with deleting the oldest."""
        store, doc = self.writers[enc]
        _twin, sections, inserted = self.twins[enc]
        if len(inserted) < 8:
            at, x = _digit(draw((enc, "insert")), len(sections))
            section, section_id = sections[at]
            index = 1 + _digit(x, len(section.children))[0]
            text = f"inserted paragraph {len(inserted)} of {section_id}"

            def after(report) -> None:
                para = Element("para")
                para.append(Text(text))
                section.insert(index, para)
                inserted.append((para, report.new_root_id, section))

            return Op(
                "write", f"insert.{enc}",
                lambda: store.updates.insert(
                    doc, section_id, index, f"<para>{text}</para>"
                ),
                after,
            )
        para, para_id, section = inserted.popleft()
        return Op(
            "write", f"delete.{enc}",
            lambda: store.updates.delete(doc, para_id),
            lambda _report: section.remove(para),
        )

    # -- checks and sizes ----------------------------------------------

    def _expected(self, key: tuple) -> list[tuple]:
        enc, i, xpath = key
        nodes = self._oracle.get((i, xpath))
        if nodes is None:
            nodes = self._oracle[i, xpath] = self.evaluators[i].evaluate(
                xpath
            )
        return expected_tuples(nodes, self.ids[enc, i])

    def _check_reads(self) -> None:
        """Check and drop the pending reads, so the benchmark's own
        memory does not grow with the length of the run."""
        self.log.flush(self.log.pending, self._expected)
        self._oracle.clear()

    def finish(self) -> None:
        self._check_reads()
        for enc, (store, doc) in self.writers.items():
            twin = self.twins[enc][0]
            if not twin.structurally_equal(store.reconstruct(doc)):
                raise WrongAnswer(f"{enc} writer store differs from its twin")
            _check_clean(store)
        for store in self.readers.values():
            _check_clean(store)

    def storage_bytes(self) -> int:
        return sum(store_bytes(s) for s in self.readers.values()) + sum(
            store_bytes(s) for s, _d in self.writers.values()
        )

    def xml_bytes(self) -> int:
        live = sum(len(x.encode()) for x in self.xml) * len(self.readers)
        return live + sum(
            len(serialize(t[0]).encode()) for t in self.twins.values()
        )

    def child_rss_kb(self) -> int:
        return 0


def _check_clean(store: XmlStore) -> None:
    try:
        assert_store_clean(store)
    except AssertionError as exc:
        raise WrongAnswer(str(exc)) from exc


# -- catalog-churn ------------------------------------------------------------

#: C1-C5-style reads; literals come from small sets so the hot set
#: (12 keys per document) fits the result cache.
CATALOG_HOT = (
    [("C1", "/catalog/product/name"),
     ("C3", "//product[review]/review[1]/comment")]
    + [("C2", f"//product[price < {p}]/name") for p in (25, 50, 100)]
    + [("C4", f"//product[@category = '{c}']/price")
       for c in ("books", "music", "tools", "games")]
    + [("C5", f"//review[@rating >= {r}]/comment/text()") for r in (3, 4, 5)]
)
CATEGORIES = ("books", "music", "tools", "games")


def _product(rng: random.Random, sku: str) -> Element:
    product = Element(
        "product", {"sku": sku, "category": rng.choice(CATEGORIES)}
    )
    for tag, text in (
        ("name", f"Product {sku} {_words(rng, 2)}"),
        ("price", f"{rng.randint(1, 500)}.{rng.randint(0, 99):02d}"),
        ("stock", str(rng.randint(0, 1000))),
    ):
        child = Element(tag)
        child.append(Text(text))
        product.append(child)
    if rng.random() < 0.6:
        review = Element("review", {"rating": str(rng.randint(1, 5))})
        comment = Element("comment")
        comment.append(Text(_words(rng, 4)))
        review.append(comment)
        product.append(review)
    return product


def _set_text(element: Element, text: str, ids: dict[int, int]) -> None:
    for child in list(element.children):
        _remove(element, child, ids)
    element.append(Text(text))


def _remove(parent: Element, node, ids: dict[int, int]) -> None:
    """Detach *node* and forget its subtree's store ids: CPython reuses
    the ``id()`` of freed objects, so a stale key could later match a
    new node."""
    subtree = [node]
    if isinstance(node, Element):
        subtree += node.iter_preorder()
    for gone in subtree:
        ids.pop(id(gone), None)
    parent.remove(node)


class CatalogTwin:
    """One catalog document's DOM twin and id map."""

    def __init__(self, xml: str) -> None:
        self.dom = parse(xml)
        self.catalog = self.dom.root
        self.initial = len(self.catalog.children)
        self.ids: dict[int, int] = {}
        self.stale = True  # ids of nodes inserted since the last zip

    def products(self) -> list[Element]:
        return [p for p in self.catalog.children if id(p) in self.ids]


class CatalogChurn:
    """Reads from a hot set interleaved with write bursts, one store.

    Each round writes a burst of :attr:`BURST` operations to one
    document, then reads :attr:`READ_RUN` keys from the hot set of all
    documents.  Writes are 60 % ``set_attribute`` and 15 % ``set_text``
    (value updates) and 25 % positional product inserts and deletes in
    equal numbers, so ``write_p50_ms`` falls inside the value updates
    and ``write_p95_ms`` inside the inserts.  Every burst bumps the
    cache epoch, so a read run refills plan and result caches.
    """

    name = "catalog-churn"
    DOCS = 4
    PRODUCTS = 60
    BURST = 6
    READ_RUN = 30
    trace_ops = 1500

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.xml = [
            serialize(
                catalog_corpus(self.PRODUCTS, seed=rng.randrange(1 << 30))
            )
            for _ in range(self.DOCS)
        ]
        self.log = ResultLog()
        self._sku = 0

    def setup(self, probe=None) -> Iterator[None]:
        """Load and index each catalog, yielding after each step."""
        self.store = XmlStore(
            backend="sqlite", encoding="dewey", cache=True,
            index_incremental=True,
        )
        if probe is not None:
            probe.attach_store(self.store)
        self.doc_ids = []
        for i, xml in enumerate(self.xml):
            self.doc_ids.append(self.store.load(xml, name=f"catalog{i}"))
            yield
            self.store.indexes.create(self.doc_ids[-1])
            yield

    def teardown(self) -> None:
        self.store.close()

    def prepare_checks(self) -> None:
        self.twins = [CatalogTwin(xml) for xml in self.xml]
        for i in range(self.DOCS):
            self._refresh(i)

    def _refresh(self, i: int) -> None:
        twin = self.twins[i]
        tree, ids = reconstruct_document_with_ids(self.store, self.doc_ids[i])
        twin.ids = zip_ids(twin.dom, tree, ids)
        twin.stale = False

    def _flush(self, i: int) -> None:
        """Check doc *i*'s pending reads against its twin (untimed)."""
        keys = [k for k in self.log.pending if k[0] == i]
        if keys or self.twins[i].stale:
            self._refresh(i)
        twin = self.twins[i]
        evaluator = Evaluator(twin.dom)
        self.log.flush(
            keys,
            lambda key: expected_tuples(evaluator.evaluate(key[1]), twin.ids),
        )

    def stream(self, rng: random.Random) -> Iterator[Op]:
        docs = Rounds(rng, range(self.DOCS))
        kinds = Rounds(rng, ["set_attribute"] * 12 + ["set_text"] * 3
                       + ["positional"] * 5)
        position = Spread(rng)
        while True:
            i = docs.next()
            self._flush(i)
            for _ in range(self.BURST):
                yield self._write(i, kinds.next(), position, rng)
            for _ in range(self.READ_RUN):
                yield self._read(rng)

    def _read(self, rng: random.Random) -> Op:
        i = rng.randrange(self.DOCS)
        name, xpath = rng.choice(CATALOG_HOT)
        doc = self.doc_ids[i]
        return labelled_read(
            self.store, f"miss.{name}",
            lambda: self.store.query(xpath, doc),
            lambda items: self.log.record((i, xpath), item_tuples(items)),
        )

    def _write(self, i: int, kind: str, position: Spread,
               rng: random.Random) -> Op:
        twin = self.twins[i]
        doc = self.doc_ids[i]
        updates = self.store.updates
        products = twin.products()
        if kind == "set_text":
            element = rng.choice(products).find_children(
                rng.choice(("price", "stock"))
            )[0]
            target = twin.ids[id(element)]
            text = str(rng.randint(1, 999))
            return Op(
                "write", "value.set_text",
                lambda: updates.set_text(doc, target, text),
                lambda _r: _set_text(element, text, twin.ids),
            )
        if kind == "set_attribute":
            product = rng.choice(products)
            reviews = product.find_children("review")
            if reviews and rng.random() < 0.5:
                element, attr = rng.choice(reviews), "rating"
                value = str(rng.randint(1, 5))
            else:
                element, attr = product, "category"
                value = rng.choice(CATEGORIES)
            target = twin.ids[id(element)]
            return Op(
                "write", "value.set_attribute",
                lambda: updates.set_attribute(doc, target, attr, value),
                lambda _r: element.set(attr, value),
            )
        catalog = twin.catalog
        if len(catalog.children) > twin.initial:
            product = rng.choice(products)
            target = twin.ids[id(product)]
            return Op(
                "write", "delete",
                lambda: updates.delete(doc, target),
                lambda _r: _remove(catalog, product, twin.ids),
            )
        self._sku += 1
        product = _product(rng, f"n{self._sku:05d}")
        index = position.next(len(catalog.children) + 1)
        fragment = serialize(product)
        catalog_id = twin.ids[id(catalog)]

        def after(_report) -> None:
            catalog.insert(index, product)
            twin.stale = True

        return Op(
            "write", "insert",
            lambda: updates.insert(doc, catalog_id, index, fragment),
            after,
        )

    def finish(self) -> None:
        for i in range(self.DOCS):
            self._flush(i)
            got = self.store.reconstruct(self.doc_ids[i])
            if not self.twins[i].dom.structurally_equal(got):
                raise WrongAnswer(f"catalog {i} differs from its twin")
        _check_clean(self.store)

    def storage_bytes(self) -> int:
        return store_bytes(self.store)

    def xml_bytes(self) -> int:
        return sum(len(serialize(t.dom).encode()) for t in self.twins)

    def child_rss_kb(self) -> int:
        return 0


# -- served-shards ------------------------------------------------------------

#: Cluster files live under the checkout, at a relative path: unix
#: socket paths are limited to 107 bytes, and the shard processes
#: inherit the benchmark's working directory.
CLUSTER_ROOT = Path(".perfbench_tmp")


def _vm_hwm_kb(pid: Optional[int]) -> int:
    if pid is None:
        return 0
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServedShards:
    """Two shard processes behind the in-process front door, one client.

    Per round of 40 operations: 28 point queries, 8 scatter queries over
    every document, and 4 wire value updates (3 ``set_text`` on prices
    and stock, 1 ``set_attribute`` on categories and ratings, so both
    write percentiles fall inside ``set_text``).  Value updates keep
    element ids stable, so reads map onto the twin without a re-scan.
    """

    name = "served-shards"
    SHARDS = 2
    DOCS = 6
    PRODUCTS = 40
    trace_ops = 1500

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.xml = [
            serialize(
                catalog_corpus(self.PRODUCTS, seed=rng.randrange(1 << 30))
            )
            for _ in range(self.DOCS)
        ]
        self.log = ResultLog()
        self._clusters = 0
        self.daemon: Optional[ServeDaemon] = None
        self.shard_hwm_kb = 0

    def setup(self, probe=None) -> Iterator[None]:
        """Spawn the cluster, then load each catalog over the wire,
        yielding after each step."""
        self._clusters += 1
        self.directory = CLUSTER_ROOT / f"c{os.getpid()}-{self._clusters}"
        if self.directory.exists():
            shutil.rmtree(self.directory)
        self.daemon = ServeDaemon(
            ServeConfig(directory=str(self.directory), shards=self.SHARDS)
        )
        port = self.daemon.start_in_background()
        self.client = TcpClient("127.0.0.1", port, timeout=60.0)
        if probe is not None:
            probe.attach_router(self.daemon.router)
        yield
        self.doc_ids = []
        for i, xml in enumerate(self.xml):
            self.doc_ids.append(self.client.load(xml, name=f"catalog{i}"))
            yield

    def shard_pids(self) -> list[Optional[int]]:
        supervisor = self.daemon.supervisor
        return [supervisor.pid(s) for s in range(self.SHARDS)]

    def teardown(self) -> None:
        self.shard_hwm_kb = sum(_vm_hwm_kb(pid) for pid in self.shard_pids())
        self.client.close()
        self.daemon.stop()
        thread = getattr(self.daemon, "_thread", None)
        if thread is not None and thread.is_alive():
            raise RuntimeError("serve daemon did not stop")
        shutil.rmtree(self.directory, ignore_errors=True)
        try:
            CLUSTER_ROOT.rmdir()
        except OSError:
            pass  # not empty: another run's cluster is still there
        self.daemon = None

    def shard_call(self, doc: int, message: dict) -> dict:
        shard, local = self.daemon.router.locate(doc)
        return self.daemon.router.clients[shard].request(
            dict(message, doc=local)
        )

    def prepare_checks(self) -> None:
        self.twins = [parse(xml) for xml in self.xml]
        self.ids = []
        for doc, twin in zip(self.doc_ids, self.twins):
            items = self.client.query("//node()", doc)["items"]
            self.ids.append(zip_wire_ids(twin, items))
        self.targets = []
        for twin, ids in zip(self.twins, self.ids):
            self.targets.append([
                n for n in twin.iter_preorder()
                if isinstance(n, Element)
                and n.tag in ("price", "stock", "product", "review")
            ])

    def _flush(self, i: int) -> None:
        keys = [k for k in self.log.pending if k[0] == i]
        if not keys:
            return
        evaluator = Evaluator(self.twins[i])
        ids = self.ids[i]
        self.log.flush(
            keys,
            lambda key: expected_tuples(evaluator.evaluate(key[1]), ids),
        )

    def stream(self, rng: random.Random) -> Iterator[Op]:
        kinds = Rounds(rng, ["set_text"] * 3 + ["set_attribute"]
                       + ["scatter"] * 8 + ["point"] * 28)
        while True:
            kind = kinds.next()
            if kind.startswith("set_"):
                i = rng.randrange(self.DOCS)
                self._flush(i)
                yield self._write(i, kind, rng)
            elif kind == "scatter":
                yield self._scatter(rng)
            else:
                yield self._point(rng)

    def _point(self, rng: random.Random) -> Op:
        i = rng.randrange(self.DOCS)
        _name, xpath = rng.choice(CATALOG_HOT)
        doc = self.doc_ids[i]
        return Op(
            "read", "point",
            lambda: self.client.query(xpath, doc),
            lambda r: self.log.record((i, xpath), item_tuples(r["items"])),
        )

    def _scatter(self, rng: random.Random) -> Op:
        _name, xpath = rng.choice(CATALOG_HOT)
        index_of = {doc: i for i, doc in enumerate(self.doc_ids)}

        def run() -> Any:
            response = self.client.query(xpath)
            if response["errors"]:
                raise RuntimeError(f"scatter errors: {response['errors']}")
            return response

        def after(response) -> None:
            groups = response["groups"]
            if [g["doc"] for g in groups] != self.doc_ids:
                raise WrongAnswer("scatter groups are not in document order")
            for group in groups:
                self.log.record(
                    (index_of[group["doc"]], xpath),
                    item_tuples(group["items"]),
                )

        return Op("read", "scatter", run, after)

    def _write(self, i: int, kind: str, rng: random.Random) -> Op:
        tags = ("price", "stock") if kind == "set_text" else (
            "product", "review")
        element = rng.choice(
            [n for n in self.targets[i] if n.tag in tags]
        )
        target = self.ids[i][id(element)]
        doc = self.doc_ids[i]
        if kind == "set_text":
            text = str(rng.randint(1, 999))
            change = {"kind": "set_text", "target": target, "text": text}

            def apply() -> None:
                _set_text(element, text, self.ids[i])
        else:
            attr = "rating" if element.tag == "review" else "category"
            value = (
                str(rng.randint(1, 5)) if attr == "rating"
                else rng.choice(CATEGORIES)
            )
            change = {"kind": "set_attribute", "target": target,
                      "name": attr, "value": value}

            def apply() -> None:
                element.set(attr, value)

        return Op(
            "write", kind,
            lambda: self.client.update(doc, change),
            lambda _r: apply(),
        )

    def finish(self) -> None:
        for i, doc in enumerate(self.doc_ids):
            self._flush(i)
            state = self.shard_call(doc, {"op": "state"})
            if not self.twins[i].structurally_equal(parse(state["xml"])):
                raise WrongAnswer(f"shard copy of catalog {i} differs")
            check = self.shard_call(doc, {"op": "check"})
            if not check.get("ok") or check.get("violations"):
                raise WrongAnswer(f"shard check failed: {check}")

    def storage_bytes(self) -> int:
        """In-use pages of the shard files, read through the WAL."""
        total = 0
        for spec in self.daemon.supervisor.specs:
            conn = sqlite3.connect(f"file:{spec.db_path}?mode=ro", uri=True)
            try:
                total += _in_use_bytes(conn.execute)
            finally:
                conn.close()
        return total

    def xml_bytes(self) -> int:
        return sum(len(serialize(t).encode()) for t in self.twins)

    def child_rss_kb(self) -> int:
        return self.shard_hwm_kb


# -- registry -----------------------------------------------------------------


def make_workload(name: str, seed: int):
    # ``extra_draws`` repeat the templates of the slowest read class so
    # it holds about 3 % of reads and ``read_p99_ms`` falls inside it,
    # not on its lower edge: Global's preceding:: on sqlite, Local's
    # descendant expansion on minidb.  A template drawn d times per
    # round cycles through its k * docs keys every k * docs / d rounds;
    # that must stay above the ~20 rounds it takes to push a key out of
    # the 512-entry result cache, or the class turns into cache hits.
    if name == "article-ordered":
        return ArticleWorkload(
            name, seed, backend="sqlite", doc_nodes=1500, docs_per_store=3,
            extra_draws=("Q7", "Q8"), trace_ops=1200,
        )
    if name == "minidb-ordered":
        return ArticleWorkload(
            name, seed, backend="minidb", doc_nodes=600, docs_per_store=6,
            extra_draws=("U2",), trace_ops=600,
        )
    if name == "catalog-churn":
        return CatalogChurn(seed)
    if name == "served-shards":
        return ServedShards(seed)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = (
    "article-ordered", "catalog-churn", "served-shards", "minidb-ordered",
)
