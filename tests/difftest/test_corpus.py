"""Replay the checked-in regression corpus as ordinary unit tests.

Every file under ``corpus/`` is a minimized stream that once exposed a
divergence between the repro engine and real SQLite (see each file's
``note``), recorded as a harness trace document whose scenario carries
the whole run.  Replaying them through the full four-executor runner
keeps those divergences fixed forever — a corpus file failing here means
a semantics regression, and ``python -m repro.difftest --replay <file>``
reproduces it standalone.
"""

import json
from pathlib import Path

import pytest

from repro.difftest.__main__ import HARNESS

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_stream_has_no_divergence(path):
    with open(path, encoding="utf-8") as fh:
        stream = HARNESS.load(json.load(fh))
    assert HARNESS.run(stream) == []
