"""The benchmark's own translate path reproduces its recorded digests.

`perfbench/worker.py` translates each workload input from parse on and
hashes the emitted fact texts; a full benchmark run compares the hash
with the one `perfbench/workloads.json` records, while the self-check's
tiny sizes record none.  Here the untraced path runs at full size for
both translator configurations, without the oracle.  The worker counts
each traced firing under the first of its banks that names the rule,
so every rule a translator can fire must be in one of them.
"""

import importlib
import pathlib

import pytest

from alloy2fa import pipeline
from alloy2fa.heuristics import SHORTCUT

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRANSLATORS = {"mech": pipeline.MECHANICAL, "short": SHORTCUT}


@pytest.fixture(scope="module")
def worker():
    """perfbench's worker module, imported as its launcher runs it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        yield importlib.import_module("worker")


def rule_names(translator) -> set:
    banks = (translator.pre + translator.banks + translator.post
             + (pipeline._NORMALIZE_RULES,))
    return {r.name for bank in banks for r in bank}


def test_translate_path_reproduces_the_recorded_digests(worker):
    assert {cfg.name for cfg in worker.CONFIGS} == set(TRANSLATORS)
    for cfg in worker.CONFIGS:
        counted = set().union(*(names for _, names in cfg.banks))
        assert rule_names(TRANSLATORS[cfg.name]) <= counted, cfg.name
    for name in ("university", "scaling"):
        wl = worker.corpus.build(name, 0, str(ROOT))
        assert set(wl.digests) == set(TRANSLATORS)
        for cfg in worker.CONFIGS:
            out = {inp.id: worker.translate_input(inp, cfg, None)
                   for inp in wl.inputs}
            assert [m for em in out.values() for m in em.failures] == []
            assert worker.digest(out) == wl.digests[cfg.name], (name,
                                                                cfg.name)
