"""Golden facts: both translators emit exactly the recorded output.

`data/golden_facts.json` holds, per translator and input, the first 16
hex digits of sha256 over `fact_text` and the width stamp, joined by a
newline. A refactor of the rewrite engine or of either translator must
keep every entry; a change that means to alter the facts records new
digests and says why.
"""

import hashlib
import json
import os

import pytest

from alloy2fa.terms import fact_text

HERE = os.path.dirname(__file__)


def fact_digest(fact) -> str:
    text = "%s\n%d" % (fact_text(fact), fact.width)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(HERE, "data", "golden_facts.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("config", ["mech", "short"])
def test_facts_match_the_recorded_digests(config, golden,
                                          golden_translations):
    want = golden[config]
    got = golden_translations[config]
    assert [key for key, _, _ in got] == list(want)
    for key, _, fact in got:
        assert fact_digest(fact) == want[key], (
            "%s: first differing input is %s: %s (width %d)"
            % (config, key, fact_text(fact), fact.width))
