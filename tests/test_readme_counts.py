"""README's two counts that follow the code: the memo keys it names in
"There are N memo keys, one per fact: ..." are exactly the keys that
`orbitvar` functions own (`liealg._MEMO_KEYS`, filtered by owner, since
tests register keys of their own), and the number of functions it says
`tools/traffic.py` lists as unreached is `test_traffic.UNREACHED`'s."""

import re
from pathlib import Path

from test_traffic import UNREACHED

from orbitvar import cli, ideals, liealg, orbit  # noqa: F401  every module that may own a memo key

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def sentence(pattern: str) -> re.Match:
    (found,) = re.finditer(pattern, re.sub(r"\s+", " ", README))
    return found


def test_the_memo_keys_sentence_names_every_key_the_package_owns():
    found = sentence(r"There are (\d+) memo keys, one per fact: ([^.]*)\.")
    named = re.findall(r"`([^`]+)`", found.group(2))
    owned = {key for key, owner in liealg._MEMO_KEYS.items() if owner.startswith("orbitvar.")}
    assert sorted(named) == sorted(owned)
    assert int(found.group(1)) == len(named)


def test_the_unreached_count_is_the_listed_one():
    found = sentence(r"lists (\d+) functions that no operation of any workload enters")
    assert int(found.group(1)) == len(UNREACHED)
