"""Collections and errors come back from pickle and deepcopy as equal values.

Point, Polytope and Collection are frozen slotted dataclasses, which restore
their fields through the dataclass's own __getstate__ and __setstate__, and
a Point restores its stored hash and its text with them. CapExceededError
rebuilds itself from its cap and trajectory. Only the standard library is
used, so the round trips also run without pytest:

    PYTHONPATH=src python tests/test_pickle.py
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import demyanov
from demyanov import (
    CapExceededError,
    builtin_counterexample,
    collection_digest,
    demyanov_convert,
    iterate_until_cycle,
    random_family,
)
from demyanov.converter import affine_image

# Reads a pickled collection from stdin and prints its hash, the hash of an
# equal collection built afresh from its document, and its digest.
CHILD = """\
import pickle, sys
from demyanov import collection_digest, parse_family, serialize_family
omega = pickle.loads(sys.stdin.buffer.read())
fresh = parse_family(serialize_family(omega))
print(hash(omega), hash(fresh), collection_digest(omega))
"""


def families():
    """The converted builtin and its image under x -> (2/3)x + (1/5, -3/7)."""
    omega = demyanov_convert(builtin_counterexample())
    scale = Fraction(2, 3)
    image = affine_image(omega, ((scale, 0), (0, scale)), (Fraction(1, 5), Fraction(-3, 7)))
    return [omega, image]


def assert_restored(restored, omega):
    assert restored is not omega
    assert restored == omega
    assert hash(restored) == hash(omega)
    assert collection_digest(restored) == collection_digest(omega)
    assert demyanov_convert(restored) == demyanov_convert(omega)


def test_collections_survive_pickle_and_deepcopy():
    for omega in families():
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert_restored(pickle.loads(pickle.dumps(omega, protocol)), omega)
        assert_restored(copy.deepcopy(omega), omega)


def caught(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except Exception as exc:
        return exc
    raise AssertionError(f"{call.__name__} raised nothing")


def test_errors_survive_pickle_and_deepcopy():
    # An exception whose __init__ takes other arguments than its message
    # must say how to rebuild itself, or unpickling it raises TypeError.
    cap_error = caught(iterate_until_cycle, builtin_counterexample(), cap=2)
    value_error = caught(random_family, 3, 1, 0, seed=7)
    assert type(cap_error) is CapExceededError
    assert (cap_error.cap, len(cap_error.trajectory)) == (2, 3)
    assert type(value_error) is ValueError
    for error in cap_error, value_error:
        copies = [pickle.loads(pickle.dumps(error, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for restored in copies + [copy.deepcopy(error)]:
            assert restored is not error
            assert type(restored) is type(error)
            assert str(restored) == str(error)
            # cap and trajectory for CapExceededError, nothing for ValueError.
            assert vars(restored) == vars(error)


def test_pickled_hash_and_digest_hold_in_another_process():
    # A Point pickles its stored hash, so that hash must not depend on the
    # process: under another string-hash seed, the child's loaded copy must
    # hash as an equal collection it builds itself.
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(demyanov.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    for omega in families():
        child = subprocess.run(
            [sys.executable, "-c", CHILD],
            input=pickle.dumps(omega),
            capture_output=True,
            check=True,
            env=env,
        )
        h = str(hash(omega))
        assert child.stdout.decode("ascii").split() == [h, h, collection_digest(omega)]


if __name__ == "__main__":
    test_collections_survive_pickle_and_deepcopy()
    test_errors_survive_pickle_and_deepcopy()
    test_pickled_hash_and_digest_hold_in_another_process()
    print("pickle and copy round trips pass")
