import builtins
import importlib
import re
from pathlib import Path

import demyanov

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "CapExceededError",
    "ClaimVerdict",
    "Collection",
    "CycleResult",
    "Point",
    "Polytope",
    "SearchReport",
    "builtin_counterexample",
    "collection_digest",
    "converter_image",
    "convex_hull",
    "demyanov_convert",
    "iterate_until_cycle",
    "parse_family",
    "random_family",
    "render_svg",
    "search_cycles",
    "serialize_family",
    "verify_claim",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(demyanov.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in demyanov.__all__:
        assert getattr(demyanov, name) is not None, name


def test_no_public_name_is_collected_as_a_test():
    # A star import of the package must never hand pytest a library function.
    assert not [name for name in demyanov.__all__ if name.startswith("test")]


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README quickstart", "exec"), {})
    assert capsys.readouterr().out == "1 4\n"


def test_readme_names_resolve_where_it_places_them():
    # Every backticked name in a sentence's lead-up to "live(s) in
    # `demyanov.converter`" or "`demyanov.geometry`" is an attribute there,
    # so a deleted helper cannot stay documented.
    text = " ".join(README.read_text(encoding="utf-8").split())
    claims = re.findall(r"([^.]*)\blives? in `demyanov\.(converter|geometry)`", text)
    placed = [
        (re.match(r"\w+", item).group(), module)
        for lead, module in claims
        for item in re.findall(r"`([^`]+)`", lead)
    ]
    required = {"FanCell", "affine_image", "exposed_face", "sampled_convert", "support_value"}
    assert required <= {name for name, _ in placed}
    for name, module in placed:
        assert hasattr(importlib.import_module(f"demyanov.{module}"), name), (module, name)


def test_readme_error_names_exist():
    # Every backticked name ending in "Error" is a builtin exception or a
    # public attribute of the package, so a deleted error type cannot stay
    # documented.
    names = set(re.findall(r"`(\w+Error)`", README.read_text(encoding="utf-8")))
    assert "CapExceededError" in names
    for name in names:
        assert hasattr(builtins, name) or hasattr(demyanov, name), name
