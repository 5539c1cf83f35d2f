"""Every output of the golden corpus (tests/golden.py) against tests/golden.json."""

import json

import pytest

import golden


def _first_moved_line(parts, expected_lines):
    """(part, line number, new text) of the first line whose fingerprint moved."""
    new = dict(parts)
    got = golden.fingerprints(parts)
    for name in dict.fromkeys([*expected_lines, *got]):
        if name not in got or name not in expected_lines:
            return name, None, "part added" if name in got else "part missing"
        a, b = expected_lines[name], got[name]
        if a != b:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lines = new[name].split(b"\n")
            return name, i + 1, lines[i].decode(errors="replace")[:200] if i < len(lines) else "(gone)"
    return None, None, "every line keeps its fingerprint"


def test_golden_corpus_is_byte_identical(tmp_path):
    with open(golden.MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    expected = manifest["entries"]
    corpus = golden.build(tmp_path)
    moved = [name for name in expected
             if name not in corpus or golden.digest(corpus[name]) != expected[name]["sha256"]]
    added = [name for name in corpus if name not in expected]
    if not (moved or added):
        return
    message = [f"{len(moved)} of {len(expected)} golden entries moved, {len(added)} added "
               f"(manifest written by Python {manifest['python']}, numpy {manifest['numpy']}; "
               f"this is Python {golden.versions()['python']}, numpy {golden.versions()['numpy']})"]
    if moved:
        first = moved[0]
        if first in corpus:
            part, line, text = _first_moved_line(corpus[first], expected[first]["lines"])
            where = f"{part} line {line}" if line else f"{part}"
            message.append(f"first moved: {first}: {where}: {text}")
        else:
            message.append(f"first moved: {first}: no longer in the corpus")
        message.append("moved: " + ", ".join(moved[:20]) + (" ..." if len(moved) > 20 else ""))
    if added:
        message.append("added: " + ", ".join(added[:20]) + (" ..." if len(added) > 20 else ""))
    message.append("if the change is meant, rewrite the manifest with "
                   "`PYTHONPATH=src python tests/golden.py` and argue the moved entries")
    pytest.fail("\n".join(message), pytrace=False)
