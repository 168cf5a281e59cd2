#!/usr/bin/env python3
"""Check fast paths against their reference versions on seeded random inputs.

Stdlib only, so it runs on an interpreter with no site-packages at all. From
the repository root:

    PYTHONPATH=src python -S scripts/differential.py --seed 1 --rounds 1000

Each round makes two checks, and every tenth round a third, with inputs
drawn from ``random.Random(seed)``:

- segment: a page spliced from ``tests/markup_pieces.py`` (the walk's own
  subset, then tag soup from the families that make it hand the page to
  ``html.parser``) must give the blocks ``tests/oracles.segment_blocks``
  gives, or the same ``ParseError``;
- load: the sample's saved case base with some case lines perturbed (blanks
  and tabs around a line, a BOM, trailing text, two records on one line,
  another JSON value, a cut line). The file must load exactly when
  ``json.loads`` reads every case line as an object, then to the plain
  file's case base; otherwise it must fail at the first other line, with
  the message ``json.loads`` gives for it;
- listing: a corpus tree of files and directories named from
  ``tests/oracles.CORPUS_NAMES``, nested up to three deep, with a symlink
  (to a page, a directory, the root, itself or nothing) and a FIFO where the
  platform makes them. The build's ``os.scandir`` walk must list the pages,
  ids and paths, that ``tests/oracles.corpus_files`` (``rglob``) lists.

Exits 1 at the first mismatch, printing the seed, the round and the input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from markup_pieces import SOUP_ENDS, SOUP_GROUPS, SUBSET_PIECES  # noqa: E402

from affret import BuildConfig, CaseBaseFormatError, ParseError  # noqa: E402
from affret.casebase import _corpus_files, load_case_base, populate_case_base, save_case_base  # noqa: E402
from affret.lexicon import load_lexicon  # noqa: E402
from affret.segmenter import extract_block_text, parse_document, segment_blocks  # noqa: E402


class Mismatch(Exception):
    def __init__(self, check: str, given: object, expected: object, got: object):
        super().__init__(f"{check}: input {given!r}\n  expected {expected!r}\n  got      {got!r}")


def splice_page(rng: random.Random) -> str:
    """A subset page or none, then 1-40 tag-soup pieces and a soup end."""
    page = "".join(rng.choices(SUBSET_PIECES, k=rng.randint(0, 30))) if rng.random() < 0.5 else ""
    soup = [rng.choice(rng.choice(SOUP_GROUPS)) for _ in range(rng.randint(1, 40))]
    return page + "".join(soup) + rng.choice(SOUP_ENDS)


def block_views(blocks) -> list[tuple]:
    return [
        (b.linked_chars, b.unlinked_chars, b.segments, *(extract_block_text(b, t) for t in (0.0, 0.5, 1.0)))
        for b in blocks
    ]


def outcome(run) -> object:
    try:
        return block_views(run())
    except ParseError:
        return ParseError


def check_segment(rng: random.Random) -> None:
    markup = splice_page(rng)
    expected = outcome(lambda: oracles.segment_blocks(markup))
    got = outcome(lambda: segment_blocks(parse_document(markup.encode("utf-8"), "t")))
    if got != expected:
        raise Mismatch("segment", markup, expected, got)


def blanks(rng: random.Random) -> str:
    return "".join(rng.choices(" \t", k=rng.randint(0, 3)))


# what a perturbed case line holds; the file reads lines at "\n", so no
# family writes a line break
LINE_FAMILIES = [
    lambda rng, line: blanks(rng) + line + blanks(rng),
    lambda rng, line: "\ufeff" + line,
    lambda rng, line: line + rng.choice([" x", "\xa0", "\f", ",", "]", " //"]),
    lambda rng, line: rng.choice(["", " ", "\f", "\xa0"]) + line + line,
    lambda rng, line: rng.choice(['[1, 2]', '"a.html"', "7", "null", "true", "[]", "{}x"]),
    lambda rng, line: line[: rng.randrange(len(line))],
]


def check_load(rng: random.Random, plain_lines: list[str], plain, path: Path) -> None:
    lines = list(plain_lines)
    # half the files only wrap lines in blanks, so that many of them load
    families = LINE_FAMILIES[:1] if rng.random() < 0.5 else LINE_FAMILIES
    for i in range(1, len(lines) - 3):
        if rng.random() < 0.2:
            lines[i] = rng.choice(families)(rng, lines[i])
    text = "\n".join(lines)
    path.write_text(text, encoding="utf-8")
    expected: object = plain
    for lineno, line in enumerate(lines[1:-3], start=2):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            expected = f"{path}: line {lineno} is not valid JSON ({exc})"
            break
        if not isinstance(record, dict):
            expected = f"{path}: line {lineno} is not an object"
            break
    try:
        loaded = load_case_base(path)
        got: object = (loaded.cases, loaded.corpus_stats, loaded.lexicon, loaded.config)
    except CaseBaseFormatError as exc:
        got = str(exc)
    if got != expected:
        raise Mismatch("load", text, expected, got)


LISTING_EVERY = 10


def check_listing(rng: random.Random, root: Path, links: bool) -> None:
    dirs = [root]
    entries = []
    for _ in range(rng.randint(1, 12)):
        parent = rng.choice(dirs)
        path = parent / rng.choice(oracles.CORPUS_NAMES)
        if os.path.lexists(path):
            continue
        if len(dirs) < 4 and len(path.relative_to(root).parts) < 3 and rng.random() < 0.3:
            path.mkdir()
            dirs.append(path)
        else:
            path.write_text("<p>beach</p>", encoding="utf-8")
        entries.append(path)
    link = rng.choice(dirs) / rng.choice(oracles.CORPUS_NAMES)
    if links and not os.path.lexists(link):
        os.symlink(rng.choice([*entries, root, link, root / "missing.html"]), link)
    fifo = rng.choice(dirs) / rng.choice(oracles.CORPUS_NAMES)
    if hasattr(os, "mkfifo") and not os.path.lexists(fifo) and rng.random() < 0.3:
        os.mkfifo(fifo)
    expected = [(doc_id, str(path)) for doc_id, path in oracles.corpus_files(root)]
    got = _corpus_files(root)
    if got != expected:
        tree = sorted(str(p.relative_to(root)) + ("@" if p.is_symlink() else "") for p in root.rglob("*"))
        raise Mismatch("listing", tree, expected, got)


def symlinks_work(tmp: str) -> bool:
    try:
        os.symlink("target", Path(tmp) / "probe")
    except (OSError, NotImplementedError):
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1000)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sample = ROOT / "sample"
        cb = populate_case_base(sample / "corpus", load_lexicon(sample / "lexicon.tsv"), BuildConfig())
        plain_path, path = Path(tmp) / "plain.jsonl", Path(tmp) / "perturbed.jsonl"
        save_case_base(cb, plain_path)
        loaded = load_case_base(plain_path)
        plain = (loaded.cases, loaded.corpus_stats, loaded.lexicon, loaded.config)
        plain_lines = plain_path.read_text(encoding="utf-8").split("\n")
        links = symlinks_work(tmp)
        for round_no in range(args.rounds):
            try:
                check_segment(rng)
                check_load(rng, plain_lines, plain, path)
                if round_no % LISTING_EVERY == 0:
                    with tempfile.TemporaryDirectory(dir=tmp) as root:
                        check_listing(rng, Path(root), links)
            except Mismatch as exc:
                print(f"seed {args.seed}, round {round_no}: {exc}")
                return 1
    print(f"seed {args.seed}: {args.rounds} rounds, segment, load and listing match their references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
