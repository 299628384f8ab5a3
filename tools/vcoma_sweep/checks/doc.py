"""Check that a document's pasted tables match a fresh render.

Usage:
    python3 -m vcoma_sweep check-doc DOC.md RENDER_DIR

A table block is a ``### <title>`` line and the ``|`` rows that follow
it. Every block of DOC whose title some ``RENDER_DIR/*.md`` renders
must equal that rendered block row for row; blocks the render does not
carry (other specs, other scales) are left alone. A title rendered
twice is ambiguous and fails, and so does a run that compares nothing:
a typo'd directory must not pass. Exit status 1 on any failure.
"""

import argparse
import difflib
import glob
import os
import sys


def table_blocks(text):
    """[(title, rows)] of every ``### `` block in @text, in order."""
    lines = text.splitlines()
    blocks, i = [], 0
    while i < len(lines):
        if not lines[i].startswith("### "):
            i += 1
            continue
        title, i = lines[i][4:].strip(), i + 1
        while i < len(lines) and not lines[i].strip():
            i += 1
        start = i
        while i < len(lines) and lines[i].startswith("|"):
            i += 1
        blocks.append((title, lines[start:i]))
    return blocks


def check_doc(doc_text, rendered_texts):
    """(compared, problems) for @doc_text against @rendered_texts."""
    rendered, problems = {}, []
    for text in rendered_texts:
        for title, rows in table_blocks(text):
            if title in rendered:
                problems.append(f"{title!r}: rendered twice")
            rendered[title] = rows
    compared = 0
    for title, rows in table_blocks(doc_text):
        if title not in rendered:
            continue
        compared += 1
        if rows != rendered[title]:
            diff = difflib.unified_diff(rows, rendered[title], "doc",
                                        "render", lineterm="")
            problems.append(f"{title!r} differs from the render:\n" +
                            "\n".join(diff))
    if compared == 0:
        problems.append("no table of the document is in the render")
    return compared, problems


def main(argv=None):
    ap = argparse.ArgumentParser(prog="vcoma_sweep check-doc")
    ap.add_argument("doc", help="Markdown file with pasted tables")
    ap.add_argument("render_dir", help="directory of rendered *.md")
    args = ap.parse_args(argv)
    rendered = []
    for path in sorted(glob.glob(os.path.join(args.render_dir, "*.md"))):
        with open(path, encoding="utf-8") as f:
            rendered.append(f.read())
    with open(args.doc, encoding="utf-8") as f:
        compared, problems = check_doc(f.read(), rendered)
    for p in problems:
        print(f"check-doc: {p}")
    print(f"check-doc: {compared} table(s) compared, "
          f"{len(problems)} problem(s)")
    if problems:
        sys.exit(1)
