#!/usr/bin/env python3
"""Intra-repo link hygiene for the documentation surface.

Scans the given markdown files (default: README.md, ARCHITECTURE.md and
docs/**/*.md) for inline links and fails when a relative link points at a
file that does not exist, or an intra-document anchor has no matching
heading. External (http/https/mailto) links are not fetched — CI must not
depend on the network.

Without arguments it also scans the `//` comments of the C++ sources
under src/, bench/, examples/ and tests/ and fails on any cited `*.md`
name (e.g. `ARCHITECTURE.md`, `docs/benchmarks.md`) that does not exist
relative to the repository root.

Usage: tools/check_links.py [files...]
"""

import glob
import os
import re
import sys

LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
MD_CITATION_RE = re.compile(r"[\w./-]*\w\.md\b")
SOURCE_DIRS = ("src", "bench", "examples", "tests")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")


def heading_anchor(heading: str) -> str:
    """GitHub's anchor algorithm, close enough: lowercase, drop
    punctuation, spaces to hyphens."""
    anchor = heading.strip().lower()
    anchor = re.sub(r"[^\w\- ]", "", anchor)
    return anchor.replace(" ", "-")


def anchors_of(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        text = CODE_FENCE_RE.sub("", f.read())
    return {heading_anchor(m.group(1)) for m in HEADING_RE.finditer(text)}


def check_file(path: str, repo_root: str) -> list:
    errors = []
    with open(path, encoding="utf-8") as f:
        text = CODE_FENCE_RE.sub("", f.read())
    base = os.path.dirname(path)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, fragment = target.partition("#")
        if target:
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                errors.append(f"{path}: broken link -> {target}")
                continue
        else:
            resolved = path  # Pure fragment: #section in the same file.
        if fragment and resolved.endswith(".md"):
            if heading_anchor(fragment) not in anchors_of(resolved):
                errors.append(f"{path}: missing anchor -> {target}#{fragment}")
    return errors


def check_source_citations(repo_root: str) -> tuple:
    """Returns (files scanned, errors) for `*.md` names cited in the `//`
    comments of the C++ sources that do not exist under repo_root."""
    errors = []
    scanned = 0
    for directory in SOURCE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(repo_root,
                                                          directory)):
            for filename in sorted(filenames):
                if not filename.endswith(SOURCE_SUFFIXES):
                    continue
                path = os.path.join(dirpath, filename)
                scanned += 1
                with open(path, encoding="utf-8") as f:
                    for number, line in enumerate(f, 1):
                        comment = line.find("//")
                        if comment < 0:
                            continue
                        for cited in MD_CITATION_RE.findall(line[comment:]):
                            if not os.path.exists(
                                    os.path.join(repo_root, cited)):
                                rel = os.path.relpath(path, repo_root)
                                errors.append(f"{rel}:{number}: cites "
                                              f"missing {cited}")
    return scanned, errors


def main(argv: list) -> int:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if argv:
        files = argv
    else:
        files = [
            os.path.join(repo_root, "README.md"),
            os.path.join(repo_root, "ARCHITECTURE.md"),
        ] + sorted(glob.glob(os.path.join(repo_root, "docs", "**", "*.md"),
                             recursive=True))
    errors = []
    checked = 0
    for path in files:
        if not os.path.exists(path):
            errors.append(f"{path}: file not found")
            continue
        checked += 1
        errors.extend(check_file(path, repo_root))
    if not argv:
        scanned, citation_errors = check_source_citations(repo_root)
        checked += scanned
        errors.extend(citation_errors)
    for error in errors:
        print(error, file=sys.stderr)
    print(f"check_links: {checked} file(s), {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
