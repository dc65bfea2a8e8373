#!/usr/bin/env python3
"""Documentation consistency gate.

Three checks over the repository's Markdown set (root *.md, docs/,
bench/baselines/):

1. **Links** — every relative Markdown link `[text](path)` must point at an
   existing file or directory (http/https/mailto and pure #anchor links are
   skipped; a trailing #anchor on a file link is stripped before the
   existence check).

2. **usim flags** — the CLI reference must match the binary, both ways:
   every `--flag` mentioned in the reference docs (README.md, docs/,
   bench/baselines/) that is not a known foreign flag (benchmark/gtest/
   ctest/tool options, see KNOWN_FOREIGN) must exist in `usim --help`, and
   every flag `usim --help` advertises must be documented in README.md.
   This is what keeps the README from drifting from tools/usim.cpp. The
   other root files (CHANGES.md, ROADMAP.md, ...) are history and plans:
   they name retired and future flags by design, so only their links are
   checked.

3. **lint rules** — the rule catalog in docs/diagnostics.md must match
   kAllLintRules in src/spice/lint.cpp, both ways: every rule id the
   analyzer can emit appears as a `` `rule-id` `` table row, and the docs
   name no rule the table doesn't define.

Usage:  tools/check_docs.py --usim build/usim [--root .]
Exit codes: 0 = consistent, 1 = findings, 2 = usage/IO error.
"""

import argparse
import pathlib
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(?<![\w/-])(--[A-Za-z][A-Za-z_-]*)")

# Double-dash options that legitimately appear in the docs but belong to
# other tools (google-benchmark, gtest, ctest, cmake, gh, and our own python
# gates). Extend when docs start mentioning a new foreign tool.
KNOWN_FOREIGN = {
    "--baseline", "--current", "--threshold",     # tools/bench_compare.py
    "--usim", "--root",                           # this script
    "--output-on-failure",                        # ctest
    "--build",                                    # cmake --build
}
FOREIGN_PREFIXES = ("--benchmark", "--gtest", "--gates")


def md_files(root: pathlib.Path):
    files = sorted(root.glob("*.md"))
    for sub in ("docs", "bench/baselines"):
        files += sorted((root / sub).glob("*.md"))
    return [f for f in files if f.is_file()]


def check_links(root: pathlib.Path, files):
    problems = []
    for f in files:
        text = f.read_text(encoding="utf-8")
        for m in LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (f.parent / path).resolve()
            if not resolved.exists():
                problems.append(f"{f.relative_to(root)}: dead link -> {target}")
    return problems


def usim_help_flags(usim: pathlib.Path):
    try:
        out = subprocess.run(
            [str(usim), "--help"], capture_output=True, text=True, timeout=60
        )
    except OSError as e:
        print(f"check_docs: cannot run {usim}: {e}", file=sys.stderr)
        sys.exit(2)
    if out.returncode != 0:
        print(f"check_docs: '{usim} --help' exited {out.returncode}", file=sys.stderr)
        sys.exit(2)
    return set(FLAG_RE.findall(out.stdout + out.stderr))


def is_foreign(flag: str) -> bool:
    return flag in KNOWN_FOREIGN or flag.startswith(FOREIGN_PREFIXES)


def check_flags(root: pathlib.Path, files, help_flags):
    problems = []
    documented = set()
    for f in files:
        text = f.read_text(encoding="utf-8")
        for flag in set(FLAG_RE.findall(text)):
            if is_foreign(flag):
                continue
            documented.add(flag)
            if flag not in help_flags:
                problems.append(
                    f"{f.relative_to(root)}: mentions '{flag}' which is not in "
                    "'usim --help' (phantom flag, or add it to KNOWN_FOREIGN)"
                )
    readme = root / "README.md"
    readme_flags = set()
    if readme.is_file():
        readme_flags = set(FLAG_RE.findall(readme.read_text(encoding="utf-8")))
    for flag in sorted(help_flags):
        if flag not in readme_flags:
            problems.append(
                f"README.md: '{flag}' is in 'usim --help' but undocumented"
            )
    return problems


RULE_TABLE_RE = re.compile(
    r"kAllLintRules\[\]\s*=\s*\{(.*?)\}", re.DOTALL
)
RULE_ID_RE = re.compile(r'"([a-z][a-z0-9-]*)"')
DOC_RULE_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9-]*)`\s*\|", re.MULTILINE)


def check_lint_rules(root: pathlib.Path):
    """docs/diagnostics.md rule tables <-> kAllLintRules, both directions."""
    src = root / "src" / "spice" / "lint.cpp"
    doc = root / "docs" / "diagnostics.md"
    problems = []
    if not src.is_file() or not doc.is_file():
        return [f"lint-rule check needs {src.relative_to(root)} and "
                f"{doc.relative_to(root)}"]
    m = RULE_TABLE_RE.search(src.read_text(encoding="utf-8"))
    if not m:
        return [f"{src.relative_to(root)}: kAllLintRules table not found"]
    code_rules = set(RULE_ID_RE.findall(m.group(1)))
    doc_rules = set(DOC_RULE_ROW_RE.findall(doc.read_text(encoding="utf-8")))
    for rule in sorted(code_rules - doc_rules):
        problems.append(
            f"docs/diagnostics.md: rule '{rule}' (kAllLintRules) has no catalog row"
        )
    for rule in sorted(doc_rules - code_rules):
        problems.append(
            f"docs/diagnostics.md: documents '{rule}' which is not in kAllLintRules"
        )
    return problems


def main():
    ap = argparse.ArgumentParser(description="Markdown link + usim flag gate")
    ap.add_argument("--usim", required=True, help="path to the built usim binary")
    ap.add_argument("--root", default=".", help="repository root (default: cwd)")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()
    usim = pathlib.Path(args.usim)
    if not usim.is_file():
        print(f"check_docs: no usim binary at {usim}", file=sys.stderr)
        return 2

    files = md_files(root)
    if not files:
        print(f"check_docs: no markdown files under {root}", file=sys.stderr)
        return 2
    problems = check_links(root, files)
    help_flags = usim_help_flags(usim)
    reference = [f for f in files if f.parent != root or f.name == "README.md"]
    problems += check_flags(root, reference, help_flags)
    problems += check_lint_rules(root)

    print(
        f"check_docs: {len(files)} markdown files, "
        f"{len(help_flags)} usim flags ({', '.join(sorted(help_flags))})"
    )
    for p in problems:
        print(f"  FAIL {p}")
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
