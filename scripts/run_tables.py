#!/usr/bin/env python3
"""Regenerate both published error tables as CSV artifacts.

Writes table1.csv (coalescence series truncation study) and table2.csv
(uniform approximation across xi) into --outdir. These are the same bytes
`touchard table1` / `touchard table2` print; kept as a script so the full
artifact set can be rebuilt with one command.
"""
import argparse
import pathlib

from touchard.cli import cmd_table1, cmd_table2


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="artifacts")
    ap.add_argument("--digits", type=int, default=None)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "table1.csv").write_text(cmd_table1(digits=args.digits))
    print(f"wrote {outdir / 'table1.csv'}")
    (outdir / "table2.csv").write_text(cmd_table2(digits=args.digits))
    print(f"wrote {outdir / 'table2.csv'}")


if __name__ == "__main__":
    main()
