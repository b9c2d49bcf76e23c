#!/usr/bin/env python3
"""Dump steepest descent/ascent polylines for a set of xi values.

One JSON file per xi (contours_xi<value>.json), same schema as the
`touchard contours` subcommand. Defaults cover the three saddle regimes:
coalesced (xi=1), real pair (xi=1.8) and conjugate pair (xi=0.8).
"""
import argparse
import json
import pathlib

from touchard.cli import cmd_contours


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--xi", nargs="+", default=["1", "1.8", "0.8"])
    ap.add_argument("--step", default=None)
    ap.add_argument("--outdir", default="artifacts")
    ap.add_argument("--digits", type=int, default=None)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for xi in args.xi:
        report = cmd_contours(xi, digits=args.digits, step=args.step)
        path = outdir / f"contours_xi{xi}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        npts = sum(len(pl["points"]) for pl in report["polylines"])
        print(f"wrote {path} ({len(report['polylines'])} polylines, {npts} points)")


if __name__ == "__main__":
    main()
