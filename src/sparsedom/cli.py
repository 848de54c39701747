"""Command line interface.

Subcommands: haar, sparse-check, dominate, atoms, cz, weak11, campaign.
The seed falls back to the SPARSEDOM_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .campaign import CampaignConfig, run_campaign
from .cz import cz_decompose, weak11_certify
from .dyadic import checks_ok, lp_norm
from .generate import (generate_multiplier, generate_signal,
                       generate_sparse_collection, generate_weight)
from .haar import haar_transform
from .hardy import atomic_decompose
from .serialize import (dump_json, read_collection, read_multiplier,
                        read_signal, read_weight)
from .sparse import certify_sparse, sparse_operator, sparse_vs_carleson
from .stopping import (StoppingFailure, dominate_avg, dominate_oscillation,
                       dominate_square, dominate_weighted)

DEFAULT_DEPTH = 10


def _default_seed() -> int:
    env = os.environ.get("SPARSEDOM_SEED")
    return int(env) if env else 0


def _add_common(sp):
    sp.add_argument("--depth", type=int, default=None,
                    help=f"finest dyadic depth J (default: a loaded signal's, "
                         f"else {DEFAULT_DEPTH})")
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: SPARSEDOM_SEED or 0)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


def _emit(args, payload, csv_rows=None):
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        if csv_rows is None:
            # flatten the scalar fields into a two-line table
            keys = [k for k, v in sorted(payload.items())
                    if isinstance(v, (int, float, str, bool))]
            w.writerow(keys)
            w.writerow([payload[k] for k in keys])
        else:
            for row in csv_rows:
                w.writerow(row)
        text = buf.getvalue()
    else:
        text = dump_json(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_signals(args, *roles):
    """One signal per role: read from the file its ``<role>_file`` option
    names (``--f-file``, ``--in``), or generated with the seed shifted by
    the role's position, at the depth of the first file read (else
    ``--depth``, else DEFAULT_DEPTH).  An explicit ``--depth`` that
    disagrees with a file read is an error.  Resolves ``args.seed`` for
    the caller's other generated inputs."""
    if args.seed is None:
        args.seed = _default_seed()
    loaded = {}
    for role in roles:
        path = getattr(args, f"{role}_file", None)
        if path:
            s = loaded[role] = read_signal(path)
            if args.depth is not None and s.depth_J != args.depth:
                raise ValueError(f"--depth {args.depth} disagrees with {path}, "
                                 f"a signal of depth {s.depth_J}")
    depth = next((s.depth_J for s in loaded.values()),
                 DEFAULT_DEPTH if args.depth is None else args.depth)
    return [loaded[role] if role in loaded else
            generate_signal(args.signal, depth, seed=args.seed + shift)
            for shift, role in enumerate(roles)]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sparsedom",
                                 description="sparse domination laboratory on dyadic signals")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("haar", help="forward Haar transform of a signal")
    _add_common(sp)
    sp.add_argument("--in", dest="f_file", default=None, help="signal file")
    sp.add_argument("--signal", default="gaussian_noise", help="generated kind if no file")

    sp = sub.add_parser("sparse-check", help="certify a collection file")
    sp.add_argument("collection", help="CSV rows (depth, index)")
    _add_common(sp)
    sp.add_argument("--eta", type=float, default=0.5)

    sp = sub.add_parser("dominate", help="run one sparse domination")
    _add_common(sp)
    sp.add_argument("--mode", choices=("avg", "square", "weighted", "osc"),
                    required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--chi-M", type=int, default=8, dest="chi_M")
    sp.add_argument("--stop-C", type=float, default=4.0, dest="stop_C")
    sp.add_argument("--n-intervals", type=int, default=96)
    sp.add_argument("--f-file", default=None)
    sp.add_argument("--g-file", default=None)
    sp.add_argument("--multiplier-file", default=None, help="CSV rows (depth, index, eps)")
    sp.add_argument("--weight-file", default=None)
    sp.add_argument("--weight-kind", default="dyadic_doubling")
    sp.add_argument("--signal", default="gaussian_noise")

    sp = sub.add_parser("atoms", help="sparse atomic decomposition of a signal")
    _add_common(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--stop-C", type=float, default=4.0, dest="stop_C")
    sp.add_argument("--in", dest="f_file", default=None)
    sp.add_argument("--signal", default="gaussian_noise")

    sp = sub.add_parser("cz", help="Calderon-Zygmund decomposition")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--in", dest="f_file", default=None)
    sp.add_argument("--signal", default="gaussian_noise")

    sp = sub.add_parser("weak11", help="weak (1,1) certification of a sparse operator")
    _add_common(sp)
    sp.add_argument("--K", type=float, default=4.0)
    sp.add_argument("--in", dest="f_file", default=None)
    sp.add_argument("--signal", default="gaussian_noise")
    sp.add_argument("--collection", default=None, help="CSV collection (default: generated)")

    sp = sub.add_parser("campaign", help="run a certification campaign")
    sp.add_argument("--config", required=True, help="JSON campaign config")
    return ap


def _cmd_haar(args):
    [f] = _load_signals(args, "f")
    coeffs = haar_transform(f)
    rows = [["depth", "index", "coefficient"]]
    payload = {"depth_J": f.depth_J, "mean": coeffs.mean, "coefficients": []}
    for I in coeffs.support():
        val = coeffs[I]
        payload["coefficients"].append({"depth": I.depth, "index": I.index,
                                        "value": val})
        rows.append([I.depth, I.index, repr(val)])
    _emit(args, payload, rows)
    return 0


def _cmd_sparse_check(args):
    S = read_collection(args.collection)
    J = max((I.depth for I in S), default=1)
    J = max(J, DEFAULT_DEPTH if args.depth is None else args.depth)
    ok, _ = certify_sparse(S, args.eta, J)
    report = sparse_vs_carleson(S)
    payload = {"eta": args.eta, "certified": bool(ok),
               "carleson": report["carleson"], "method": "child-complement",
               **{k: v for k, v in report.items() if k != "carleson"}}
    _emit(args, payload)
    return 0 if ok else 1


def _cmd_dominate(args):
    f, g = _load_signals(args, "f", "g")
    if args.multiplier_file:
        T = read_multiplier(args.multiplier_file)
    else:
        T = generate_multiplier(f.depth_J, seed=args.seed + 2,
                                n_intervals=args.n_intervals)
    if args.mode == "avg":
        cert = dominate_avg(T, f, g, M=args.chi_M, C=args.stop_C)
    elif args.mode == "square":
        cert = dominate_square(T, f, g, p=args.p, q=args.q, C=args.stop_C)
    elif args.mode == "weighted":
        if args.weight_file:
            w = read_weight(args.weight_file)
        else:
            w = generate_weight(args.weight_kind, f.depth_J, seed=args.seed + 3)
        p = min(args.p, 1.0)
        cert = dominate_weighted(T, f, g, w, p=p, r=args.r, C=args.stop_C)
    else:
        cert = dominate_oscillation(T, f, g, C=args.stop_C)
    _emit(args, cert.to_dict())
    return 0 if checks_ok(cert.checks) else 1


def _cmd_atoms(args):
    [f] = _load_signals(args, "f")
    deco = atomic_decompose(f, p=args.p, r=args.r, C=args.stop_C)
    _emit(args, deco.to_dict())
    return 0 if checks_ok(deco.checks) else 1


def _cmd_cz(args):
    [f] = _load_signals(args, "f")
    dec = cz_decompose(f, args.alpha)
    checks = dec.verify()
    payload = {"alpha": args.alpha, "n_bad_cubes": len(dec.bad_cubes),
               "bad_cubes": [[Q.depth, Q.index] for Q in dec.bad_cubes],
               "l1_norm": lp_norm(dec.source_abs, 1.0), **checks}
    _emit(args, payload)
    return 0 if checks_ok(checks) else 1


def _cmd_weak11(args):
    [f] = _load_signals(args, "f")
    if args.collection:
        S = read_collection(args.collection)
    else:
        S = generate_sparse_collection(f.depth_J, seed=args.seed + 5)
    report = weak11_certify(lambda x: sparse_operator(S, x), f, K=args.K,
                            seed=args.seed + 6)
    report["n_intervals"] = len(S)
    # keep reports small: the level scan can hold thousands of values
    if len(report["alpha_levels"]) > 64:
        report["alpha_levels"] = report["alpha_levels"][-64:]
        report["weak_constants"] = report["weak_constants"][-64:]
    _emit(args, report)
    return 0 if checks_ok(report) else 1


def _cmd_campaign(args):
    cfg = CampaignConfig.from_file(args.config)
    records, summary, ok = run_campaign(cfg)
    sys.stdout.write(dump_json({"summary": summary, "ok": ok}) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "haar": _cmd_haar,
        "sparse-check": _cmd_sparse_check,
        "dominate": _cmd_dominate,
        "atoms": _cmd_atoms,
        "cz": _cmd_cz,
        "weak11": _cmd_weak11,
        "campaign": _cmd_campaign,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"sparsedom: error: {exc}", file=sys.stderr)
        return 2
    except StoppingFailure as exc:
        print(f"sparsedom: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
