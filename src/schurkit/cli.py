"""schurkit command line: machine-readable access to every operation.

This module holds the commands and their parser only. `--json FILE` hands a
payload to `jsonform`, which owns the wire format: floats with 17 significant
digits, so identical flags (and seed) give byte-identical JSON.

Exit codes: 0 success, 2 argument error (including a --json FILE that cannot
be written), 3 resource bound exceeded, 4 verification failure (a tolerance
breach, or an oracle consistency check that fails, such as a conjugation
that is not finite).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .bases import (
    enumerate_gz,
    enumerate_paths,
    format_path,
    format_ssyt,
    gz_to_ssyt,
    rank_path,
)
from .circuit import gate_count_report, two_level_decompose
from .clebsch_gordan import cg_block
from .jsonform import array, dump, fmt_float
from .oracle import ConsistencyError, verify_report
from .partitions import (
    dim_P,
    dim_Q,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .schur import DEFAULT_MAX_DIM, ResourceLimitError, schur_unitary
from .wigner import reduced_wigner_matrix


def _cmd_dims(args) -> int:
    rows = [
        {"lambda": format_partition(lam), "dim_Q": dim_Q(lam, args.d), "dim_P": dim_P(lam)}
        for lam in enumerate_partitions(args.d, args.n)
    ]
    print(f"{'lambda':<16}{'dim_Q':>8}{'dim_P':>8}")
    for row in rows:
        print(f"{row['lambda']:<16}{row['dim_Q']:>8}{row['dim_P']:>8}")
    if args.json:
        dump({"d": args.d, "n": args.n, "rows": rows}, args.json)
    return 0


def _cmd_partitions(args) -> int:
    parts = enumerate_partitions(args.d, args.n)
    for lam in parts:
        print(format_partition(lam))
    if args.json:
        dump([format_partition(lam) for lam in parts], args.json)
    return 0


def _cmd_gz(args) -> int:
    lam = parse_partition(args.lam)
    if args.d < 1:
        raise ValueError("d must be >= 1")
    if len(lam) > args.d:
        raise ValueError(f"lambda={lam} needs more than d={args.d} rows")
    patterns = enumerate_gz(lam, args.d)
    for q in patterns:
        print(format_ssyt(gz_to_ssyt(q)))
    if args.json:
        dump([format_ssyt(gz_to_ssyt(q)) for q in patterns], args.json)
    return 0


def _cmd_paths(args) -> int:
    lam = parse_partition(args.lam)
    paths = enumerate_paths(lam)
    for p in paths:
        print(f"{rank_path(p)}\t{format_path(p)}")
    if args.json:
        dump([{"rank": rank_path(p), "path": format_path(p)} for p in paths], args.json)
    return 0


def _cmd_wigner(args) -> int:
    mu = parse_partition(args.mu)
    mupp = parse_partition(args.mu_dprime)
    mat = reduced_wigner_matrix(mu, mupp, args.d)
    for row in mat:
        print(" ".join(fmt_float(v) for v in row))
    if args.json:
        dump(
            {
                "mu": format_partition(mu),
                "mu_dprime": format_partition(mupp),
                "d": args.d,
                "matrix": array(mat),
            },
            args.json,
        )
    return 0


def _cmd_cg(args) -> int:
    lam = parse_partition(args.lam)
    block = cg_block(lam, args.d)
    print(
        f"cg_block lambda={format_partition(lam) or '0'} d={args.d}: "
        f"{block.size} x {block.size}"
    )
    if args.json:
        dump(block.json_payload(), args.json)
    return 0


def _cmd_schur(args) -> int:
    if args.show_rows < 0:
        raise ValueError(f"--show-rows must be >= 0, got {args.show_rows}")
    if args.max_dim < 1:
        raise ValueError(f"--max-dim must be >= 1, got {args.max_dim}")
    su = schur_unitary(args.n, args.d, max_dim=args.max_dim)
    print(f"schur n={args.n} d={args.d}: {su.matrix.shape[0]} x {su.matrix.shape[1]}")
    for (lam, q, p), _ in zip(su.row_labels, range(args.show_rows)):
        print(
            f"  lambda={format_partition(lam)} gz={format_ssyt(gz_to_ssyt(q))}"
            f" path={format_path(p) or '-'}"
        )
    if args.json:
        dump(su.json_payload(), args.json)
    return 0


def _cmd_verify(args) -> int:
    try:
        report = verify_report(args.n, args.d, args.trials, args.seed)
    except ConsistencyError as exc:  # an oracle check found the transform wrong
        print(f"error: {exc}", file=sys.stderr)
        return 4
    for key in (
        "unitarity",
        "max_off_mass",
        "max_factor_residual",
        "max_q_constancy",
        "max_char_residual",
    ):
        print(f"{key:<22}{fmt_float(report[key])}")
    print(f"{'ok':<22}{report['ok']}")
    if args.json:
        dump(report, args.json)
    return 0 if report["ok"] else 4


def _cmd_circuit(args) -> int:
    if args.max_dim < 1:
        raise ValueError(f"--max-dim must be >= 1, got {args.max_dim}")
    # built before the census, which has no bound, and before anything prints
    su = schur_unitary(args.n, args.d, max_dim=args.max_dim) if args.decompose else None
    report = gate_count_report(args.n, args.d)
    payload = dataclasses.asdict(report)  # field order is the JSON key order
    if args.decompose:
        gl = two_level_decompose(su.matrix.astype(complex), tol=1e-10)
        payload["gate_list"] = gl.json_payload()
    print(f"{'step':>6}{'dim':>6}{'control_pairs':>16}{'rotation_classes':>18}")
    for st in report.steps:
        print(
            f"{st.step:>6}{st.wigner_dim:>6}{st.control_pairs:>16}"
            f"{st.rotation_classes:>18}"
        )
    print(
        f"totals: control_pairs={report.total_control_pairs} "
        f"rotation_classes={report.total_rotation_classes}"
    )
    if args.decompose:
        print(
            f"two-level synthesis of U_Sch: {gl.rotation_count} rotations, "
            f"{len(gl.phases)} phases"
        )
    if args.json:
        dump(payload, args.json)
    return 0


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="FILE", help="write machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Schur and Clebsch-Gordan transforms on n qudits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="table of lambda, dim_Q, dim_P over I_{d,n}")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("partitions", help="list I_{d,n} in canonical order")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("gz", help="GZ patterns of Q_lambda^d as tableaux")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--d", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_gz)

    p = sub.add_parser("paths", help="Young-Yamanouchi paths of P_lambda")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    _add_json(p)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("wigner", help="d x d reduced Wigner matrix for (mu, mu'')")
    p.add_argument("--mu", required=True, metavar="PARTS")
    p.add_argument("--mu-dprime", dest="mu_dprime", required=True, metavar="PARTS")
    p.add_argument("--d", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("cg", help="dense CG block for lambda at dimension d")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--d", type=int, required=True)
    _add_json(p)
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("schur", help="dense Schur transform with labeled rows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    p.add_argument("--show-rows", type=int, default=0, metavar="K")
    _add_json(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("verify", help="residual report; exits 4 on breach")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("circuit", help="cascade rotation census / synthesis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    _add_json(p)
    p.set_defaults(func=_cmd_circuit)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # OSError: the --json FILE cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
