"""Command-line tool wiring the modules into GM / signer / verifier
workflows.

Exit codes: 0 success or Accept, 1 Reject, 2 usage or I/O problems,
3 signer revoked, 4 invariant violation (corrupt data or failed
reproduction).

All randomness flows through one generator: OS entropy by default,
a deterministic stream under --seed (byte-identical outputs across runs).

`main` may run many commands in one process: each command's argparse
parser is built once (`build_parser` is cached by its command words) and
`serial` loads a params, list or certificate text once, so only the
first call pays for either. The lab commands import `assumption_lab`
when they run, so no other command loads it.
"""

import argparse
import functools
import json
import random
import sys
import warnings

from . import curve_q, hierarchy, revocation, serial, sigma
from . import toydata
from .curve_fp import msm, reduce_curve, reduce_point, scalar_mul_fp
from .curve_q import catalog, scalar_mul_q
from .errors import InvariantError, ParseError, RetryExhausted, SignerRevoked
from .hierarchy import Hyperplane, find_dept, new_root

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_REVOKED = 3
EXIT_INVARIANT = 4


def _rng(seed):
    if seed is None:
        return random.SystemRandom()
    return random.Random(seed)


# artifact kind -> (type the loaded value must have, what the kind holds)
_EXPECTED = {
    "params": (hierarchy.SystemParams, "system parameters"),
    "tree": (hierarchy.DeptNode, "a department tree"),
    "rl": (revocation.RevocationList, "a revocation list"),
    "keypair": (tuple, "a keypair"),
    "cert": (hierarchy.PublicKey, "a public key"),
    "signature": (sigma.Signature, "a signature"),
}


def _load(path, kind, params=None):
    """The artifact of the given kind at `path`; points, and a tree's
    nodes, are checked against `params` when given."""
    value = serial.load_artifact(path, curve=params and params.curve,
                                 params=params)
    cls, what = _EXPECTED[kind]
    # exact types: a report, a NamedTuple, is a tuple but not a keypair
    if type(value) is not cls:
        raise ParseError(f"{path} does not hold {what}")
    return value


def cmd_setup(args):
    rng = _rng(args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params, gm_sk = hierarchy.setup(args.curve, args.p, args.q, rng,
                                        l_c=args.lc, l_s=args.ls)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    serial.save_artifact(args.params_out, "params", params)
    serial.save_artifact(args.gm_key_out, "keypair", (gm_sk, params.gm_pub))
    print(f"wrote {args.params_out} and {args.gm_key_out} "
          f"(r={params.r}, l_c={params.l_c}, l_s={params.l_s})")
    return EXIT_OK


def cmd_dept_add(args):
    params = _load(args.params, "params")
    try:
        root = _load(args.tree, "tree", params)
    except FileNotFoundError:
        root = new_root()
    parent = find_dept(root, args.parent)
    rng = _rng(args.seed)
    node = hierarchy.add_department(params, parent, rng, name=args.name)
    serial.save_artifact(args.tree, "tree", root)
    print(node.path)
    return EXIT_OK


def cmd_member_join(args):
    params = _load(args.params, "params")
    root = _load(args.tree, "tree", params)
    dept = find_dept(root, args.dept)
    gm_sk, _gm_pub = _load(args.gm_key, "keypair", params)
    rng = _rng(args.seed)
    sk, pk = hierarchy.join(params, gm_sk, dept, args.id, rng)
    serial.save_artifact(args.key_out, "keypair", (sk, pk))
    serial.save_artifact(args.pub_out, "cert", pk)
    print(f"member {args.id!r} joined {dept.path}; "
          f"wrote {args.key_out} and {args.pub_out}")
    return EXIT_OK


def cmd_sign(args):
    params = _load(args.params, "params")
    sk, pk = _load(args.key, "keypair", params)
    rl = _load(args.rl, "rl", params)
    with open(args.msg_file, "rb") as fh:
        message = fh.read()
    rng = _rng(args.seed)
    sig = sigma.sign(params, sk, pk, rl, message, rng)
    serial.save_artifact(args.out, "signature", sig)
    print(f"wrote {args.out} (rl version {sig.rl_version}, "
          f"{len(sig.nonzero_proofs)} nonzero proofs)")
    return EXIT_OK


def cmd_verify(args):
    params = _load(args.params, "params")
    pk = _load(args.pub, "cert", params)
    rl = _load(args.rl, "rl", params)
    sig = _load(args.sig, "signature")
    with open(args.msg_file, "rb") as fh:
        message = fh.read()
    result = sigma.verify(params, pk, rl, message, sig)
    if args.json:
        print(json.dumps({"accepted": result.accepted,
                          "reason": result.reason}, sort_keys=True))
    elif result.accepted:
        print("Accept")
    else:
        print(f"Reject({result.reason})")
    return EXIT_OK if result.accepted else EXIT_REJECT


def cmd_revoke_member(args):
    params = _load(args.params, "params")
    pk = _load(args.pub, "cert", params)
    rl = _load(args.rl, "rl", params)
    rl = revocation.revoke_member(rl, pk)
    out = args.out or args.rl
    serial.save_artifact(out, "rl", rl)
    print(f"revoked member {pk.member_id!r}; {out} now version {rl.version}")
    return EXIT_OK


def cmd_revoke_group(args):
    params = _load(args.params, "params")
    root = _load(args.tree, "tree", params)
    dept = find_dept(root, args.dept)
    rl = _load(args.rl, "rl", params)
    rl = revocation.revoke_group(rl, dept)
    out = args.out or args.rl
    serial.save_artifact(out, "rl", rl)
    print(f"revoked group {dept.path}; {out} now version {rl.version}")
    return EXIT_OK


def cmd_rl_coalesce(args):
    params = _load(args.params, "params")
    root = _load(args.tree, "tree", params)
    rl = _load(args.rl, "rl", params)
    before = rl.version
    rl = revocation.coalesce(rl, root)
    out = args.out or args.rl
    serial.save_artifact(out, "rl", rl)
    if rl.version == before:
        print(f"no complete sibling family; {out} unchanged at "
              f"version {rl.version}")
    else:
        print(f"coalesced; {out} now version {rl.version} with "
              f"{len(rl.groups)} group entries")
    return EXIT_OK


def cmd_lab_relations(args):
    from . import assumption_lab

    params = _load(args.params, "params")
    report = assumption_lab.relation_search(params, args.bound)
    serial.save_artifact(args.out, "report", report)
    nontrivial = sum(1 for f in report.trivial_flags if not f)
    print(f"{report.method} search bound {report.bound}: "
          f"{len(report.relations)} relations "
          f"({nontrivial} with >=2 nonzero coordinates); wrote {args.out}")
    return EXIT_OK


def cmd_lab_orders(args):
    from . import assumption_lab

    params = _load(args.params, "params")
    report = assumption_lab.order_report(params)
    serial.save_artifact(args.out, "report", report)
    print(f"orders {list(report.orders)} in Hasse interval "
          f"[{report.hasse_lo}, {report.hasse_hi}]; "
          f"q/min_order = {report.q_over_min_order:.6g}; wrote {args.out}")
    return EXIT_OK


def _diff_line(label, got, want):
    ok = got == want
    print(f"  {'ok  ' if ok else 'DIFF'} {label}: computed {got}"
          + ("" if ok else f", pinned {want}"))
    return ok


def cmd_reproduce_toy17(_args):
    """Recompute the toy17 worked example and diff it against the pinned
    vectors: generator multiples over Q and mod p, the department planes,
    and the published key material."""
    curve = catalog(toydata.TOY_CURVE_ID)
    p = toydata.TOY_P
    reduced = reduce_curve(curve, p)
    g1, g2 = curve.generators
    ok = True

    for label, gen, want_q, want_p in (
            ("P1", g1, toydata.P1_MULTIPLES_Q, toydata.P1_MULTIPLES_P),
            ("P2", g2, toydata.P2_MULTIPLES_Q, toydata.P2_MULTIPLES_P)):
        for n in range(1, 8):
            pt = scalar_mul_q(curve, n, gen)
            got_q = (str(pt.x), str(pt.y))
            ok &= _diff_line(f"{n}*{label} over Q", got_q, want_q[n - 1])
            red = reduce_point(reduced, pt)
            got_p = (red.x, red.y)
            ok &= _diff_line(f"{n}*{label} mod p", got_p, want_p[n - 1])
            direct = scalar_mul_fp(reduced, n, reduce_point(reduced, gen))
            ok &= _diff_line(f"{n}*reduce({label})", (direct.x, direct.y),
                             want_p[n - 1])

    q = toydata.TOY_Q
    fin = Hyperplane(toydata.FINANCIAL_PLANE)
    ok &= _diff_line("financial plane at SK2",
                     fin.evaluate(toydata.SK2, q), 0)
    ok &= _diff_line("financial plane at (3257, on-plane x2)",
                     fin.evaluate((toydata.SK1_PUBLISHED[0],
                                   toydata.SK1_X2_ON_PLANE), q), 0)
    ok &= _diff_line("financial plane at published SK1 (known nonzero)",
                     fin.evaluate(toydata.SK1_PUBLISHED, q),
                     toydata.SK1_PUBLISHED_PLANE_RESIDUE)

    gens = [reduce_point(reduced, g1), reduce_point(reduced, g2)]
    pk2 = msm(reduced, toydata.SK2, gens)
    ok &= _diff_line("PK2", (pk2.x, pk2.y), toydata.PK2)
    pk1 = msm(reduced, toydata.SK1_PUBLISHED, gens)
    ok &= _diff_line("PK1 from published SK1", (pk1.x, pk1.y),
                     toydata.PK1_PUBLISHED)
    pk1b = msm(reduced, (toydata.SK1_PUBLISHED[0], toydata.SK1_X2_ON_PLANE),
               gens)
    ok &= _diff_line("PK1 from on-plane x2 (differs from published PK1)",
                     (pk1b.x, pk1b.y), toydata.PK1_FROM_ON_PLANE)

    if ok:
        print("toy17 reproduction: all values match")
        return EXIT_OK
    print("toy17 reproduction: DIFFERENCES FOUND")
    return EXIT_INVARIANT


# Options several commands share.
_SEED = ("--seed", {"type": int, "default": None})
_OUT_OR_RL = ("--out", {"default": None})  # None writes back to --rl

# command words -> (handler, help line, arguments). A bare flag is a
# required string option; a (name, keywords) pair goes to add_argument.
COMMANDS = {
    ("setup",): (cmd_setup, "create system parameters and GM key", (
        ("--curve", {"required": True, "choices": curve_q.catalog_ids()}),
        ("--p", {"type": int, "required": True}),
        ("--q", {"type": int, "required": True}),
        ("--lc", {"type": int, "default": None}),
        ("--ls", {"type": int, "default": hierarchy.DEFAULT_STAT_GAP_BITS}),
        _SEED,
        ("--params-out", {"default": "gm.params"}),
        ("--gm-key-out", {"default": "gm.key"}))),
    ("dept", "add"): (cmd_dept_add, "add a department under --parent", (
        "--params", "--tree", ("--parent", {"default": "/"}),
        ("--name", {"default": None}), _SEED)),
    ("member", "join"): (
        cmd_member_join, "generate and certify a member keypair", (
            "--params", "--tree", "--gm-key", "--dept", "--id", "--key-out",
            "--pub-out", _SEED)),
    ("sign",): (cmd_sign, "sign a message file", (
        "--params", "--key", "--rl", "--msg-file", "--out", _SEED)),
    ("verify",): (cmd_verify, "verify a signature file", (
        "--params", "--pub", "--rl", "--msg-file", "--sig",
        ("--json", {"action": "store_true"}))),
    ("revoke", "member"): (cmd_revoke_member, "put a public key on the list",
                           ("--params", "--rl", "--pub", _OUT_OR_RL)),
    ("revoke", "group"): (
        cmd_revoke_group, "put a department's constraints on the list",
        ("--params", "--rl", "--tree", "--dept", _OUT_OR_RL)),
    ("rl", "coalesce"): (cmd_rl_coalesce, "collapse fully revoked families",
                         ("--params", "--rl", "--tree", _OUT_OR_RL)),
    ("lab", "relations"): (
        cmd_lab_relations, "search for generator relations", (
            "--params", ("--bound", {"type": int, "required": True}),
            "--out")),
    ("lab", "orders"): (cmd_lab_orders, "generator orders vs Hasse interval",
                        ("--params", "--out")),
    ("reproduce",): (cmd_reproduce_toy17, "recompute built-in examples",
                     (("example", {"choices": ["toy17"]}),)),
}


@functools.lru_cache(maxsize=len(COMMANDS) + 1)
def build_parser(words=()):
    """The parser for the command named by `words`; for words that name
    none, a parser that lists every command and exits through argparse.
    Cached by `words`: `parse_args` leaves a parser as it was, so one
    parser serves every call of its command in the process."""
    if words in COMMANDS:
        func, help_line, arguments = COMMANDS[words]
        parser = argparse.ArgumentParser(prog="hrpks " + " ".join(words),
                                         description=help_line)
        for arg in arguments:
            name, keywords = (arg, {"required": True}) \
                if isinstance(arg, str) else arg
            parser.add_argument(name, **keywords)
        parser.set_defaults(func=func)
        return parser
    parser = argparse.ArgumentParser(
        prog="hrpks",
        description="Hierarchical-revocation signatures over high-rank "
                    "elliptic curves (research tool; not constant-time)",
        epilog="commands:\n" + "\n".join(
            f"  {' '.join(w):<16}{help_line}"
            for w, (_func, help_line, _args) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=[" ".join(w) for w in COMMANDS],
                        metavar="command",
                        help="one of the commands below; `hrpks <command> "
                             "--help` lists its options")
    # reached only when a command arrives as one word ("dept add") or
    # after "--": name it as leading words instead
    parser.set_defaults(func=lambda args: parser.error(
        f"give {args.command!r} as the first words of the command line"))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # words that name no command become (), so build_parser's cache holds
    # at most one parser per command and one for the rest
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1]))
                  if w in COMMANDS), ())
    args = build_parser(words).parse_args(argv[len(words):])
    try:
        return args.func(args)
    except SignerRevoked as e:
        print(f"signer revoked: {e}", file=sys.stderr)
        return EXIT_REVOKED
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except RetryExhausted as e:
        print(f"retry exhausted: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ParseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
