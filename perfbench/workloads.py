"""The three benchmark workloads and the benchmark-only parameter builder.

A workload is built from its seed by `setup()` and then yields operations
cycle by cycle. Cycle c draws all its randomness from
`random.Random(f"<workload>/<seed>/<c>")`, so a run's op sequence depends on
the seed alone, never on how fast the machine is. Every `Op` carries the
verdict it must produce; the runner times `call()` and checks `expect`.

Operation kinds are the end-to-end metric families: `sign`, `verify`,
`verify_cert`, `join` and `revoke` (which pools revoke member, revoke
group and coalesce). `dept_add` exists only on `cli-gm`. Member
revocations are two thirds or more of the `revoke` ops everywhere, so the
pooled median stays inside one operation's distribution.

- members: rank28 mod 2^127-1, q = 2^89-1, r = 8, depth-2 tree, an RL of
  64 revoked members and no revoked department. The E(F_p) MSM dominates;
  the auxiliary group does no work.
- dept-revoked: rank28 mod the 32-bit toy prime, q = 2^127-1, r = 8,
  depth-3 tree, an RL of 16 revoked constraint sets (two of them folded by
  coalesce) and 1024 revoked members, fixed for the whole run. Aux-group
  exponentiation, constraint collapse and RL hashing carry much of the
  cost, and the RL and signers repeat.
- cli-gm: the README's toy17 parameters driven through `hrpks.cli.main`
  in-process: a fresh organisation per episode, where departments are
  added, members join, sign and verify while the RL changes between signs.
"""

import dataclasses
import random
import shutil
import warnings
from pathlib import Path
from typing import Any, Callable

from hrpks import cli, curve_fp, curve_q, hierarchy, modmath, revocation, \
    serial, sigma
from hrpks.errors import SignerRevoked

TOY_P = 3123456773


@dataclasses.dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    expect: Callable[[Any], bool]
    what: str
    # A non-empty note marks a probe whose wrong verdict is a documented
    # defect of the program: run.py counts it apart from `failed`.
    known_defect: str = ""


# -- benchmark-only parameters ---------------------------------------------


def random_curve_points(curve, count, rng):
    """`count` distinct random affine points of E(F_p), p odd.

    Completes the square of the long form, y^2 + (a1 x + a3) y = f(x),
    and takes a square root with `modmath.sqrt_mod`.
    """
    p = curve.p
    inv2, inv4 = pow(2, -1, p), pow(4, -1, p)
    points = []
    seen = set()
    while len(points) < count:
        x = rng.randrange(p)
        b = (curve.a1 * x + curve.a3) % p
        f = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
        t = modmath.sqrt_mod((f + b * b * inv4) % p, p)
        if t is None:
            continue
        point = curve_fp.ModPoint(x, (t - b * inv2) % p)
        if not curve_fp.on_curve_fp(curve, point):
            raise AssertionError(f"generated point {point} is off the curve")
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points


def bench_params(p, q, r, rng):
    """System parameters on the rank28 equation reduced mod p with r random
    points as generators, plus the GM secret key.

    BENCHMARK-ONLY: the generators are random points of E(F_p), not
    reductions of rational generators, so nothing about the rank-28 curve's
    hardness carries over. The auxiliary group is the one `hierarchy.setup`
    builds for the same q.
    """
    curve = curve_fp.reduce_curve(curve_q.catalog("rank28"), p)
    gens = random_curve_points(curve, r, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q above the Hasse floor on TOY_P
        donor, _ = hierarchy.setup("toy17", p, q, rng)
    gm_x = tuple(rng.randrange(q) for _ in range(r))
    gm_pub = hierarchy.PublicKey(point=curve_fp.msm(curve, gm_x, gens),
                                 member_id="gm", dept="")
    params = hierarchy.SystemParams(
        curve_id="rank28-bench-only", curve=curve, r=r, p=p, q=q, gens=gens,
        aux=donor.aux, l_c=donor.l_c, l_s=donor.l_s, gm_pub=gm_pub)
    return params, hierarchy.SecretKey(x=gm_x, member_id="gm", dept="")


def build_tree(params, rng, fanout):
    """Full tree with fanout[k] children under every level-k node, named
    by level letter and index (/a0/b1/c2). Returns (root, nodes by level)."""
    root = hierarchy.new_root()
    levels = [[root]]
    for depth, width in enumerate(fanout):
        letter = "abcdefgh"[depth]
        levels.append([hierarchy.add_department(params, parent, rng,
                                                name=f"{letter}{i}")
                       for parent in levels[-1] for i in range(width)])
    return root, levels


# -- verdict predicates ----------------------------------------------------


def is_signature(out):
    return isinstance(out, sigma.Signature)


def is_signer_revoked(out):
    return isinstance(out, SignerRevoked)


def accepted(out):
    return isinstance(out, sigma.VerifyResult) and out.accepted


def rejected_with(*reasons):
    def check(out):
        return (isinstance(out, sigma.VerifyResult) and not out.accepted
                and (not reasons or out.reason in reasons))
    return check


def is_true(out):
    return out is True


def is_false(out):
    return out is False


def exit_code(code):
    return lambda out: out == code


TAMPERED = (sigma.BAD_CHALLENGE, sigma.RANGE)


def tamper(sig, params, how):
    """A corrupted copy of sig: 0 bumps a response, 1 flips the low bit of
    the challenge, 2 pushes a response out of range."""
    if how == 0:
        return dataclasses.replace(sig, s=(sig.s[0] + 1,) + sig.s[1:])
    if how == 1:
        return dataclasses.replace(sig, challenge=sig.challenge ^ 1)
    return dataclasses.replace(sig, s=(1 << params.mask_bits,) + sig.s[1:])


# -- library workloads -----------------------------------------------------


class LibraryWorkload:
    """Closed loop over the library API, one caller. Each cycle has eight
    honest rounds (sign, verify, verify_cert), probes with known verdicts,
    and GM traffic: four joins, then fourteen revocations (each new member,
    eight of the signers, one group, one coalesce). Revocations build new
    lists and drop them, so the RL every signature binds stays fixed."""

    name = ""
    honest_rounds = 8

    def __init__(self, seed, workdir):
        self.seed = seed

    def rng(self, label):
        return random.Random(f"{self.name}/{self.seed}/{label}")

    def artifacts(self, c):
        return []

    def end_cycle(self, c):
        pass

    def join(self, dept, member_id, rng):
        return hierarchy.join(self.params, self.gm_sk, dept, member_id, rng)

    def honest(self, rng, c, i):
        sk, pk = self.signers[(c * self.honest_rounds + i) % len(self.signers)]
        msg = b"%s cycle %d round %d " % (self.name.encode(), c, i) \
            + rng.randbytes(32)
        sig = yield Op("sign", lambda: sigma.sign(self.params, sk, pk, self.rl,
                                                  msg, rng),
                       is_signature, f"sign by {pk.member_id}")
        yield Op("verify", lambda: sigma.verify(self.params, pk, self.rl, msg,
                                                sig),
                 accepted, f"verify honest signature of {pk.member_id}")
        yield Op("verify_cert", lambda: hierarchy.verify_cert(self.params, pk),
                 is_true, f"verify_cert of {pk.member_id}")
        self.last = (pk, msg, sig)

    def probe_tampered(self, rng):
        pk, msg, sig = self.last
        bad = tamper(sig, self.params, rng.randrange(3))
        yield Op("verify", lambda: sigma.verify(self.params, pk, self.rl, msg,
                                                bad),
                 rejected_with(*TAMPERED), "verify tampered signature")

    def probe_revoked_member(self, c):
        pk, msg, sig = self.revoked_sigs[c % len(self.revoked_sigs)]
        yield Op("verify", lambda: sigma.verify(self.params, pk, self.rl, msg,
                                                sig),
                 rejected_with(sigma.PK_REVOKED),
                 f"verify signature of revoked {pk.member_id}")

    def gm_traffic(self, rng, c):
        params, rl = self.params, self.rl
        fresh = []
        for i in range(4):
            dept = self.join_depts[(4 * c + i) % len(self.join_depts)]
            member_id = f"fresh-{c}-{i}"
            pair = yield Op(
                "join", lambda: self.join(dept, member_id, rng),
                lambda out: (isinstance(out, tuple) and out[1].cert
                             and out[1].dept == dept.path
                             and all(hp.evaluate(out[0].x, params.q) == 0
                                     for hp in dept.constraints)),
                f"join {member_id} to {dept.path}")
            fresh.append(pair[1])
        revoked = fresh + [self.signers[(8 * c + j) % len(self.signers)][1]
                           for j in range(8)]
        for pk in revoked:
            yield Op("revoke", lambda: revocation.revoke_member(rl, pk),
                     lambda out: (out.version == rl.version + 1
                                  and len(out.members) == len(rl.members) + 1),
                     f"revoke member {pk.member_id}")
        target = self.group_targets[c % len(self.group_targets)]
        yield Op("revoke", lambda: revocation.revoke_group(rl, target),
                 lambda out: len(out.groups) == len(rl.groups) + 1,
                 f"revoke group {target.path}")
        rl_family, folded_path, folded_groups = self.fold
        yield Op("revoke", lambda: revocation.coalesce(rl_family, self.root),
                 lambda out: (len(out.groups) == folded_groups and
                              any(g.path == folded_path for g in out.groups)),
                 f"coalesce into {folded_path}")

    def revoked_member_sigs(self, rl_before, pairs, rng):
        """Signatures made by members before the RL revoked them."""
        out = []
        for i, (sk, pk) in enumerate(pairs):
            msg = b"signed before revocation %d" % i
            out.append((pk, msg, sigma.sign(self.params, sk, pk, rl_before,
                                            msg, rng)))
        return out


class Members(LibraryWorkload):
    name = "members"

    def setup(self):
        rng = self.rng("setup")
        self.params, self.gm_sk = bench_params(2 ** 127 - 1, 2 ** 89 - 1, 8,
                                               rng)
        self.root, levels = build_tree(self.params, rng, (4, 2))
        leaves = levels[2]
        self.signers = [self.join(leaves[i % 8], f"signer-{i}", rng)
                        for i in range(16)]
        revoked = [self.join(leaves[i % 8], f"revoked-{i}", rng)
                   for i in range(4)]
        self.revoked_sigs = self.revoked_member_sigs(revocation.empty_rl(),
                                                     revoked, rng)
        plain = random_curve_points(self.params.curve, 60, rng)
        members = [revocation.RevokedMember(pk.point, pk.member_id)
                   for _, pk in revoked]
        members += [revocation.RevokedMember(pt, f"listed-{i}")
                    for i, pt in enumerate(plain)]
        self.rl = revocation.RevocationList(members=members,
                                            version=len(members))
        self.join_depts = leaves
        self.group_targets = leaves
        # revoking both children of /a0 lets coalesce fold them into /a0
        family = self.rl
        for child in levels[1][0].children:
            family = revocation.revoke_group(family, child)
        self.fold = (family, levels[1][0].path, 1)

    def cycle(self, c):
        rng = self.rng(c)
        for i in range(self.honest_rounds):
            yield from self.honest(rng, c, i)
            if i in (2, 7):
                yield from self.probe_tampered(rng)
            if i == 5:
                yield from self.probe_revoked_member(c)
        yield from self.gm_traffic(rng, c)


class DeptRevoked(LibraryWorkload):
    name = "dept-revoked"

    def setup(self):
        rng = self.rng("setup")
        params, self.gm_sk = bench_params(TOY_P, 2 ** 127 - 1, 8, rng)
        self.params = params
        # 4 x 4 x 3: /a*, /a*/b*, /a*/b*/c*
        self.root, levels = build_tree(params, rng, (4, 4, 3))
        find = lambda path: hierarchy.find_dept(self.root, path)  # noqa: E731
        revoked_paths = (
            ["/a0"]                                      # size 1
            + [f"/a1/b0/c{i}" for i in range(3)]         # folds into /a1/b0
            + [f"/a2/b0/c{i}" for i in range(3)]         # folds into /a2/b0
            + ["/a1/b1", "/a2/b1", "/a3/b0"]             # size 2
            + ["/a1/b2/c0", "/a1/b2/c1", "/a1/b3/c0",    # size 3
               "/a2/b2/c0", "/a2/b2/c1", "/a2/b3/c0",
               "/a3/b1/c0", "/a3/b1/c1", "/a3/b2/c0", "/a3/b3/c0"])
        rl = revocation.empty_rl()
        for path in revoked_paths:
            rl = revocation.revoke_group(rl, find(path))
        rl = revocation.coalesce(rl, self.root)
        paths = {g.path for g in rl.groups}
        if len(rl.groups) != 16 or not {"/a1/b0", "/a2/b0"} <= paths:
            raise AssertionError(f"unexpected coalesced RL: {sorted(paths)}")

        def covered(node):
            return any(node.path == p or node.path.startswith(p + "/")
                       for p in paths)
        open_leaves = [n for n in levels[3] if not covered(n)]
        self.signers = [self.join(open_leaves[i % len(open_leaves)],
                                  f"signer-{i}", rng) for i in range(16)]
        listed = [self.join(open_leaves[i], f"revoked-{i}", rng)
                  for i in range(4)]
        # members of revoked departments: under /a0, folded /a1/b0, direct
        # /a2/b1 and a revoked leaf
        self.dept_revoked = [
            self.join(find(path), f"in-revoked-{i}", rng)
            for i, path in enumerate(["/a0/b1/c2", "/a1/b0/c1", "/a2/b1/c0",
                                      "/a3/b3/c0"])]
        self.revoked_sigs = self.revoked_member_sigs(rl, listed, rng)
        plain = random_curve_points(params.curve, 1024 - len(listed), rng)
        members = [revocation.RevokedMember(pk.point, pk.member_id)
                   for _, pk in listed]
        members += [revocation.RevokedMember(pt, f"listed-{i}")
                    for i, pt in enumerate(plain)]
        self.rl = revocation.RevocationList(members=members, groups=rl.groups,
                                            version=rl.version + len(members))
        # an uncertified key off every revoked plane, labelled /a0
        forged_x = tuple(rng.randrange(params.q) for _ in range(params.r))
        self.forged = (
            hierarchy.SecretKey(x=forged_x, member_id="forger", dept="/a0"),
            hierarchy.PublicKey(point=curve_fp.msm(params.curve, forged_x,
                                                   params.gens),
                                member_id="forger", dept="/a0"))
        self.join_depts = open_leaves
        self.group_targets = open_leaves
        # /a1/b2 has c0, c1 revoked; adding c2 completes the family
        family = revocation.revoke_group(self.rl, find("/a1/b2/c2"))
        self.fold = (family, "/a1/b2", len(self.rl.groups) - 1)

    def probe_dept_revoked_sign(self, rng, c):
        sk, pk = self.dept_revoked[c % len(self.dept_revoked)]
        msg = b"revoked department %d " % c + rng.randbytes(16)
        yield Op("sign", lambda: sigma.sign(self.params, sk, pk, self.rl, msg,
                                            rng),
                 is_signer_revoked, f"sign by {pk.member_id} ({pk.dept})")

    def probe_forged_key(self, rng, c):
        sk, pk = self.forged
        msg = b"forged %d " % c + rng.randbytes(16)
        sig = yield Op("sign", lambda: sigma.sign(self.params, sk, pk, self.rl,
                                                  msg, rng),
                       is_signature, "sign with an uncertified off-plane key")
        yield Op("verify", lambda: sigma.verify(self.params, pk, self.rl, msg,
                                                sig),
                 lambda out: isinstance(out, sigma.VerifyResult)
                 and not out.accepted,
                 "verify signature of an uncertified key labelled /a0",
                 known_defect="sigma.verify never checks the GM certificate, "
                 "so an uncertified key labelled with a revoked department "
                 "is accepted (ROADMAP item 3)")

    def cycle(self, c):
        rng = self.rng(c)
        for i in range(self.honest_rounds):
            yield from self.honest(rng, c, i)
            if i == 1:
                yield from self.probe_tampered(rng)
            if i == 3:
                yield from self.probe_revoked_member(c)
            if i == 5:
                yield from self.probe_dept_revoked_sign(rng, c)
            if i == 7:
                yield from self.probe_forged_key(rng, c)
        yield from self.gm_traffic(rng, c)


# -- CLI workload ----------------------------------------------------------


class CliGm:
    """Episodes of GM and member traffic through `hrpks.cli.main`, in-process,
    on files under a scratch directory. Each episode is a fresh organisation
    on the same parameters: four departments, two initial members each, then
    eight rounds of (join, sign, verify, verify tampered, one revocation
    command), with revoked members and departments trying to sign."""

    name = "cli-gm"
    rounds = 8
    # revocation command of each round; the group is /d3
    revocations = ("member", "member", "group", "member", "coalesce",
                   "member", "member", "member")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.setups = 0

    def rng(self, label):
        return random.Random(f"{self.name}/{self.seed}/{label}")

    def setup(self):
        """`hrpks setup` on toy17 plus an empty RL file."""
        self.setups += 1
        d = self.workdir / f"setup{self.setups}"
        d.mkdir()
        self.params_path = d / "gm.params"
        self.gm_key = d / "gm.key"
        self.empty_rl = d / "empty.rl"
        seed = self.rng("setup").randrange(1 << 30)
        code = cli.main(["setup", "--curve", "toy17", "--p", str(TOY_P),
                         "--q", str(TOY_P), "--seed", str(seed),
                         "--params-out", str(self.params_path),
                         "--gm-key-out", str(self.gm_key)])
        if code != 0:
            raise AssertionError(f"hrpks setup exited {code}")
        serial.save_artifact(self.empty_rl, "rl", revocation.empty_rl())
        self.params = serial.load_artifact(self.params_path)

    def episode_dir(self, c):
        return self.workdir / f"ep{c}"

    def cmd(self, kind, argv, code, what):
        argv = [str(a) for a in argv]
        return Op(kind, lambda: cli.main(argv), exit_code(code), what)

    def cycle(self, c):
        rng = self.rng(c)
        d = self.episode_dir(c)
        d.mkdir()
        tree, rl = d / "org.tree", d / "list.rl"
        shutil.copyfile(self.empty_rl, rl)
        params = ["--params", self.params_path]

        def seed():
            return ["--seed", rng.randrange(1 << 30)]

        def join(member, dept):
            yield self.cmd("join", ["member", "join", *params, "--tree", tree,
                                    "--gm-key", self.gm_key, "--dept", dept,
                                    "--id", member,
                                    "--key-out", d / f"{member}.key",
                                    "--pub-out", d / f"{member}.pub", *seed()],
                           0, f"join {member} to {dept}")
            pk = serial.load_artifact(d / f"{member}.pub",
                                      curve=self.params.curve)
            yield Op("verify_cert",
                     lambda: hierarchy.verify_cert(self.params, pk), is_true,
                     f"verify_cert of {member}")

        def sign(member, msg, code):
            return self.cmd("sign", ["sign", *params, "--key",
                                     d / f"{member}.key", "--rl", rl,
                                     "--msg-file", msg,
                                     "--out", d / f"{member}.sig", *seed()],
                            code, f"sign by {member}")

        def verify(member, msg, sig, code, *extra):
            return self.cmd("verify", ["verify", *params, "--pub",
                                       d / f"{member}.pub", "--rl", rl,
                                       "--msg-file", msg, "--sig", sig,
                                       *extra],
                            code, f"verify {sig.name} for {member}")

        for i in range(4):
            yield self.cmd("dept_add", ["dept", "add", *params, "--tree", tree,
                                        "--name", f"d{i}", *seed()],
                           0, f"dept add /d{i}")
        for i in range(4):
            for j in range(2):
                yield from join(f"m{i}{j}", f"/d{i}")
        pk = serial.load_artifact(d / "m00.pub", curve=self.params.curve)
        forged = dataclasses.replace(pk, member_id="m01")
        yield Op("verify_cert",
                 lambda: hierarchy.verify_cert(self.params, forged), is_false,
                 "verify_cert of m00's certificate relabelled as m01")

        victims = ["m01", "m11", "m21", "m00", "m10", "m20"]
        for k in range(self.rounds):
            member = f"f{k}"
            yield from join(member, f"/d{k % 3}")
            msg = d / f"msg{k}.txt"
            msg.write_bytes(b"episode %d round %d " % (c, k)
                            + rng.randbytes(32))
            yield sign(member, msg, 0)
            sig = d / f"{member}.sig"
            yield verify(member, msg, sig, 0, *(["--json"] if k % 2 else []))
            bad = d / f"{member}.bad.sig"
            serial.save_artifact(bad, "signature", tamper(
                serial.load_artifact(sig), self.params, rng.randrange(3)))
            yield verify(member, msg, bad, 1)
            action = self.revocations[k]
            if action == "member":
                victim = victims.pop(0)
                yield self.cmd("revoke", ["revoke", "member", *params,
                                          "--rl", rl,
                                          "--pub", d / f"{victim}.pub"],
                               0, f"revoke member {victim}")
                yield sign(victim, msg, 3)
            elif action == "group":
                yield self.cmd("revoke", ["revoke", "group", *params,
                                          "--rl", rl, "--tree", tree,
                                          "--dept", "/d3"],
                               0, "revoke group /d3")
                yield sign("m30", msg, 3)
            else:
                yield self.cmd("revoke", ["rl", "coalesce", *params,
                                          "--rl", rl, "--tree", tree],
                               0, "rl coalesce")

    def artifacts(self, c):
        """(name, bytes) of the set-up's files and of every file episode c
        left, sorted by name."""
        files = [self.params_path, self.gm_key]
        files += sorted(self.episode_dir(c).iterdir())
        return [(p.name, p.read_bytes()) for p in files]

    def end_cycle(self, c):
        shutil.rmtree(self.episode_dir(c))


WORKLOADS = {"members": Members, "dept-revoked": DeptRevoked,
             "cli-gm": CliGm}
